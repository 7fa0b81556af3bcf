"""Brute-force oracles over enumerable sequence domains.

Everything here refuses to run past a configurable enumeration budget; these
are desk-scale checks, not estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .corpus import Sequence, Vocabulary, check_domain, sequence_index
from .models import SequentialModel

DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(ValueError):
    """Domain size exceeds the configured enumeration budget."""


def all_sequences(vocab: Vocabulary, length: int) -> list[Sequence]:
    """All n^N raw sequences as ``Sequence`` rows, the i-th being the one with
    ``sequence_index`` i: the rows of ``all_ids``, which the library reads."""
    return [Sequence.from_raw(ids) for ids in all_ids(vocab.n, length).tolist()]


# all_ids keeps each domain of at most this many rows (the suites' largest is
# 6^3); an enumeration's larger levels are built afresh and not kept.
SHARED_DOMAIN_ROWS = 256
_shared_domains: dict[tuple[int, int], np.ndarray] = {}


def all_ids(n: int, length: int) -> np.ndarray:
    """The (n^length, length) array whose row i is i written as base-n digits:
    every id sequence, in ``sequence_index`` order.  Column c repeats each
    digit for n^(length-c-1) rows, in n^c runs of 0..n-1.  A domain of at
    most ``SHARED_DOMAIN_ROWS`` rows is built once and shared, so it is
    read-only."""
    out = _shared_domains.get((n, length))
    if out is not None:
        return out
    out = np.empty((n**length, length), dtype=np.int64)
    for c in range(length):
        out.reshape(n**c, n, n ** (length - c - 1), length)[:, :, :, c] = np.arange(n)[:, None]
    if len(out) <= SHARED_DOMAIN_ROWS:
        out.flags.writeable = False
        _shared_domains[n, length] = out
    return out


@dataclass
class JointTable(SequentialModel):
    """Explicit probabilities for every sequence, in lexicographic order.

    As a sequential model its conditionals come by marginalization: every
    prefix owns a contiguous block of indices.  ``_levels[L]`` holds the
    (n^L, n) conditionals of every length-L prefix, built once per table
    from the longest prefixes up: each level's masses are the row sums of the
    level below, so no mass is a difference and none is lost.  The levels
    take n(n^N - 1)/(n - 1) floats, at most twice ``probs``.
    """

    vocab: Vocabulary
    length: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        # One minimum and one sum, skipped past a negative, NaN or -inf entry so
        # that no inf - inf is summed; the finiteness pass runs only when the sum
        # is not finite, to choose the message.
        self.probs = np.asarray(self.probs, dtype=float)
        expected = self.vocab.n**self.length
        if self.probs.shape != (expected,):
            raise ValueError(f"need {expected} probabilities, got {self.probs.shape}")
        low = np.minimum.reduce(self.probs)
        total = np.add.reduce(self.probs) if low >= -1e-12 else math.nan
        if not math.isfinite(total) and not np.isfinite(self.probs).all():
            raise ValueError("non-finite probability")
        if not low >= -1e-12:
            raise ValueError("negative probability")
        if abs(total - 1.0) > 1e-9:
            raise ValueError("probabilities do not sum to 1")

    @cached_property
    def ids(self) -> np.ndarray:
        """Every sequence of the domain as an (n^N, N) id array, row i the one
        with ``sequence_index`` i: ``all_ids``, so a small domain's array is
        shared between tables and read-only."""
        return all_ids(self.vocab.n, self.length)

    @cached_property
    def _levels(self) -> list[np.ndarray]:
        n, levels, masses = self.vocab.n, [], self.probs
        for _ in range(self.length):
            masses = masses.reshape(-1, n)
            totals = masses.sum(axis=1, keepdims=True)
            # A zero-mass prefix has no conditional: it gets the uniform one.
            levels.append(np.divide(masses, totals, out=np.full(masses.shape, 1.0 / n),
                                    where=totals > 0.0))
            masses = totals
        return levels[::-1]

    def conditionals(self, prefixes: np.ndarray) -> np.ndarray:
        """One gather from the level of the prefixes' length."""
        prefixes = np.asarray(prefixes)
        return self._levels[prefixes.shape[1]][sequence_index(self.vocab, prefixes)]


def enumerate_joint(
    model: SequentialModel, budget: int = DEFAULT_BUDGET
) -> JointTable:
    """Expand a sequential model into its full joint table by the chain rule.

    Level j holds the log-probabilities of all n^j prefixes of length j in
    lexicographic order; one ``conditionals`` call per level extends them.
    """
    n, N = model.vocab.n, model.length
    if n**N > budget:
        raise BudgetExceededError(f"enumeration budget exceeded: {n}^{N} > {budget}")
    level = np.zeros(1)  # log-probabilities of all prefixes of the current length
    with np.errstate(divide="ignore"):
        for j in range(N):
            level = (level[:, None] + np.log(model.conditionals(all_ids(n, j)))).ravel()
    return JointTable(model.vocab, N, np.exp(level))


def kl_divergence(p: JointTable, q: JointTable) -> float:
    """KL(p || q) in nats; math.inf when q misses mass that p has."""
    check_domain(p, q)
    support = p.probs > 0
    if np.any(q.probs[support] <= 0):
        return math.inf
    pp, qq = p.probs[support], q.probs[support]
    return float(np.sum(pp * (np.log(pp) - np.log(qq))))


def cross_entropy(p: JointTable, q: JointTable) -> float:
    """-sum_x p(x) log q(x) = entropy(p) + KL(p || q)."""
    check_domain(p, q)
    support = p.probs > 0
    if np.any(q.probs[support] <= 0):
        return math.inf
    return float(-np.sum(p.probs[support] * np.log(q.probs[support])))


def total_variation(p: JointTable, q: JointTable) -> float:
    check_domain(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def distinguishability_exhaustive(
    q: JointTable, p: JointTable, family: np.ndarray
) -> tuple[float, int]:
    """Max advantage over a finite distinguisher family, with the argmax.

    ``family`` holds one distinguisher per row, as its values over the domain
    in ``sequence_index`` order.  Returns (value, index of the first maximum
    row); value is d(q) restricted to the family.
    """
    check_domain(p, q)
    family = np.asarray(family, dtype=float)
    if len(family) == 0:
        raise ValueError("empty distinguisher family")
    advantages = family @ (q.probs - p.probs)
    best = int(np.argmax(advantages))
    return float(advantages[best]), best


def all_indicator_distinguishers(vocab: Vocabulary, length: int, budget: int = 12) -> np.ndarray:
    """Every 0/1-valued distinguisher over the domain (2^(n^N) of them), as
    the bit matrix whose row ``mask`` holds bit i of mask at sequence i."""
    size = vocab.n**length
    if size > budget:
        raise BudgetExceededError(f"indicator family budget exceeded: {size} > {budget}")
    return (np.arange(2**size)[:, None] >> np.arange(size) & 1).astype(float)


def finite_diff_gradient(
    scalar_field: Callable[[np.ndarray], float], theta: np.ndarray, h: float
) -> np.ndarray:
    """Central differences (F(theta + h e_i) - F(theta - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (scalar_field(up) - scalar_field(dn)) / (2.0 * h)
    return grad
