"""Multiplicative reweighting and the boosting loop against a distinguisher oracle.

A reweighting step multiplies each conditional by exp(-b g(prefix, token))
and renormalizes per prefix; repeating it against whatever the oracle finds
drives the model until the oracle can no longer distinguish it from the
sample by more than the threshold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .corpus import Corpus, Vocabulary
from .distinguish import (
    Distinguisher,
    extensions,
    generalized_advantage,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
)
from .exact import JointTable
from .models import (
    SequentialModel,
    context_groups,
    log_loss,
    loss_report,
    prefix_conditionals,
    summed_logs,
)


# The most token ids one block of ReweightedModel's batched rows extends to (2 MB).
EXTENSION_BLOCK = 1 << 18


def _row_keys(prefixes: np.ndarray) -> np.ndarray:
    """One byte key per row of a C-contiguous (k, L) int64 array, a ``np.void``
    view of its rows: equal rows have equal keys, and keys sort and search as
    bytes, however large n^L is.  Every empty prefix has the same key."""
    k, L = prefixes.shape
    return prefixes.view(f"V{8 * L}").reshape(k) if L else np.zeros(k, dtype="V1")


class ReweightedModel(SequentialModel):
    """A base model with an ordered list of (weight, step distinguisher) factors.

    A prefix's logits are the log of its base row minus b_t g_t, one factor
    at a time in factor order; ``_rows`` turns them into conditionals, so a
    base-0 entry stays 0.  Weights must be nonnegative (a negative weight is a
    flipped distinguisher) whose running total ``weight_total`` is finite:
    with each g in [0, 1], that keeps every logit finite.  ``partition_scale``
    is a test hook that deliberately mis-scales the partition (1.0 in real
    use).

    Logits are memoised in one block per prefix length L: the distinct
    prefixes seen so far, a (K, L) array sorted by their ``_row_keys``, the
    keys (a view of that array) and the (K, n) logits in the same order.
    ``prefix_slot`` is where ``prefix_conditionals`` keeps the model's last
    corpus array.
    """

    def __init__(
        self,
        base: SequentialModel,
        factors: list[tuple[float, Distinguisher]] | None = None,
        partition_scale: float = 1.0,
    ):
        factors = list(factors or [])
        if any(b < 0 for b, _ in factors):
            raise ValueError("weight must be nonnegative; flip the distinguisher instead")
        if not all(b < math.inf for b, _ in factors):  # NaN too
            raise ValueError("weight must be finite")
        total = sum((b for b, _ in factors), getattr(base, "weight_total", 0.0))
        if not total < math.inf:
            raise ValueError(f"the weights' running total {total} is not finite")
        if isinstance(base, ReweightedModel):
            factors = base.factors + factors
            base = base.base
        self.base = base
        self.factors = factors
        self.weight_total = total
        self.vocab = base.vocab
        self.length = base.length
        self.partition_scale = partition_scale
        self._memo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.prefix_slot: tuple[np.ndarray, np.ndarray] | None = None

    def conditionals(self, prefixes: np.ndarray, memo: bool = True) -> np.ndarray:
        """Memoised logits where there are any, found with one ``searchsorted``;
        the others from ``_logits``, each distinct prefix once, merged into the
        memo unless ``memo`` is false.  Then ``_rows``."""
        prefixes = np.ascontiguousarray(prefixes, dtype=np.int64)
        if not self.factors:
            return self.base.conditionals(prefixes, memo)
        L = prefixes.shape[1]
        block = self._memo.get(L)
        if block is None and not memo:
            return self._rows(self._logits(prefixes))
        keys = _row_keys(prefixes)
        if block is None:
            miss = np.arange(len(keys))
        else:
            known, known_keys, logits = block
            pos = known_keys.searchsorted(keys)
            hit = known_keys.take(pos, mode="clip") == keys
            if np.count_nonzero(hit) == len(keys):
                return self._rows(logits.take(pos, axis=0))
            miss = (~hit).nonzero()[0]
        # The missing rows in key order: each run of equal keys is one new prefix.
        miss = miss.take(keys.take(miss).argsort())
        ordered = keys.take(miss)
        starts = np.empty(len(miss), dtype=bool)
        starts[:1] = True
        starts[1:] = ordered[1:] != ordered[:-1]
        new = miss[starts]
        added = prefixes.take(new, axis=0)
        fresh = self._logits(added)
        if block is not None:
            # Each new prefix goes in at its search position, the new ones in
            # key order among themselves, so the block stays sorted.
            at = pos.take(new)
            added, fresh = np.insert(known, at, added, axis=0), np.insert(logits, at, fresh, axis=0)
        added_keys = _row_keys(added)
        if memo and len(added):  # a block is never empty, so it can always be searched
            self._memo[L] = added, added_keys, fresh
        return self._rows(fresh.take(added_keys.searchsorted(keys), axis=0))

    def _logits(self, prefixes: np.ndarray) -> np.ndarray:
        """The logits of a (k, L) prefix array from the base, in blocks whose
        (rows, n, L + 1) token extensions hold at most EXTENSION_BLOCK ids."""
        (k, L), n = prefixes.shape, self.vocab.n
        step = max(1, EXTENSION_BLOCK // (n * (L + 1)))
        if k > step:
            return np.concatenate([self._logits(prefixes[i : i + step])
                                   for i in range(0, k, step)])
        with np.errstate(divide="ignore"):
            logits = np.log(self.base.conditionals(prefixes))
        ext = extensions(prefixes, n)
        for b, g in self.factors:
            logits -= b * g.values(ext)
        return logits

    def _rows(self, logits: np.ndarray) -> np.ndarray:
        """The conditionals of a (k, n) array of logits, each row shifted by its
        largest logit first, so that no row underflows or overflows whole."""
        weights = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
        return weights / (np.add.reduce(weights, axis=1, keepdims=True) * self.partition_scale)

    def extended(self, b: float, g: Distinguisher) -> "ReweightedModel":
        """This model with the factor (b, g) appended.  Each memo block's logits
        take the subtraction a fresh chain's last factor takes, so a new factor
        costs one pass over the memoised prefixes and a carried row is the
        fresh chain's bit for bit.  The child shares the blocks' prefix arrays.
        This model's ``prefix_slot`` is emptied, so a run keeps one array."""
        self.prefix_slot = None
        child = ReweightedModel(self, [(b, g)], self.partition_scale)
        n = self.vocab.n
        for L, (known, keys, logits) in self._memo.items():
            child._memo[L] = known, keys, logits - b * g.values(extensions(known, n))
        return child


def reweight_whole(q: JointTable, f, a: float) -> JointTable:
    """Whole-sequence update q'(x) = q(x) exp(-a f(x)) / Z over an explicit table."""
    if a < 0:
        raise ValueError("weight must be nonnegative")
    unnorm = q.probs * np.exp(-a * f.values(q.ids))
    return JointTable(q.vocab, q.length, unnorm / unnorm.sum())


@dataclass(frozen=True)
class BoostConfig:
    epsilon: float
    max_iters: int | None = None  # default: 10 x the iteration bound

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # NaN too
            raise ValueError("epsilon must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    b: float
    log_loss: float
    oracle_seconds: float
    eval_seconds: float


@dataclass
class BoostTrace:
    initial_loss: float
    records: list[IterationRecord] = field(default_factory=list)
    termination: str = ""

    def to_csv_text(self, include_timings: bool = False) -> str:
        # Timings are zeroed by default so traces are byte-reproducible.
        lines = ["iter,b_t,log_loss,oracle_ms,eval_ms"]
        for r in self.records:
            oracle_ms = r.oracle_seconds * 1e3 if include_timings else 0.0
            eval_ms = r.eval_seconds * 1e3 if include_timings else 0.0
            lines.append(f"{r.t},{r.b:.17g},{r.log_loss:.17g},{oracle_ms:.17g},{eval_ms:.17g}")
        return "\n".join(lines) + "\n"


class MaxItersExceededError(RuntimeError):
    def __init__(self, trace: BoostTrace):
        super().__init__(f"boosting did not reach the threshold in {len(trace.records)} iterations")
        self.trace = trace


class Oracle(Protocol):
    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher: ...


def iteration_bound(initial_loss: float, length: int, epsilon: float) -> int:
    """ceil(2 L0 / (N eps^2)): max iterations before the loss would go negative."""
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    if initial_loss < 0 or length < 1:
        raise ValueError("need initial_loss >= 0 and length >= 1")
    return math.ceil(2.0 * initial_loss / (length * epsilon**2))


def run_boost(
    q0: SequentialModel, corpus: Corpus, oracle: Oracle, config: BoostConfig
) -> tuple[ReweightedModel, BoostTrace]:
    """Boost q0 until the oracle's best distinguisher has advantage below epsilon.

    Each round asks the oracle for a distinguisher, measures its advantage
    b_t, stops if b_t < epsilon, and otherwise folds exp(-b_t g_t) into the
    model.  The returned model is epsilon-indistinguishable by this oracle.
    A round's loss is ``log_loss``'s float, read from the array
    (``prefix_conditionals``) that the next round's oracle reads.
    """
    loss0 = log_loss(q0, corpus).log_loss  # raises if any sequence is impossible
    trace = BoostTrace(initial_loss=loss0)
    cap = config.max_iters
    if cap is None:
        cap = max(1, 10 * iteration_bound(loss0, corpus.length, config.epsilon))
    model = ReweightedModel(q0, [])
    current_loss = loss0
    rows, at = np.arange(corpus.m)[:, None], np.arange(corpus.length)
    for t in range(cap):
        t0 = time.perf_counter()
        g = oracle.propose(model, corpus)
        t1 = time.perf_counter()
        b = generalized_advantage(g, corpus, model).value
        if b < config.epsilon:
            t2 = time.perf_counter()
            trace.records.append(IterationRecord(t, b, current_loss, t1 - t0, t2 - t1))
            trace.termination = "indistinguishable"
            return model, trace
        model = model.extended(b, g)
        probs = prefix_conditionals(model, corpus)[rows, at, corpus.ids]
        current_loss = loss_report(summed_logs(probs)).log_loss
        t2 = time.perf_counter()
        trace.records.append(IterationRecord(t, b, current_loss, t1 - t0, t2 - t1))
    trace.termination = "max-iters"
    raise MaxItersExceededError(trace)


# ---------------------------------------------------------------------------
# Built-in oracles.


# Advantages closer than this count as tied: far above the rounding of the
# oracle's sums at desk scale (about m N 2^-52), far below any useful margin.
TIE_TOLERANCE = 1e-13


def indicator_cells(
    corpus: Corpus, context_length: int
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The corpus-only part of ``best_indicator``: the contexts of the positions
    j >= k in rank order (``context_groups``), the cell (context rank * n +
    token) of every (position, token) pair, positions in row-major order, and
    the count of each cell's token at its context's positions."""
    ids, n, k = corpus.ids, corpus.vocab.n, context_length
    if corpus.length <= k:
        raise ValueError(f"no context of {k} tokens fits before a token in length {corpus.length}")
    counted = np.zeros(ids.shape, dtype=bool)
    counted[:, k:] = True
    group, contexts = context_groups(ids, k, counted)
    counts = np.bincount(group * n + ids[:, k:].reshape(-1), minlength=len(contexts) * n)
    return contexts, (group[:, None] * n + np.arange(n)).reshape(-1), counts


def best_indicator(
    q: SequentialModel, corpus: Corpus, context_length: int, cells: tuple
) -> tuple[tuple[int, ...], int, bool]:
    """The (context, token, flip) whose indicator has the largest step-wise advantage.

    A candidate is 1 where the prefix ends with ``context_length`` context
    tokens followed by the token.  All candidates are scored from one
    conditional array Q (m, N, n): over the positions j >= k whose previous k
    tokens are the context c,

        adv[c, t] = (sum of Q[i, j, t] - count of t) / (m N),

    and the flipped candidate scores (sum of Q - m N) / (m N) - adv[c, t].
    The counts come with ``cells``, ``indicator_cells(corpus, k)``; the sums
    are one ``np.bincount`` over its cells, adding in position order.
    Contexts rank in order of first appearance in the corpus, then tokens,
    then unflipped before flipped, and the first maximum wins, as in a scan
    that keeps a candidate only when it is strictly better (up to TIE_TOLERANCE).
    """
    (contexts, cell, counts), n, k = cells, corpus.vocab.n, context_length
    Q = prefix_conditionals(q, corpus)
    sums = np.bincount(cell, weights=Q[:, k:].reshape(-1), minlength=len(counts))
    total = corpus.m * corpus.length
    adv = (sums - counts).reshape(-1, n) / total
    scores = np.stack([adv, (Q.sum() - total) / total - adv], axis=-1)
    # Candidates tied in exact arithmetic can differ here by rounding, in either
    # direction; the first in rank among those within TIE_TOLERANCE of the best
    # wins, so ties do not depend on the order the sums were added in.
    index = np.flatnonzero(scores.ravel() >= scores.max() - TIE_TOLERANCE)[0]
    c, tok, flip = np.unravel_index(index, scores.shape)
    return contexts[c], int(tok), bool(flip)


class NGramIndicatorOracle:
    """Search order-k context-token indicators over contexts seen in the corpus.
    Its ``indicator_cells`` are counted again only for another ``corpus.ids``."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self._cells: tuple = (None,)

    def _best(self, q: SequentialModel, corpus: Corpus) -> tuple[tuple[int, ...], int, bool]:
        if self._cells[0] is not corpus.ids:
            self._cells = corpus.ids, indicator_cells(corpus, self.order - 1)
        return best_indicator(q, corpus, self.order - 1, self._cells[1])

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        ctx, tok, flip = self._best(q, corpus)
        return ngram_indicator(corpus.vocab, ctx, tok, flip)


class TokenIndicatorOracle(NGramIndicatorOracle):
    """Search last-token indicators (and their flips) for the best advantage."""

    def __init__(self):
        super().__init__(1)

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        _, tok, flip = self._best(q, corpus)
        return token_indicator(corpus.vocab, tok, flip)


class LogRatioOracle:
    """Distinguish via conditional log-ratios against a lower-loss reference model.
    The reference's corpus conditionals are read again only for another ``corpus.ids``."""

    def __init__(self, reference: SequentialModel, ratio_cap: float = 1e6):
        self.reference = reference
        self.ratio_cap = ratio_cap
        self._reference_rows: tuple = (None,)

    def _bound(self, q: SequentialModel, corpus: Corpus) -> float:
        """The largest ratio either way between q and the reference at the
        corpus prefixes, where both are positive, clamped to (1, ratio_cap]."""
        if self._reference_rows[0] is not corpus.ids:
            self._reference_rows = corpus.ids, prefix_conditionals(self.reference, corpus)
        dq, dr = prefix_conditionals(q, corpus), self._reference_rows[1]
        both = (dq > 0) & (dr > 0)
        r = dq[both] / dr[both]
        worst = max(1.0, float(r.max()), float((1.0 / r).max())) if r.size else 1.0
        return min(max(worst, 1.0 + 1e-12), self.ratio_cap)

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        c = self._bound(q, corpus)
        g = step_log_ratio(q, self.reference, c)
        if generalized_advantage(g, corpus, q).value < 0:
            g = step_log_ratio(q, self.reference, c, flip=True)
        return g


def make_oracle(kind: str, order: int = 2, reference: SequentialModel | None = None) -> Oracle:
    if kind == "token-indicator":
        return TokenIndicatorOracle()
    if kind == "ngram-indicator":
        return NGramIndicatorOracle(order)
    if kind == "log-ratio":
        if reference is None:
            raise ValueError("log-ratio oracle needs a reference model")
        return LogRatioOracle(reference)
    raise ValueError(f"unknown oracle kind {kind!r}")
