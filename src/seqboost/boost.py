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

from .corpus import Corpus, Vocabulary, check_domain, row_numbers
from .distinguish import (
    Distinguisher,
    extensions,
    generalized_advantage,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
)
from .exact import JointTable
from .models import SequentialModel, check_corpus, log_loss, summed_logs


# The most token ids one block of ReweightedModel's batched rows extends to (2 MB).
EXTENSION_BLOCK = 1 << 18


def _is_chain(q: SequentialModel, base: SequentialModel, factors: list, scale: float) -> bool:
    """Whether q is this chain (or, with no factors, the base itself), each g
    compared by identity: distinguishers that differ can compare equal."""
    if not isinstance(q, ReweightedModel):
        return q is base and not factors
    return (q.base is base and q.partition_scale == scale and len(q.factors) == len(factors)
            and all(b == c and g is h for (b, g), (c, h) in zip(q.factors, factors)))


class ReweightedModel(SequentialModel):
    """A base model with an ordered list of (weight, step distinguisher) factors.

    A prefix's logits are the log of its base row minus b_t g_t, one factor
    at a time in factor order; ``_rows`` turns them into conditionals, so a
    base-0 entry stays 0.  Weights must be nonnegative (a negative weight is a
    flipped distinguisher) with a running total ``weight_total`` of at most
    2**23: with each g in [0, 1], that keeps every row within 1e-9 of its
    exact value.  A comparison factor (one with a ``rule``) must compare the
    chain before it, whose rows the chain has just computed, as ``run_boost``
    and the model reader build them.  ``partition_scale`` is a test hook that
    deliberately mis-scales the partition (1.0 in real use).

    The model's slot is (corpus, rows, logits): ``corpus_rows`` and the (K, n)
    logits they are normalised from, stacked as ``corpus.prefix_index`` numbers
    the distinct prefixes.  ``extended`` carries its logits to the child.
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
        # Above 2**23, one rounding unit of a logit (total x 2^-53) can exceed
        # the 1e-9 that SequentialModel's contract allows a row.
        if not total <= 2.0**23:
            raise ValueError(f"the weights' running total {total} exceeds 2**23, "
                             "beyond which the rows lose precision")
        parent, start = None, 0
        if isinstance(base, ReweightedModel):
            # The parent's factors were checked at its scale; at another, all are.
            parent, factors, base = base, base.factors + factors, base.base
            start = len(parent.factors) if parent.partition_scale == partition_scale else 0
        for t in range(start, len(factors)):
            q = factors[t][1].models[0] if factors[t][1].rule else None
            if q is not None and not (start and t == start and q is parent  # extended: O(1)
                                      or _is_chain(q, base, factors[:t], partition_scale)):
                raise ValueError("a comparison factor must compare the chain before it")
        self.base = base
        self.factors = factors
        self.weight_total = total
        self.vocab = base.vocab
        self.length = base.length
        self.partition_scale = partition_scale

    def conditionals(self, prefixes: np.ndarray) -> np.ndarray:
        """The rows of a (k, L) prefix array: ``_rows`` of the ``_logits`` of each
        distinct prefix (``row_numbers``), computed once, gathered back; no slot is read."""
        prefixes = np.asarray(prefixes, dtype=np.int64)
        if not self.factors:
            return self.base.conditionals(prefixes)
        codes, first = row_numbers(prefixes)
        return self._rows(self._logits(prefixes.take(first, axis=0))).take(codes, axis=0)

    def _fill(self, corpus: Corpus) -> tuple:
        """(rows, logits): with a factor, ``_rows`` of ``_logits`` per length;
        without, the base's ``_fill`` rows and their ``np.log``, as ``_logits`` takes it."""
        if not self.factors:
            rows = self.base._fill(corpus)[0]
            with np.errstate(divide="ignore"):
                return rows, np.log(rows)
        logits = np.concatenate([self._logits(p) for p in corpus.prefix_index[0]])
        return self._rows(logits), logits

    def corpus_log_probs(self, corpus: Corpus) -> np.ndarray:
        """``summed_logs`` of the corpus tokens' probabilities in ``corpus_rows``,
        one log per distinct (prefix, token) cell."""
        rows = self.corpus_rows(corpus)
        probs = rows.reshape(-1).take(corpus.prefix_index[1] * self.vocab.n + corpus.ids)
        return summed_logs(probs, corpus.token_cells)

    def _logits(self, prefixes: np.ndarray) -> np.ndarray:
        """The logits of a (k, L) prefix array from the base, in blocks whose
        (rows, n, L + 1) token extensions hold at most EXTENSION_BLOCK ids.  A
        comparison factor applies its ``rule`` to the rows computed so far (the
        base's before the first factor) and its reference's, read once a block;
        the extensions are built only when some factor reads ``values``."""
        (k, L), n = prefixes.shape, self.vocab.n
        step = max(1, EXTENSION_BLOCK // (n * (L + 1)))
        if k > step:
            return np.concatenate([self._logits(prefixes[i : i + step])
                                   for i in range(0, k, step)])
        rows = self.base.conditionals(prefixes)
        with np.errstate(divide="ignore"):
            logits = np.log(rows)
        ext = extensions(prefixes, n) if any(not g.rule for _, g in self.factors) else None
        references = {id(g.models[1]): g.models[1] for _, g in self.factors if g.rule}
        ref_rows = {key: ref.conditionals(prefixes) for key, ref in references.items()}
        for t, (b, g) in enumerate(self.factors):
            if g.rule:
                pq = rows if t == 0 else self._rows(logits)
                logits -= b * g.rule(pq, ref_rows[id(g.models[1])])
            else:
                logits -= b * g.values(ext)
        return logits

    def _rows(self, logits: np.ndarray) -> np.ndarray:
        """The conditionals of a (..., n) array of logits, each row shifted by its
        largest logit first, so that no row underflows or overflows whole."""
        weights = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        return weights / (np.add.reduce(weights, axis=-1, keepdims=True) * self.partition_scale)

    def extended(self, b: float, g: Distinguisher, step_values: tuple = ()) -> "ReweightedModel":
        """This model with the factor (b, g) appended.  Given ``step_values``,
        (corpus, g's reads) as ``AdvantageEstimate`` carries them, the child's
        slot holds that corpus with logits this model's slot logits of it
        minus b times the reads: a fresh chain's last subtraction, so its rows
        are the fresh chain's bit for bit.  Without them the child's slot is
        empty.  This model's slot is emptied, so a run keeps one slot; asked
        again, the model recomputes it."""
        child = ReweightedModel(self, [(b, g)], self.partition_scale)
        if step_values:
            corpus, reads = step_values
            self.corpus_rows(corpus)
            logits = self._slot[2] - b * reads
            child._slot = corpus, child._rows(logits), logits
            child._slot[1].flags.writeable = False
        self._slot = None
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
    A round reads each distinct corpus prefix once: g's reads in
    ``generalized_advantage`` carry the new factor into the child's slot
    (``extended``), and the round's loss is ``log_loss``, read from the rows
    (``corpus_rows``) that the next round's oracle and estimate read.
    """
    loss0 = log_loss(q0, corpus).log_loss  # raises if any sequence is impossible
    trace = BoostTrace(initial_loss=loss0)
    cap = config.max_iters
    if cap is None:
        cap = max(1, 10 * iteration_bound(loss0, corpus.length, config.epsilon))
    model = ReweightedModel(q0, [])
    current_loss = loss0
    for t in range(cap):
        t0 = time.perf_counter()
        g = oracle.propose(model, corpus)
        t1 = time.perf_counter()
        estimate = generalized_advantage(g, corpus, model)
        b = estimate.value
        if b < config.epsilon:
            t2 = time.perf_counter()
            trace.records.append(IterationRecord(t, b, current_loss, t1 - t0, t2 - t1))
            trace.termination = "indistinguishable"
            return model, trace
        model = model.extended(b, g, estimate.step_values)
        current_loss = log_loss(model, corpus).log_loss
        t2 = time.perf_counter()
        trace.records.append(IterationRecord(t, b, current_loss, t1 - t0, t2 - t1))
    trace.termination = "max-iters"
    raise MaxItersExceededError(trace)


# ---------------------------------------------------------------------------
# Built-in oracles.


# Advantages closer than this count as tied: far above the rounding of the
# oracle's sums at desk scale (about m N 2^-52), far below any useful margin.
TIE_TOLERANCE = 1e-13


def best_indicator(q: SequentialModel, corpus: Corpus, k: int) -> tuple[tuple[int, ...], int, bool]:
    """The (context, token, flip) whose indicator has the largest step-wise advantage.

    A candidate is 1 where the prefix ends with k context tokens followed by
    the token.  All candidates are scored from one conditional array Q
    (m, N, n), the model's ``corpus_rows`` gathered to the positions: over the
    positions j >= k whose previous k tokens are the context c,

        adv[c, t] = (sum of Q[i, j, t] - count of t) / (m N),

    and the flipped candidate scores (sum of Q - m N) / (m N) - adv[c, t].
    The counts are ``corpus.indicator_cells(k)``'s; the sums are one
    ``np.bincount`` over its cells, adding in position order.
    Contexts rank in order of first appearance in the corpus, then tokens,
    then unflipped before flipped, and the first maximum wins, as in a scan
    that keeps a candidate only when it is strictly better (up to TIE_TOLERANCE).
    """
    check_corpus(q, corpus)
    n, (contexts, cell, counts) = corpus.vocab.n, corpus.indicator_cells(k)
    Q = q.corpus_rows(corpus).take(corpus.prefix_index[1], axis=0)
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
    """Search order-k context-token indicators over contexts seen in the corpus."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        ctx, tok, flip = best_indicator(q, corpus, self.order - 1)
        return ngram_indicator(corpus.vocab, ctx, tok, flip)


class TokenIndicatorOracle:
    """Search last-token indicators (and their flips) for the best advantage."""

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        _, tok, flip = best_indicator(q, corpus, 0)
        return token_indicator(corpus.vocab, tok, flip)


# The largest C a log-ratio oracle uses.
RATIO_CAP = 1e6


class LogRatioOracle:
    """Distinguish via conditional log-ratios against a lower-loss reference model."""

    def __init__(self, reference: SequentialModel):
        self.reference = reference

    def _bound(self, q: SequentialModel, corpus: Corpus) -> float:
        """The largest ratio either way between q and the reference at the
        corpus prefixes, where both are positive, clamped to (1, RATIO_CAP]."""
        dq, dr = q.corpus_rows(corpus), self.reference.corpus_rows(corpus)
        both = (dq > 0) & (dr > 0)
        r = dq[both] / dr[both]
        worst = max(1.0, float(r.max()), float((1.0 / r).max())) if r.size else 1.0
        return min(max(worst, 1.0 + 1e-12), RATIO_CAP)

    def propose(self, q: SequentialModel, corpus: Corpus) -> Distinguisher:
        check_domain(self.reference, q, ("the reference", "the model"))
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
