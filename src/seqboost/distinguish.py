"""Distinguishers and their advantage estimators.

A distinguisher maps id rows to [0, 1]: read on whole sequences it is the
paper's f(x), read on every nonempty prefix its step-wise g(h, w).
Advantages measure how much a distinguisher separates model samples from a
reference (a table or a training sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .corpus import Corpus, Vocabulary, check_domain, sequence_index
from .exact import DEFAULT_BUDGET, JointTable, enumerate_joint
from .models import SequentialModel, _logs, check_corpus, sample_many, sequence_log_probs


def _row_values(fn: Callable[[tuple[int, ...]], float]) -> Callable[[np.ndarray], np.ndarray]:
    """``values`` for a scalar ``fn``: fn(tuple(row)) for every row of an (..., L) id array."""

    def values(ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        rows = ids.reshape(-1, ids.shape[-1]).tolist()
        return np.array([float(fn(tuple(row))) for row in rows]).reshape(ids.shape[:-1])

    return values


def _rule_values(rule, models: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """``values`` for a comparison ``rule``: the rule of both models' ``token_probs``
    of every row's last token after the tokens before it."""

    def values(ids: np.ndarray) -> np.ndarray:
        rows = ids.reshape(-1, ids.shape[-1])
        pq, pr = (m.token_probs(rows[:, :-1], rows[:, -1]) for m in models)
        return rule(pq, pr).reshape(ids.shape[:-1])

    return values


@dataclass(frozen=True)
class Distinguisher:
    """Maps token-id rows to [0, 1]: a whole-sequence distinguisher f(x) read at
    length N, or a step-wise one g(h, w) read at every prefix length 1..N.

    ``values`` maps an (..., L) id array (L >= 1) to the values of its rows,
    an array of shape (...).  A custom distinguisher may give a scalar ``fn``
    of an id tuple instead, turned into ``values`` here, once.  A comparison
    gives ``models`` = (q, reference) and a ``rule`` instead: g(h, w) =
    rule(q(w | h), reference(w | h)), elementwise on two probability arrays,
    which ``values`` applies to ``token_probs`` and advantages and reweighting
    to rows of conditionals.  As a factor of a ``ReweightedModel`` its q must
    be the chain before it, whose rows the chain computes itself.
    ``kind``/``params`` are serialization metadata for the built-in families
    (``from_params`` reads them back); custom distinguishers leave them empty.
    """

    fn: Callable[[tuple[int, ...]], float] | None = None
    label: str = ""
    kind: str = "custom"
    params: tuple = ()
    values: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False)
    models: tuple = field(default=(), compare=False, repr=False)
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.values is None:
            values = _rule_values(self.rule, self.models) if self.rule else _row_values(self.fn)
            object.__setattr__(self, "values", values)

    def __call__(self, x: tuple[int, ...]) -> float:
        return float(self.values(np.array(x, dtype=np.int64)))

    def flipped(self) -> "Distinguisher":
        values, rule = self.values, self.rule
        return replace(self, fn=None, label=f"1-({self.label})", params=self.params + ("flip",),
                       values=lambda ids: 1.0 - values(ids),
                       rule=None if rule is None else lambda pq, pr: 1.0 - rule(pq, pr))


StepDistinguisher = Distinguisher  # the step-wise reading has no type of its own


@dataclass(frozen=True)
class AdvantageEstimate:
    """An advantage and how it was estimated.  A step-wise estimate's
    ``step_values`` are (corpus, reads): g at the token extensions of the
    distinct prefixes of ``corpus.prefix_index``, a stacked (K, n) array."""

    value: float
    estimator: str  # "exact-enumeration" | "monte-carlo" | "stepwise-exact"
    sample_count: int | None = None
    per_position: tuple[float, ...] | None = None
    step_values: tuple = field(default=(), compare=False, repr=False)


def advantage_exact(f: Distinguisher, p: JointTable, q: JointTable) -> float:
    """sum_x f(x) (q(x) - p(x)) over the shared domain."""
    check_domain(p, q)
    # Only sequences in either support, so partial distinguishers (log-ratio)
    # never get evaluated where neither distribution puts mass.
    live = (p.probs > 0) | (q.probs > 0)
    return float(f.values(p.ids[live]) @ (q.probs - p.probs)[live])


def accuracy_from_advantage(alpha: float) -> float:
    """Expected accuracy of the induced randomized classifier: 1/2 + alpha/2."""
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"advantage {alpha} outside [-1, 1]")
    return 0.5 + alpha / 2.0


def training_advantage(
    f: Distinguisher,
    corpus: Corpus,
    q: SequentialModel,
    estimator: str = "exact",
    samples: int = 10_000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> AdvantageEstimate:
    """E_q[f] - empirical mean of f over the sample; independent of p.

    The model expectation is either an exact enumeration or a seeded
    Monte-Carlo mean over ``samples`` draws.
    """
    check_corpus(q, corpus)
    emp = float(f.values(corpus.ids).sum()) / corpus.m
    if estimator == "exact":
        table = enumerate_joint(q, budget=budget)
        live = table.probs > 0
        model_mean = float(f.values(table.ids[live]) @ table.probs[live])
        return AdvantageEstimate(model_mean - emp, "exact-enumeration")
    if estimator == "monte-carlo":
        if samples < 1:
            raise ValueError(f"need at least 1 sample, got {samples}")
        model_mean = float(f.values(sample_many(q, samples, seed)).sum()) / samples
        return AdvantageEstimate(model_mean - emp, "monte-carlo", sample_count=samples)
    raise ValueError(f"unknown estimator {estimator!r}")


def extensions(prefixes: np.ndarray, n: int) -> np.ndarray:
    """Every row of a (k, L) prefix array followed by every token: (k, n, L + 1)."""
    k, L = prefixes.shape
    ext = np.empty((k, n, L + 1), dtype=np.int64)
    ext[:, :, :L] = prefixes[:, None, :]
    ext[:, :, L] = np.arange(n)
    return ext


def generalized_advantage(
    g: Distinguisher, corpus: Corpus, q: SequentialModel
) -> AdvantageEstimate:
    """Per-position advantage of a step-wise distinguisher, averaged over positions.

    g is read once per length, on the extensions of ``corpus.prefix_index``'s
    distinct prefixes: the (K, n) reads that the estimate carries as
    ``step_values``.  A comparison g's reads are instead its ``rule`` of its
    two models' ``corpus_rows``, the same values.  The model side, the exact
    expectation of g over the next token under ``corpus_rows``, is one sum per
    distinct prefix; both sides are gathered to the positions through
    ``prefix_index[1]``, the data side at the corpus token.  The sums add
    tokens and then rows strictly left to right, as a scalar loop over
    sequences and tokens would.
    """
    check_corpus(q, corpus)
    ids, n = corpus.ids, corpus.vocab.n
    rows = q.corpus_rows(corpus)
    distinct, prefix_rows = corpus.prefix_index
    if g.rule:
        reads = g.rule(*(m.corpus_rows(corpus) for m in g.models))
    else:
        reads = np.concatenate([g.values(extensions(p, n)) for p in distinct], dtype=float)
    model_side = np.add.accumulate(np.where(rows > 0, rows * reads, 0.0), axis=1)[:, -1]
    terms = model_side.take(prefix_rows) - reads.reshape(-1).take(prefix_rows * n + ids)
    per_position = [float(acc) / corpus.m for acc in np.add.accumulate(terms, axis=0)[-1]]
    value = sum(per_position) / corpus.length
    return AdvantageEstimate(value, "stepwise-exact", per_position=tuple(per_position),
                             step_values=(corpus, reads))


def bayes_optimal_distinguisher(p: JointTable, q: JointTable) -> Distinguisher:
    """Indicator of q(x) > p(x); its exact advantage is the total variation."""
    check_domain(p, q)
    bits = (q.probs > p.probs).astype(float)
    vocab = p.vocab
    return Distinguisher(label="bayes-optimal", values=lambda ids: bits[sequence_index(vocab, ids)])


def minimal_ratio_bound(q: JointTable, q2: JointTable) -> float:
    """Smallest C >= 1 with q/C <= q2 <= C q on the (shared) support."""
    check_domain(q, q2, ("q", "q2"))
    s1 = q.probs > 0
    s2 = q2.probs > 0
    if np.any(s1 != s2):
        raise ValueError("supports differ")
    ratios = q2.probs[s1] / q.probs[s1]
    c = float(max(ratios.max(), (1.0 / ratios).max()))
    return max(c, 1.0 + 1e-12)


def log_ratio_distinguisher(
    q: SequentialModel, q2: SequentialModel, C: float
) -> Distinguisher:
    """f(x) = log(C q(x) / q2(x)) / (2 log C); in [0,1] when the ratio bound holds.

    Log-probabilities come from summed conditionals, so no joint enumeration
    is needed.  A sequence outside either model's support, or a value outside
    [0, 1] (beyond numerical slack), which means the caller's C does not
    actually bound the ratio, is reported as an error.
    """
    if not 1.0 < C < math.inf:  # NaN too
        raise ValueError(f"C must be finite and exceed 1, got {C}")
    log_c = math.log(C)

    def values(ids: np.ndarray) -> np.ndarray:
        rows = ids.reshape(-1, ids.shape[-1])
        lq, lq2 = sequence_log_probs(q, rows), sequence_log_probs(q2, rows)
        outside = np.isneginf(lq) | np.isneginf(lq2)
        if outside.any():
            at = tuple(rows[outside][0].tolist())
            raise ValueError(f"sequence {at} outside the shared support")
        val = (log_c + lq - lq2) / (2.0 * log_c)
        violated = (val < -1e-9) | (val > 1.0 + 1e-9)
        if violated.any():
            at = tuple(rows[violated][0].tolist())
            raise ValueError(f"ratio bound C={C} violated at sequence {at}")
        return np.clip(val, 0.0, 1.0).reshape(ids.shape[:-1])

    return Distinguisher(label=f"log-ratio(C={C:g})", values=values)


# ---------------------------------------------------------------------------
# Built-in step-wise distinguisher families (the kinds the config file names).


def token_indicator(vocab: Vocabulary, token_id: int, flip: bool = False) -> Distinguisher:
    """1 iff the last token of the prefix equals the given token."""
    base = Distinguisher(
        label=f"token[{vocab.token_of(token_id)}]",
        kind="token-indicator",
        params=(token_id,),
        values=lambda ids: (ids[..., -1] == token_id).astype(float),
    )
    return base.flipped() if flip else base


def ngram_indicator(
    vocab: Vocabulary, context: tuple[int, ...], token_id: int, flip: bool = False
) -> Distinguisher:
    """1 iff the prefix ends with the given (context, token) run."""
    tail = context + (token_id,)
    label = "ngram[" + " ".join(vocab.token_of(t) for t in tail) + "]"

    def values(ids: np.ndarray) -> np.ndarray:
        if ids.shape[-1] < len(tail):
            return np.zeros(ids.shape[:-1])
        return np.all(ids[..., -len(tail) :] == tail, axis=-1).astype(float)

    base = Distinguisher(label=label, kind="ngram-indicator", params=tail, values=values)
    return base.flipped() if flip else base


def log_ratio(pq: np.ndarray, pr: np.ndarray, C: float) -> np.ndarray:
    """The step log-ratio of q's and the reference's probabilities of the same
    tokens (two arrays of one shape): log(C pq / pr) / (2 log C), clamped to
    [0, 1]; a token neither model allows scores 1/2, one only the reference
    allows 0, and one only q allows 1."""
    log_c = math.log(C)
    out = np.where(pq > 0.0, 1.0, np.where(pr > 0.0, 0.0, 0.5))
    both = (pq > 0.0) & (pr > 0.0)
    out[both] = np.clip((log_c + _logs(pq[both]) - _logs(pr[both])) / (2.0 * log_c), 0.0, 1.0)
    return out


def step_log_ratio(
    q: SequentialModel, ref: SequentialModel, C: float, flip: bool = False
) -> Distinguisher:
    """Conditional log-ratio of q vs a reference model, scaled and clamped to [0,1]:
    the comparison distinguisher whose rule is ``log_ratio`` with this C."""
    if not 1.0 < C < math.inf:  # NaN too
        raise ValueError(f"C must be finite and exceed 1, got {C}")
    check_domain(ref, q, ("the reference", "the model"))
    base = Distinguisher(
        label=f"step-log-ratio(C={C:g})", kind="log-ratio", params=(C,),
        models=(q, ref), rule=lambda pq, pr: log_ratio(pq, pr, C),
    )
    return base.flipped() if flip else base


def from_params(
    kind: str,
    params: list,
    vocab: Vocabulary,
    q: SequentialModel | None = None,
    reference: SequentialModel | None = None,
) -> Distinguisher:
    """The built-in distinguisher with this ``kind`` and ``params``: the inverse of
    ``token_indicator``, ``ngram_indicator``, ``step_log_ratio`` (comparing q with
    ``reference``) and ``flipped``, each trailing ``"flip"`` flipping the result once.
    Anything those could not have written raises ValueError."""
    if not isinstance(params, list):
        raise ValueError(f"{kind} params {params!r} are not a list")
    core = list(params)
    while core and core[-1] == "flip":
        core.pop()
    if kind in ("token-indicator", "ngram-indicator"):
        if not core or not all(type(t) is int and 0 <= t < vocab.n for t in core):
            raise ValueError(f"{kind} params {core!r} are not token ids in 0..{vocab.n - 1}")
        ids = tuple(core)
        if kind == "ngram-indicator":
            g = ngram_indicator(vocab, ids[:-1], ids[-1])
        elif len(ids) == 1:
            g = token_indicator(vocab, ids[0])
        else:
            raise ValueError(f"a token indicator has one token id, not {len(ids)}")
    elif kind == "log-ratio":
        if q is None or reference is None:
            raise ValueError("a log-ratio distinguisher needs a model and a reference")
        if len(core) != 1 or type(core[0]) not in (int, float):
            raise ValueError(f"log-ratio params {core!r} are not one real C")
        g = step_log_ratio(q, reference, float(core[0]))
    else:
        raise ValueError(f"unknown distinguisher kind {kind!r}")
    for _ in range(len(params) - len(core)):
        g = g.flipped()
    return g
