"""Distinguishers and their advantage estimators.

A whole-sequence distinguisher maps a sequence to [0, 1]; a step-wise
distinguisher maps any nonempty prefix to [0, 1].  Advantages measure how
much a distinguisher separates model samples from a reference (a table or a
training sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Corpus, Sequence, Vocabulary
from .exact import DEFAULT_BUDGET, JointTable, check_shared, enumerate_joint, sequence_index
from .models import SequentialModel, prefix_conditionals, sample_many, sequence_log_prob


@dataclass(frozen=True)
class Distinguisher:
    """Maps whole sequences to [0, 1]."""

    fn: Callable[[Sequence], float]
    label: str = ""

    def __call__(self, seq: Sequence) -> float:
        return float(self.fn(seq))


@dataclass(frozen=True)
class StepDistinguisher:
    """Maps token-id prefixes of any length 1..N to [0, 1].

    ``kind``/``params`` carry serialization metadata for the built-in
    families; custom distinguishers leave them empty.  ``values``, when set,
    is the same function on every row of an (..., L) id array (L >= 1),
    returning an array of shape (...); the built-in indicator families set it
    so that advantages and reweighting run as array arithmetic.  ``models``
    is the (model, reference) pair a log-ratio distinguisher compares, which
    a model file needs to rebuild it.
    """

    fn: Callable[[tuple[int, ...]], float]
    label: str = ""
    kind: str = "custom"
    params: tuple = ()
    values: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    models: tuple = field(default=(), compare=False, repr=False)

    def __call__(self, prefix: tuple[int, ...]) -> float:
        return float(self.fn(prefix))

    def flipped(self) -> "StepDistinguisher":
        values = self.values
        return StepDistinguisher(
            lambda prefix: 1.0 - self.fn(prefix),
            label=f"1-({self.label})",
            kind=self.kind,
            params=self.params + ("flip",),
            values=None if values is None else (lambda ids: 1.0 - values(ids)),
            models=self.models,
        )

    def as_whole(self) -> Distinguisher:
        return Distinguisher(lambda seq: self.fn(seq.token_ids), label=self.label)


@dataclass(frozen=True)
class AdvantageEstimate:
    value: float
    estimator: str  # "exact-enumeration" | "monte-carlo" | "stepwise-exact"
    sample_count: int | None = None
    per_position: tuple[float, ...] | None = None


def advantage_exact(f: Distinguisher, p: JointTable, q: JointTable) -> float:
    """sum_x f(x) (q(x) - p(x)) over the shared domain."""
    check_shared(p, q)
    # Skip entries outside both supports so partial distinguishers (log-ratio)
    # never get evaluated where neither distribution puts mass.
    return float(
        sum(
            f(x) * (qx - px)
            for x, px, qx in zip(p.domain, p.probs, q.probs)
            if px > 0 or qx > 0
        )
    )


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
    if corpus.m < 1:
        raise ValueError("empty corpus")
    emp = sum(f(x) for x in corpus.sequences) / corpus.m
    if estimator == "exact":
        table = enumerate_joint(q, budget=budget)
        model_mean = float(
            sum(f(x) * px for x, px in zip(table.domain, table.probs) if px > 0)
        )
        return AdvantageEstimate(model_mean - emp, "exact-enumeration")
    if estimator == "monte-carlo":
        draws = sample_many(q, samples, seed)
        model_mean = sum(f(x) for x in draws) / samples
        return AdvantageEstimate(model_mean - emp, "monte-carlo", sample_count=samples)
    raise ValueError(f"unknown estimator {estimator!r}")


def extensions(prefixes: np.ndarray, n: int) -> np.ndarray:
    """Every row of a (k, L) prefix array followed by every token: (k, n, L + 1)."""
    k, L = prefixes.shape
    ext = np.empty((k, n, L + 1), dtype=np.int64)
    ext[:, :, :L] = prefixes[:, None, :]
    ext[:, :, L] = np.arange(n)
    return ext


def extension_values(g: StepDistinguisher, prefixes: np.ndarray, n: int) -> np.ndarray:
    """g(prefix + (w,)) for every row of a (k, L) prefix array and every token w.

    Returns a (k, n) array; ``g`` must have a vectorised ``values``.
    """
    return g.values(extensions(prefixes, n))


def generalized_advantage(
    g: StepDistinguisher, corpus: Corpus, q: SequentialModel
) -> AdvantageEstimate:
    """Per-position advantage of a step-wise distinguisher, averaged over positions.

    For each position j the model-side expectation over the replacement token
    is computed exactly by summing the n conditional probabilities.  A
    distinguisher with vectorised ``values`` is evaluated on whole arrays;
    its sums add tokens and then rows in the same order as the scalar loop.
    """
    if corpus.m < 1:
        raise ValueError("empty corpus")
    if g.values is None:
        per_position = _scalar_per_position(g, corpus, q)
    else:
        per_position = _batched_per_position(g, corpus, q)
    value = sum(per_position) / corpus.length
    return AdvantageEstimate(value, "stepwise-exact", per_position=tuple(per_position))


def _scalar_per_position(
    g: StepDistinguisher, corpus: Corpus, q: SequentialModel
) -> list[float]:
    n = corpus.vocab.n
    per_position = []
    for j in range(1, corpus.length + 1):
        acc = 0.0
        for seq in corpus.sequences:
            prefix = seq.prefix(j - 1)
            dist = q.next_token_dist(prefix)
            model_side = sum(float(dist[w]) * g(prefix + (w,)) for w in range(n) if dist[w] > 0)
            acc += model_side - g(seq.prefix(j))
        per_position.append(acc / corpus.m)
    return per_position


def _batched_per_position(
    g: StepDistinguisher, corpus: Corpus, q: SequentialModel
) -> list[float]:
    ids, n = corpus.ids, corpus.vocab.n
    Q = prefix_conditionals(q, corpus)
    terms = np.empty(ids.shape)
    for j in range(corpus.length):
        dist = Q[:, j]
        weighted = np.where(dist > 0, dist * extension_values(g, ids[:, :j], n), 0.0)
        # accumulate adds strictly left to right, like the scalar sums
        model_side = np.add.accumulate(weighted, axis=1)[:, -1]
        terms[:, j] = model_side - g.values(ids[:, : j + 1])
    return [float(acc) / corpus.m for acc in np.add.accumulate(terms, axis=0)[-1]]


def bayes_optimal_distinguisher(p: JointTable, q: JointTable) -> Distinguisher:
    """Indicator of q(x) > p(x); its exact advantage is the total variation."""
    check_shared(p, q)
    bits = (q.probs > p.probs).astype(float)
    vocab = p.vocab
    return Distinguisher(
        lambda x: float(bits[sequence_index(vocab, x.token_ids)]), label="bayes-optimal"
    )


def minimal_ratio_bound(q: JointTable, q2: JointTable) -> float:
    """Smallest C >= 1 with q/C <= q2 <= C q on the (shared) support."""
    check_shared(q, q2)
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
    is needed.  A value outside [0, 1] (beyond numerical slack) means the
    caller's C does not actually bound the ratio, and is reported as an error.
    """
    if C <= 1.0:
        raise ValueError("C must exceed 1")
    log_c = math.log(C)

    def fn(x: Sequence) -> float:
        lq = sequence_log_prob(q, x)
        lq2 = sequence_log_prob(q2, x)
        if lq == -math.inf or lq2 == -math.inf:
            raise ValueError(f"sequence {x.token_ids} outside the shared support")
        val = (log_c + lq - lq2) / (2.0 * log_c)
        if val < -1e-9 or val > 1.0 + 1e-9:
            raise ValueError(f"ratio bound C={C} violated at sequence {x.token_ids}")
        return min(max(val, 0.0), 1.0)

    return Distinguisher(fn, label=f"log-ratio(C={C:g})")


# ---------------------------------------------------------------------------
# Built-in step-wise distinguisher families (the kinds the config file names).


def token_indicator(vocab: Vocabulary, token_id: int, flip: bool = False) -> StepDistinguisher:
    """1 iff the last token of the prefix equals the given token."""
    base = StepDistinguisher(
        lambda prefix: 1.0 if prefix and prefix[-1] == token_id else 0.0,
        label=f"token[{vocab.token_of(token_id)}]",
        kind="token-indicator",
        params=(token_id,),
        values=lambda ids: (ids[..., -1] == token_id).astype(float),
    )
    return base.flipped() if flip else base


def ngram_indicator(
    vocab: Vocabulary, context: tuple[int, ...], token_id: int, flip: bool = False
) -> StepDistinguisher:
    """1 iff the prefix ends with the given (context, token) run."""
    tail = context + (token_id,)
    label = "ngram[" + " ".join(vocab.token_of(t) for t in tail) + "]"

    def values(ids: np.ndarray) -> np.ndarray:
        if ids.shape[-1] < len(tail):
            return np.zeros(ids.shape[:-1])
        return np.all(ids[..., -len(tail) :] == tail, axis=-1).astype(float)

    base = StepDistinguisher(
        lambda prefix: 1.0 if prefix[-len(tail) :] == tail and len(prefix) >= len(tail) else 0.0,
        label=label,
        kind="ngram-indicator",
        params=tail,
        values=values,
    )
    return base.flipped() if flip else base


def step_log_ratio(
    q: SequentialModel, ref: SequentialModel, C: float, flip: bool = False
) -> StepDistinguisher:
    """Conditional log-ratio of q vs a reference model, scaled and clamped to [0,1].

    ``values`` takes both models' probabilities from ``token_probs``, one call
    each for a whole id array, and applies the same scalar formula to each.
    """
    if C <= 1.0:
        raise ValueError("C must exceed 1")
    log_c = math.log(C)

    def scaled(pq: float, pr: float) -> float:
        if pq <= 0.0 and pr <= 0.0:
            return 0.5
        if pq <= 0.0:
            return 0.0
        if pr <= 0.0:
            return 1.0
        val = (log_c + math.log(pq) - math.log(pr)) / (2.0 * log_c)
        return min(max(val, 0.0), 1.0)

    def fn(prefix: tuple[int, ...]) -> float:
        ctx, tok = prefix[:-1], prefix[-1]
        return scaled(float(q.next_token_dist(ctx)[tok]), float(ref.next_token_dist(ctx)[tok]))

    def values(ids: np.ndarray) -> np.ndarray:
        rows = ids.reshape(-1, ids.shape[-1])
        pq = q.token_probs(rows[:, :-1], rows[:, -1])
        pr = ref.token_probs(rows[:, :-1], rows[:, -1])
        out = np.where(pq > 0.0, 1.0, np.where(pr > 0.0, 0.0, 0.5))
        both = (pq > 0.0) & (pr > 0.0)
        # math.log, as in fn: numpy's log can differ from it in the last bit.
        lq = np.array([math.log(x) for x in pq[both].tolist()])
        lr = np.array([math.log(x) for x in pr[both].tolist()])
        out[both] = np.clip((log_c + lq - lr) / (2.0 * log_c), 0.0, 1.0)
        return out.reshape(ids.shape[:-1])

    base = StepDistinguisher(
        fn, label=f"step-log-ratio(C={C:g})", kind="log-ratio", params=(C,),
        values=values, models=(q, ref),
    )
    return base.flipped() if flip else base
