"""Randomized property suites: every inequality the library promises,
checked on seeded random instances with explicit slack margins.

Each suite returns the minimum observed slack (how far the worst instance
was from violating its inequality); a negative slack means a violation.
"""

from __future__ import annotations

import functools
import math
import string
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .boost import (
    BoostConfig,
    ReweightedModel,
    TokenIndicatorOracle,
    iteration_bound,
    reweight_whole,
    run_boost,
)
from .corpus import Corpus, Vocabulary
from .distinguish import (
    Distinguisher,
    advantage_exact,
    bayes_optimal_distinguisher,
    generalized_advantage,
    log_ratio_distinguisher,
    minimal_ratio_bound,
    training_advantage,
)
from .exact import (
    JointTable,
    all_ids,
    all_indicator_distinguishers,
    distinguishability_exhaustive,
    finite_diff_gradient,
    kl_divergence,
    sequence_index,
    total_variation,
)
from .models import LogLinearModel, UniformModel, kl_gradient, log_loss


@dataclass(frozen=True)
class PropertyResult:
    name: str
    instances: int
    min_slack: float
    passed: bool


def _run(
    name: str, count: int, seed: int, floor: float, slack: Callable[[np.random.Generator], float]
) -> PropertyResult:
    """Draw ``count`` instances from one generator seeded with ``seed`` and
    take the least slack; a NaN slack makes the least NaN.  The suite passes
    when that least slack is finite and at least ``floor``: an infinite or
    NaN slack is no evidence that the inequality holds."""
    rng = np.random.default_rng(seed)
    min_slack = float(np.min([slack(rng) for _ in range(count)], initial=math.inf))
    return PropertyResult(name, count, min_slack, math.isfinite(min_slack) and min_slack >= floor)


@functools.cache
def make_vocab(n: int) -> Vocabulary:
    """An n-token vocabulary: the pad plus n-1 letters, one frozen one per n.
    There are 26 letters, so n must be in 1..27."""
    if not 1 <= n <= len(string.ascii_lowercase) + 1:
        raise ValueError(f"a vocabulary of n = {n} tokens needs 1 <= n <= 27")
    return Vocabulary.build(string.ascii_lowercase[: n - 1])


def random_table(rng: np.random.Generator, vocab: Vocabulary, length: int) -> JointTable:
    probs = rng.random(vocab.n**length) + 0.05
    return JointTable(vocab, length, probs / probs.sum())


def random_corpus(
    rng: np.random.Generator, vocab: Vocabulary, length: int, m: int
) -> Corpus:
    """m random sequences of content tokens, with genuinely padded tails."""
    ids = np.zeros((m, length), dtype=np.int64)
    for i in range(m):
        true_length = int(rng.integers(1, length + 1))
        ids[i, :true_length] = rng.integers(1, vocab.n, size=true_length)
    return Corpus(vocab, length, ids)


def _table_loss(table: JointTable, corpus: Corpus) -> float:
    total = 0.0
    for p in table.probs[sequence_index(table.vocab, corpus.ids)].tolist():
        total -= math.log(p)
    return total / corpus.m


def random_step_distinguisher(
    rng: np.random.Generator, vocab: Vocabulary, length: int
) -> Distinguisher:
    """A uniform random value for every prefix of length 1..length."""
    tables = [rng.random(vocab.n**j) for j in range(1, length + 1)]
    return Distinguisher(
        label="random-step",
        values=lambda ids: tables[ids.shape[-1] - 1][sequence_index(vocab, ids)],
    )


def _table_pair(rng: np.random.Generator, max_n: int) -> tuple[JointTable, JointTable]:
    """Two random tables over one vocabulary of 2..max_n-1 tokens, at length 1 or 2."""
    vocab = make_vocab(int(rng.integers(2, max_n)))
    length = int(rng.integers(1, 3))
    return random_table(rng, vocab, length), random_table(rng, vocab, length)


def whole_reweight_suite(count: int = 200, seed: int = 1) -> PropertyResult:
    """Reweighting by a distinguisher with advantage a drops the loss by >= a^2/2."""
    def slack(rng):
        vocab = make_vocab(int(rng.integers(2, 9)))
        q = random_table(rng, vocab, 1)
        corpus = random_corpus(rng, vocab, 1, int(rng.integers(3, 26)))
        fvals = rng.random(vocab.n)
        f = Distinguisher(values=lambda ids: fvals[ids[..., 0]])
        a = training_advantage(f, corpus, q).value
        if a < 0:
            f, a = f.flipped(), -a
        q2 = reweight_whole(q, f, a)
        return _table_loss(q, corpus) - a * a / 2.0 - _table_loss(q2, corpus)

    return _run("whole-sequence-reweight-bound", count, seed, -1e-9, slack)


def stepwise_reweight_suite(
    count: int = 200, seed: int = 2, partition_scale: float = 1.0
) -> PropertyResult:
    """Step-wise reweighting by advantage b drops the loss by >= N b^2 / 2."""
    def slack(rng):
        vocab = make_vocab(int(rng.integers(2, 6)))
        length = int(rng.integers(1, 4))
        q = random_table(rng, vocab, length)
        corpus = random_corpus(rng, vocab, length, int(rng.integers(3, 16)))
        g = random_step_distinguisher(rng, vocab, length)
        b = generalized_advantage(g, corpus, q).value
        if b < 0:
            g, b = g.flipped(), -b
        q2 = ReweightedModel(q, [(b, g)], partition_scale=partition_scale)
        loss, loss2 = log_loss(q, corpus).log_loss, log_loss(q2, corpus).log_loss
        return loss - length * b * b / 2.0 - loss2

    return _run("stepwise-reweight-bound", count, seed, -1e-9, slack)


def log_ratio_suite(count: int = 200, seed: int = 3) -> PropertyResult:
    """The log-ratio distinguisher of two shared-support models stays in [0,1]
    and its advantage covers the loss gap divided by 2 log C."""
    def slack(rng):
        qt, q2t = _table_pair(rng, 7)
        corpus = random_corpus(rng, qt.vocab, qt.length, int(rng.integers(3, 16)))
        c = minimal_ratio_bound(qt, q2t)
        f = log_ratio_distinguisher(qt, q2t, c)
        v = f.values(qt.ids)  # raises on a ratio violation
        assert np.all((0.0 <= v) & (v <= 1.0))
        alpha = training_advantage(f, corpus, qt).value
        gap = log_loss(qt, corpus).log_loss - log_loss(q2t, corpus).log_loss
        return alpha - gap / (2.0 * math.log(c))

    return _run("log-ratio-advantage-bound", count, seed, -1e-9, slack)


def kl_gradient_fd_suite(count: int = 50, seed: int = 4) -> PropertyResult:
    """Analytic KL gradient of log-linear models vs central finite differences."""
    h = 1e-5
    tol = 1e-5

    def slack(rng):
        while True:
            n = int(rng.integers(2, 7))
            length = int(rng.integers(1, 4))
            if n**length <= 256:
                break
        vocab = make_vocab(n)
        d = int(rng.integers(1, 5))
        ids = all_ids(n, length)
        fmat = rng.random((len(ids), d))
        theta = rng.uniform(-2.0, 2.0, size=d)
        model = LogLinearModel(ids, fmat, theta, vocab=vocab)
        p = random_table(rng, vocab, length)
        analytic = kl_gradient(model, p)

        def field(th):
            return kl_divergence(p, JointTable(vocab, length, model.with_theta(th).all_probs()))

        fd = finite_diff_gradient(field, theta, h)
        rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-6)
        return tol - float(rel.max())

    return _run("kl-gradient-finite-difference", count, seed, 0.0, slack)


def pinsker_suite(count: int = 500, seed: int = 5) -> PropertyResult:
    """TVD <= sqrt(KL/2) on random table pairs."""
    def slack(rng):
        p, q = _table_pair(rng, 8)
        return math.sqrt(kl_divergence(p, q) / 2.0) + 1e-12 - total_variation(p, q)

    return _run("pinsker", count, seed, 0.0, slack)


def advantage_tvd_suite(count: int = 500, seed: int = 6) -> PropertyResult:
    """|advantage of any [0,1]-valued distinguisher| <= total variation."""
    def slack(rng):
        p, q = _table_pair(rng, 8)
        fvals = rng.random(p.vocab.n**p.length)
        f = Distinguisher(values=lambda ids: fvals[sequence_index(p.vocab, ids)])
        return total_variation(p, q) + 1e-12 - abs(advantage_exact(f, p, q))

    return _run("advantage-below-tvd", count, seed, 0.0, slack)


def bayes_tvd_suite(count: int = 100, seed: int = 7) -> PropertyResult:
    """The q>p indicator achieves advantage exactly equal to total variation."""
    def slack(rng):
        p, q = _table_pair(rng, 8)
        f = bayes_optimal_distinguisher(p, q)
        return 1e-12 - abs(advantage_exact(f, p, q) - total_variation(p, q))

    return _run("bayes-optimal-equals-tvd", count, seed, 0.0, slack)


def exhaustive_indicator_suite(count: int = 20, seed: int = 8) -> PropertyResult:
    """Max advantage over every indicator distinguisher equals total variation."""
    def slack(rng):
        vocab, length = [(make_vocab(3), 1), (make_vocab(2), 3), (make_vocab(3), 2)][
            int(rng.integers(0, 3))
        ]
        p = random_table(rng, vocab, length)
        q = random_table(rng, vocab, length)
        family = all_indicator_distinguishers(vocab, length)
        value, _ = distinguishability_exhaustive(q, p, family)
        return 1e-12 - abs(value - total_variation(p, q))

    return _run("exhaustive-indicators-equal-tvd", count, seed, 0.0, slack)


def boost_termination_suite(
    count: int = 20, seed: int = 9, epsilon: float = 0.05
) -> PropertyResult:
    """Boosting terminates within the iteration bound and really is
    epsilon-indistinguishable by the oracle afterwards."""
    oracle = TokenIndicatorOracle()

    def slack(rng):
        vocab = make_vocab(int(rng.integers(2, 6)))
        length = int(rng.integers(1, 4))
        corpus = random_corpus(rng, vocab, length, int(rng.integers(4, 13)))
        q0 = UniformModel(vocab, length)
        model, trace = run_boost(q0, corpus, oracle, BoostConfig(epsilon=epsilon))
        final_b = generalized_advantage(oracle.propose(model, corpus), corpus, model).value
        if trace.termination != "indistinguishable" or not final_b < epsilon:
            return -math.inf
        bound = iteration_bound(trace.initial_loss, length, epsilon)
        return float(bound - sum(1 for r in trace.records if r.b >= epsilon))

    return _run("boost-termination", count, seed, 0.0, slack)


def default_suites(stepwise_partition_scale: float = 1.0) -> list[PropertyResult]:
    return [
        whole_reweight_suite(),
        stepwise_reweight_suite(partition_scale=stepwise_partition_scale),
        log_ratio_suite(),
        kl_gradient_fd_suite(),
        pinsker_suite(),
        advantage_tvd_suite(),
        bayes_tvd_suite(),
        exhaustive_indicator_suite(),
        boost_termination_suite(),
    ]
