import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost.checks import make_vocab, random_corpus
from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.distinguish import (
    Distinguisher,
    StepDistinguisher,
    accuracy_from_advantage,
    advantage_exact,
    bayes_optimal_distinguisher,
    from_params,
    generalized_advantage,
    log_ratio_distinguisher,
    minimal_ratio_bound,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
    training_advantage,
)
from seqboost.exact import JointTable, total_variation
from seqboost.models import UniformModel, ngram_mle_fit

from conftest import StubModel


def ab_table(pa, pb):
    return JointTable(Vocabulary.build(["a", "b"]), 1, np.array([0.0, pa, pb]))


IS_B = Distinguisher(lambda x: 1.0 if x[0] == 2 else 0.0, label="is-b")


class TestAdvantageExact:
    def test_indicator_value(self):
        assert advantage_exact(IS_B, ab_table(0.75, 0.25), ab_table(0.5, 0.5)) == pytest.approx(0.25)

    def test_constant_half_has_zero_advantage(self):
        f = Distinguisher(lambda x: 0.5)
        assert advantage_exact(f, ab_table(0.75, 0.25), ab_table(0.5, 0.5)) == pytest.approx(0.0)

    def test_flip_negates(self):
        p, q = ab_table(0.7, 0.3), ab_table(0.4, 0.6)
        flipped = Distinguisher(lambda x: 1.0 - IS_B(x))
        assert advantage_exact(flipped, p, q) == pytest.approx(-advantage_exact(IS_B, p, q), abs=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0, 1), st.floats(0, 1))
    def test_flip_antisymmetry_property(self, pa, qa, fa, fb):
        p, q = ab_table(pa, 1 - pa), ab_table(qa, 1 - qa)
        f = Distinguisher(lambda x: fa if x[0] == 1 else fb)
        g = Distinguisher(lambda x: 1.0 - f(x))
        assert advantage_exact(g, p, q) == pytest.approx(-advantage_exact(f, p, q), abs=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0, 1), st.floats(0, 1))
    def test_advantage_bounded_by_tvd(self, pa, qa, fa, fb):
        p, q = ab_table(pa, 1 - pa), ab_table(qa, 1 - qa)
        f = Distinguisher(lambda x: fa if x[0] == 1 else fb)
        assert abs(advantage_exact(f, p, q)) <= total_variation(p, q) + 1e-12


class TestAccuracy:
    def test_values(self):
        assert accuracy_from_advantage(0.0) == 0.5
        assert accuracy_from_advantage(1.0) == 1.0
        assert accuracy_from_advantage(0.25) == 0.625

    def test_range_check(self):
        with pytest.raises(ValueError):
            accuracy_from_advantage(1.5)


class TestTrainingAdvantage:
    def test_uniform_vs_counts(self, aaab_corpus, half_half):
        est = training_advantage(IS_B, aaab_corpus, half_half())
        assert est.value == pytest.approx(0.25)
        assert est.estimator == "exact-enumeration"

    def test_constant_cancels(self, aaab_corpus, half_half):
        f = Distinguisher(lambda x: 0.37)
        assert training_advantage(f, aaab_corpus, half_half()).value == pytest.approx(0.0, abs=1e-12)

    def test_empirical_model_has_zero_advantage(self, aaab_corpus):
        model = ngram_mle_fit(aaab_corpus, order=1, lam=0.0)
        f = Distinguisher(lambda x: 0.9 if x[0] == 1 else 0.1)
        assert training_advantage(f, aaab_corpus, model).value == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_converges(self, aaab_corpus, half_half):
        exact = training_advantage(IS_B, aaab_corpus, half_half()).value
        mc = training_advantage(
            IS_B, aaab_corpus, half_half(), estimator="monte-carlo", samples=100_000, seed=17
        )
        assert mc.sample_count == 100_000
        assert abs(mc.value - exact) <= 0.01

    @pytest.mark.parametrize("kwargs, message", [
        ({"estimator": "monte-carlo", "samples": 0}, "need at least 1 sample, got 0"),
        ({"estimator": "bootstrap"}, "unknown estimator 'bootstrap'"),
    ])
    def test_bad_estimator_arguments_rejected(self, aaab_corpus, half_half, kwargs, message):
        with pytest.raises(ValueError, match=message):
            training_advantage(IS_B, aaab_corpus, half_half(), **kwargs)


class TestGeneralizedAdvantage:
    def test_collapses_to_training_advantage_at_length_one(self, aaab_corpus, half_half):
        g = token_indicator(aaab_corpus.vocab, 2)
        beta = generalized_advantage(g, aaab_corpus, half_half())
        alpha = training_advantage(g, aaab_corpus, half_half())
        assert beta.value == pytest.approx(alpha.value, abs=1e-12)

    def test_constant_gives_zero(self, aaab_corpus, half_half):
        g = StepDistinguisher(lambda prefix: 0.4)
        assert generalized_advantage(g, aaab_corpus, half_half()).value == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_position_case(self, ab_vocab):
        # Single sequence "a b" under per-position-uniform conditionals:
        # position 1 contributes +1/2, position 2 contributes -1/2.
        corpus = Corpus(ab_vocab, 2, (Sequence.from_ids((1, 2), 2),))
        model = StubModel(ab_vocab, 2, [0.0, 0.5, 0.5])
        g = token_indicator(ab_vocab, 2)
        est = generalized_advantage(g, corpus, model)
        assert est.per_position == pytest.approx((0.5, -0.5))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_averages_to_value(self):
        rng = np.random.default_rng(9)
        vocab = make_vocab(4)
        corpus = random_corpus(rng, vocab, 3, 9)
        model = UniformModel(vocab, 3)
        g = token_indicator(vocab, 1)
        est = generalized_advantage(g, corpus, model)
        assert est.value == pytest.approx(sum(est.per_position) / 3, abs=1e-15)

    def test_a_corpus_without_positions_is_a_value_error(self, ab_vocab):
        # No sequence: there is no position to average over.  A corpus of
        # length 0 cannot be built (``Corpus`` refuses it).
        corpus = Corpus(ab_vocab, 2, np.ones((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="^empty corpus$"):
            generalized_advantage(token_indicator(ab_vocab, 1), corpus, UniformModel(ab_vocab, 2))


class TestBayesOptimal:
    def test_indicator_and_tvd(self):
        p, q = ab_table(0.75, 0.25), ab_table(0.5, 0.5)
        f = bayes_optimal_distinguisher(p, q)
        assert f((1,)) == 0.0
        assert f((2,)) == 1.0
        assert advantage_exact(f, p, q) == pytest.approx(total_variation(p, q), abs=1e-12)

    def test_identical_distributions(self):
        p = ab_table(0.6, 0.4)
        f = bayes_optimal_distinguisher(p, p)
        assert advantage_exact(f, p, p) == 0.0

    def test_disjoint_supports(self):
        p, q = ab_table(1.0, 0.0), ab_table(0.0, 1.0)
        f = bayes_optimal_distinguisher(p, q)
        assert advantage_exact(f, p, q) == pytest.approx(1.0)


class TestRatioBound:
    def test_identical_distributions_clamp(self):
        q = ab_table(0.5, 0.5)
        assert minimal_ratio_bound(q, q) == pytest.approx(1.0 + 1e-12)

    def test_hand_value(self):
        assert minimal_ratio_bound(ab_table(0.5, 0.5), ab_table(0.75, 0.25)) == pytest.approx(2.0)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="supports differ"):
            minimal_ratio_bound(ab_table(1.0, 0.0), ab_table(0.5, 0.5))


class TestLogRatioDistinguisher:
    def test_identical_models_give_half(self, half_half, aaab_corpus):
        f = log_ratio_distinguisher(half_half(), half_half(), C=2.0)
        for x in aaab_corpus.ids:
            assert f(x) == pytest.approx(0.5)

    def test_hand_computed_values_and_advantage_bound(self, ab_vocab, aaab_corpus, half_half):
        q = half_half()
        q2 = JointTable(ab_vocab, 1, np.array([0.0, 0.75, 0.25]))
        f = log_ratio_distinguisher(q, q2, C=2.0)
        assert f((1,)) == pytest.approx(0.2075187496)
        assert f((2,)) == pytest.approx(1.0)
        alpha = training_advantage(f, aaab_corpus, q).value
        assert alpha == pytest.approx(0.1981203, abs=1e-6)
        bound = (math.log(2) - 0.5623351446188083) / (2 * math.log(2))
        assert bound == pytest.approx(0.0943609, abs=1e-6)
        assert alpha >= bound - 1e-9

    def test_c_must_exceed_one(self, half_half):
        with pytest.raises(ValueError):
            log_ratio_distinguisher(half_half(), half_half(), C=1.0)

    def test_ratio_violation_detected(self, ab_vocab, half_half):
        q2 = JointTable(ab_vocab, 1, np.array([0.0, 0.9, 0.1]))
        f = log_ratio_distinguisher(half_half(), q2, C=1.5)  # true ratio needs C=5
        with pytest.raises(ValueError, match="ratio bound"):
            f((2,))

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.5])
    def test_c_must_be_finite_and_exceed_one(self, half_half, C):
        for make in (log_ratio_distinguisher, step_log_ratio):
            with pytest.raises(ValueError, match="C must be finite and exceed 1"):
                make(half_half(), half_half(), C)


# A fixed model and reference for the log-ratio kind: length 4 over a, b, c.
LR_VOCAB = make_vocab(4)
LR_Q = ngram_mle_fit(random_corpus(np.random.default_rng(5), LR_VOCAB, 4, 20), order=2, lam=0.3)
LR_REF = UniformModel(LR_VOCAB, 4)


class TestFromParams:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inverts_the_builtin_constructors(self, data):
        kind = data.draw(st.sampled_from(["token-indicator", "ngram-indicator", "log-ratio"]))
        vocab = LR_VOCAB if kind == "log-ratio" else make_vocab(data.draw(st.integers(1, 6)))
        n = vocab.n
        if kind == "token-indicator":
            g = token_indicator(vocab, data.draw(st.integers(0, n - 1)))
        elif kind == "ngram-indicator":
            tail = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
            g = ngram_indicator(vocab, tuple(tail[:-1]), tail[-1])
        else:
            C = data.draw(st.floats(1.0, 1e6, exclude_min=True))
            g = step_log_ratio(LR_Q, LR_REF, C)
        for _ in range(data.draw(st.integers(0, 3))):
            g = g.flipped()
        h = from_params(g.kind, list(g.params), vocab, LR_Q, LR_REF)
        assert (h.label, h.kind, h.params) == (g.label, g.kind, g.params)
        k, L = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 4))
        ids = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, n, (k, L))
        assert h.values(ids).tobytes() == g.values(ids).tobytes()

    @pytest.mark.parametrize("kind, params, message", [
        ("token-indicator", 5, "not a list"),
        ("token-indicator", (1,), "not a list"),
        ("token-indicator", [-1], "not token ids"),
        ("token-indicator", [4], "not token ids"),
        ("token-indicator", [1.5], "not token ids"),
        ("token-indicator", ["1"], "not token ids"),
        ("token-indicator", [True], "not token ids"),
        ("token-indicator", ["flip"], "not token ids"),
        ("token-indicator", [1, 2], "one token id, not 2"),
        ("ngram-indicator", [], "not token ids"),
        ("ngram-indicator", [1, "flip", 2], "not token ids"),
        ("log-ratio", [], "not one real C"),
        ("log-ratio", [2.0, 3.0], "not one real C"),
        ("log-ratio", ["2"], "not one real C"),
        ("log-ratio", [True], "not one real C"),
        ("log-ratio", [math.nan], "C must be finite"),
        ("log-ratio", [math.inf, "flip"], "C must be finite"),
        ("log-ratio", [0.5], "C must be finite"),
        ("telepathy", [1], "unknown distinguisher kind 'telepathy'"),
    ])
    def test_rejects_what_no_constructor_writes(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            from_params(kind, params, LR_VOCAB, LR_Q, LR_REF)

    def test_log_ratio_needs_a_model_and_a_reference(self):
        for q, ref in ((None, LR_REF), (LR_Q, None)):
            with pytest.raises(ValueError, match="needs a model and a reference"):
                from_params("log-ratio", [2.0], LR_VOCAB, q, ref)

    def test_each_flip_flips_once(self):
        g = from_params("token-indicator", [2, "flip", "flip"], LR_VOCAB)
        assert g.label == "1-(1-(token[b]))"
        assert g.values(np.array([[1, 2], [2, 1]])).tolist() == [1.0, 0.0]
