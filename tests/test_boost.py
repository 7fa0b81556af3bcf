import copy
import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqboost.boost
import seqboost.distinguish
from seqboost import checks
from seqboost.boost import (
    BoostConfig,
    BoostTrace,
    IterationBoundError,
    IterationRecord,
    LogRatioOracle,
    MaxItersExceededError,
    NGramIndicatorOracle,
    ReweightedModel,
    TokenIndicatorOracle,
    iteration_bound,
    make_oracle,
    reweight_whole,
    run_boost,
)
from seqboost.checks import make_vocab, random_corpus, random_table, stepwise_reweight_suite
from seqboost.corpus import Corpus, Vocabulary
from seqboost.distinguish import (
    Distinguisher,
    StepDistinguisher,
    generalized_advantage,
    step_log_ratio,
    token_indicator,
)
from seqboost.exact import JointTable, enumerate_joint, total_variation
from seqboost.models import UniformModel, log_loss, ngram_mle_fit
from seqboost.serialize import model_from_text, model_to_text

from conftest import ngram


def ab_table(pa, pb):
    return JointTable(Vocabulary.build(["a", "b"]), 1, np.array([0.0, pa, pb]))


class TestWholeReweight:
    def test_zero_weight_is_identity(self):
        q = ab_table(0.6, 0.4)
        f = Distinguisher(lambda x: 1.0 if x[0] == 2 else 0.0)
        np.testing.assert_allclose(reweight_whole(q, f, 0.0).probs, q.probs)

    def test_constant_distinguisher_is_identity(self):
        q = ab_table(0.6, 0.4)
        f = Distinguisher(lambda x: 0.5)
        np.testing.assert_allclose(reweight_whole(q, f, 1.3).probs, q.probs, atol=1e-12)

    def test_hand_computed_update(self):
        # Downweighting b by e^{-ln 3} turns (1/2, 1/2) into (3/4, 1/4).
        q = ab_table(0.5, 0.5)
        f = Distinguisher(lambda x: 1.0 if x[0] == 2 else 0.0)
        np.testing.assert_allclose(
            reweight_whole(q, f, math.log(3)).probs, [0.0, 0.75, 0.25], atol=1e-12
        )

    def test_negative_weight_rejected(self):
        q = ab_table(0.5, 0.5)
        with pytest.raises(ValueError):
            reweight_whole(q, Distinguisher(lambda x: 0.0), -0.1)

    def test_loss_drop_meets_quadratic_bound(self, aaab_corpus):
        # Reweighting uniform by a distinguisher with training advantage a
        # must cut the empirical loss by at least a^2 / 2.
        q = ab_table(0.5, 0.5)
        f = Distinguisher(lambda x: 1.0 if x[0] == 2 else 0.0)
        a = 0.25
        q2 = reweight_whole(q, f, a)
        new_loss = log_loss(q2, aaab_corpus).log_loss
        assert new_loss <= math.log(2) - a**2 / 2 + 1e-12


class TestStepwiseReweight:
    def test_zero_weight_is_identity(self, ab_vocab, half_half):
        g = token_indicator(ab_vocab, 2)
        model = ReweightedModel(half_half(), [(0.0, g)])
        np.testing.assert_allclose(model.next_token_dist(()), [0.0, 0.5, 0.5])

    def test_logistic_form_of_update(self, ab_vocab, half_half):
        b = 0.7
        g = token_indicator(ab_vocab, 2)
        model = ReweightedModel(half_half(), [(b, g)])
        expected_b = math.exp(-b) / (1 + math.exp(-b))
        np.testing.assert_allclose(
            model.next_token_dist(()), [0.0, 1 - expected_b, expected_b], atol=1e-12
        )

    def test_negative_weight_rejected(self, ab_vocab, half_half):
        with pytest.raises(ValueError, match="flip"):
            ReweightedModel(half_half(), [(-0.5, token_indicator(ab_vocab, 2))])

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_weight_that_is_not_finite_rejected(self, ab_vocab, half_half, b):
        with pytest.raises(ValueError, match="^weight must be finite$"):
            ReweightedModel(half_half(), [(b, token_indicator(ab_vocab, 2))])

    @pytest.mark.parametrize("b", [1e15, 1e308])
    def test_weights_whose_running_total_exceeds_2_to_the_23_rejected(self, b):
        # An indicator and its flip penalise every token alike, so the rows are
        # the base's.  At b = 1e15 one rounding unit of a logit is 0.125, and the
        # rows would come out as [0, 0.3208, 0.6792]; at 1e308 the total is inf.
        vocab = make_vocab(3)
        base = ngram(vocab, 2, 1, {(): np.array([0.0, 1 / 3, 2 / 3])})
        g = token_indicator(vocab, 1)
        at_bound = ReweightedModel(base, [(2.0**22, g), (2.0**22, g.flipped())])
        assert at_bound.weight_total == 2.0**23
        np.testing.assert_allclose(at_bound.next_token_dist(()), [0.0, 1 / 3, 2 / 3],
                                   rtol=0.0, atol=1e-9)
        half = ReweightedModel(base, [(min(b, 2.0**22), g)])
        for make in (lambda: half.extended(b, g.flipped()),
                     lambda: ReweightedModel(base, [(b, g), (b, g.flipped())])):
            with pytest.raises(ValueError, match=r"running total \S+ exceeds 2\*\*23"):
                make()

    @pytest.mark.parametrize("b, value", [(800.0, None), (1.0, 1000.0), (1.0, -1000.0)])
    def test_a_penalty_every_token_takes_leaves_the_base_row(self, ab_vocab, half_half, b, value):
        # Two factors that every token takes alike: an indicator and its flip,
        # or a constant g outside [0, 1].  exp(-800) and exp(-2000) underflow
        # and exp(2000) overflows, but each row is shifted by its largest logit
        # first, so fresh and carried rows are the base's, and the pad stays 0.
        if value is None:
            g = token_indicator(ab_vocab, 2)
            factors = [(b, g), (b, g.flipped())]
        else:
            factors = [(b, Distinguisher(lambda prefix: value, label="constant"))] * 2
        carried = ReweightedModel(half_half(), factors[:1])
        carried.next_token_dist(())  # memoised, so extended carries its logits
        for model in (ReweightedModel(half_half(), factors), carried.extended(*factors[1])):
            np.testing.assert_array_equal(model.next_token_dist(()), [0.0, 0.5, 0.5])

    def test_suite_with_an_infinite_min_slack_fails(self):
        # A zero partition scale makes every conditional infinite, so every
        # instance's slack is inf: nothing was shown, and the suite must fail.
        with np.errstate(divide="ignore", invalid="ignore"):
            result = stepwise_reweight_suite(count=3, partition_scale=0.0)
        assert result.min_slack == math.inf
        assert not result.passed

    @pytest.mark.parametrize("case", ["nan-once", "max-iters"])
    def test_suite_whose_slack_is_not_a_number_fails(self, monkeypatch, case):
        # One NaN TVD among ten Pinsker instances, or boosting runs that stop at
        # their round cap: neither shows the inequality, so the suite fails.
        if case == "nan-once":
            calls = []

            def tvd(p, q):
                calls.append(None)
                return math.nan if len(calls) == 4 else total_variation(p, q)

            monkeypatch.setattr(checks, "total_variation", tvd)
            result = checks.pinsker_suite(count=10)
            assert len(calls) == 10 and math.isnan(result.min_slack)
        else:

            def capped(*args):
                model, trace = run_boost(*args)
                trace.termination = "max-iters"
                return model, trace

            monkeypatch.setattr(checks, "run_boost", capped)
            result = checks.boost_termination_suite(count=3)
            assert result.min_slack == -math.inf
        assert result.passed is False

    def test_conditionals_stay_normalized(self):
        rng = np.random.default_rng(21)
        vocab = make_vocab(4)
        base = random_table(rng, vocab, 3)
        g = token_indicator(vocab, 1)
        model = ReweightedModel(base, [(0.8, g)])
        corpus = random_corpus(rng, vocab, 3, 6)
        for seq in corpus.sequences:
            for j in range(3):
                dist = model.next_token_dist(seq.prefix(j))
                assert dist.min() >= 0.0
                assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_tokens_stay_zero(self, ab_vocab):
        base = UniformModel(ab_vocab, 2)
        model = ReweightedModel(base, [(1.0, token_indicator(ab_vocab, 2))])
        assert model.next_token_dist(())[0] == 0.0
        np.testing.assert_allclose(model.next_token_dist((1, 0)), [1.0, 0.0, 0.0])

    def test_nested_factors_flatten(self, ab_vocab, half_half):
        g1 = token_indicator(ab_vocab, 1)
        g2 = token_indicator(ab_vocab, 2)
        model = ReweightedModel(ReweightedModel(half_half(), [(0.3, g1)]), [(0.4, g2)])
        assert isinstance(model.base, type(half_half()))
        assert [b for b, _ in model.factors] == [0.3, 0.4]

    def test_factor_order_commutes(self, ab_vocab, half_half):
        g1 = token_indicator(ab_vocab, 1)
        g2 = token_indicator(ab_vocab, 2)
        m12 = ReweightedModel(half_half(), [(0.3, g1), (0.4, g2)])
        m21 = ReweightedModel(half_half(), [(0.4, g2), (0.3, g1)])
        np.testing.assert_allclose(m12.next_token_dist(()), m21.next_token_dist(()), atol=1e-12)

    def test_joint_of_reweighted_model_normalizes(self):
        rng = np.random.default_rng(22)
        vocab = make_vocab(3)
        base = random_table(rng, vocab, 2)
        model = ReweightedModel(base, [(0.6, token_indicator(vocab, 2))])
        table = enumerate_joint(model)
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_memoization_returns_consistent_results(self, ab_vocab, half_half):
        g = token_indicator(ab_vocab, 2)
        cached = ReweightedModel(half_half(2), [(0.5, g)])
        first = cached.next_token_dist(())
        assert cached._slot is None  # conditionals adds nothing to the slot
        corpus = Corpus(ab_vocab, 2, np.array([[1, 0], [2, 1]]))
        rows = cached.corpus_rows(corpus)
        held, slot_rows, logits = cached._slot
        # One stack: the empty prefix at row 0, then the two 1-token prefixes.
        assert held is corpus and slot_rows is rows and logits.shape == rows.shape == (3, 3)
        assert rows[:1].tobytes() == cached._rows(logits[:1]).tobytes() == first.tobytes()
        # Rows and logits planted in the slot change no query: conditionals and
        # next_token_dist compute their rows, a fresh copy's bit for bit, and
        # leave the slot as it was.
        planted, planted_logits = np.tile([0.0, 0.5, 0.5], (3, 1)), np.zeros((3, 3))
        cached._slot = corpus, planted, planted_logits
        fresh = ReweightedModel(half_half(2), [(0.5, g)])
        for prefixes in (np.zeros((2, 0), dtype=np.int64), np.array([[1], [2], [1]]),
                         np.array([[0], [1], [0]])):
            want = fresh.conditionals(prefixes)
            assert cached.conditionals(prefixes).tobytes() == want.tobytes()
            for prefix, row in zip(map(tuple, prefixes.tolist()), want):
                assert cached.next_token_dist(prefix).tobytes() == row.tobytes()
                assert not np.array_equal(row, planted[0])
        assert cached._slot[0] is corpus and cached._slot[1] is planted
        assert cached._slot[2] is planted_logits and fresh._slot is None
        np.testing.assert_array_equal(fresh.next_token_dist(()), first)

    def test_a_corpus_without_sequences_reads_as_empty_rows(self, ab_vocab, half_half):
        empty = Corpus(ab_vocab, 2, np.zeros((0, 2), dtype=np.int64))
        g = token_indicator(ab_vocab, 2)
        for factors in ([], [(0.5, g)]):
            model = ReweightedModel(half_half(2), factors)
            assert model.corpus_rows(empty).shape == (0, 3)
            assert model.corpus_log_probs(empty).shape == (0,)
            # A slot of no prefixes changes no query.
            prefixes = np.array([[1], [2]])
            want = ReweightedModel(half_half(2), factors).conditionals(prefixes)
            assert model.conditionals(prefixes).tobytes() == want.tobytes()


class TestIterationBound:
    def test_hand_value(self):
        assert iteration_bound(math.log(2), 1, 0.1) == 139

    def test_zero_initial_loss(self):
        assert iteration_bound(0.0, 3, 0.1) == 0

    def test_halving_epsilon_quadruples_bound(self):
        big = iteration_bound(1.0, 2, 0.05)
        small = iteration_bound(1.0, 2, 0.1)
        assert big == pytest.approx(4 * small, abs=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_bound(1.0, 1, 0.0)
        with pytest.raises(ValueError):
            iteration_bound(1.0, 1, math.nan)
        with pytest.raises(ValueError):
            iteration_bound(-1.0, 1, 0.1)

    @pytest.mark.parametrize("epsilon", [1e-200, 1e-160])  # eps^2 is 0; the quotient is inf
    def test_a_bound_that_is_not_finite_raises(self, epsilon):
        assert issubclass(IterationBoundError, ValueError)
        message = re.escape(f"epsilon {epsilon!r} is too small")
        with pytest.raises(IterationBoundError, match=message):
            iteration_bound(1.0, 2, epsilon)

    def test_an_epsilon_whose_square_overflows_leaves_at_most_one_round(self):
        assert iteration_bound(1.0, 2, 1e150) == 1  # eps^2 = 1e300, still a float
        assert iteration_bound(1.0, 2, 1e200) == 1
        assert iteration_bound(0.0, 2, 1e200) == 0


class ConstantOracle:
    def propose(self, q, corpus):
        return StepDistinguisher(lambda prefix: 0.5, label="constant-half")


class TestRunBoost:
    def test_constant_oracle_terminates_immediately(self, aaab_corpus, half_half):
        model, trace = run_boost(half_half(), aaab_corpus, ConstantOracle(), BoostConfig(0.01))
        assert trace.termination == "indistinguishable"
        assert len(trace.records) == 1
        assert trace.records[0].b == pytest.approx(0.0, abs=1e-12)
        assert trace.records[0].log_loss == pytest.approx(math.log(2))
        np.testing.assert_allclose(model.next_token_dist(()), [0.0, 0.5, 0.5])

    def test_unigram_boosting_converges_to_empirical(self, aaab_corpus, half_half):
        model, trace = run_boost(
            half_half(), aaab_corpus, TokenIndicatorOracle(), BoostConfig(0.005)
        )
        assert trace.termination == "indistinguishable"
        table = enumerate_joint(model)
        target = ab_table(0.75, 0.25)
        assert total_variation(table, target) <= 0.02
        mle_loss = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        assert trace.records[-1].log_loss <= mle_loss + 0.01

    def test_each_iteration_meets_quadratic_drop(self, aaab_corpus, half_half):
        _, trace = run_boost(half_half(), aaab_corpus, TokenIndicatorOracle(), BoostConfig(0.01))
        n_pos = aaab_corpus.length
        prev = trace.initial_loss
        for rec in trace.records[:-1]:
            assert rec.log_loss <= prev - n_pos * rec.b**2 / 2 + 1e-9
            prev = rec.log_loss

    def test_loss_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(23)
        vocab = make_vocab(3)
        corpus = random_corpus(rng, vocab, 2, 12)
        _, trace = run_boost(
            UniformModel(vocab, 2), corpus, NGramIndicatorOracle(2), BoostConfig(0.02)
        )
        losses = [trace.initial_loss] + [r.log_loss for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_final_advantage_below_threshold(self, aaab_corpus, half_half):
        eps = 0.01
        model, trace = run_boost(
            half_half(), aaab_corpus, TokenIndicatorOracle(), BoostConfig(eps)
        )
        oracle = TokenIndicatorOracle()
        g = oracle.propose(model, aaab_corpus)
        assert generalized_advantage(g, aaab_corpus, model).value < eps

    def test_max_iters_raises_with_trace(self, aaab_corpus, half_half):
        with pytest.raises(MaxItersExceededError) as exc:
            run_boost(
                half_half(),
                aaab_corpus,
                TokenIndicatorOracle(),
                BoostConfig(1e-6, max_iters=1),
            )
        assert exc.value.trace.termination == "max-iters"
        assert len(exc.value.trace.records) == 1

    def test_log_ratio_oracle_reduces_loss(self, aaab_corpus, half_half):
        reference = ngram_mle_fit(aaab_corpus, order=1, lam=0.1)
        oracle = LogRatioOracle(reference)
        model, trace = run_boost(half_half(), aaab_corpus, oracle, BoostConfig(0.01))
        assert trace.records[-1].log_loss <= trace.initial_loss

    @pytest.mark.parametrize("vocab, length", [(Vocabulary.build("ab"), 3),
                                               (Vocabulary.build("xy"), 2)])
    def test_a_reference_outside_the_models_domain_is_refused(self, vocab, length):
        # Unchecked, a length-3 reference boosts into a model the loader refuses,
        # and one over x, y (as many tokens) scores an advantage: the oracle
        # refuses either before it reads a row of either model.
        rng = np.random.default_rng(5)
        q = UniformModel(Vocabulary.build("ab"), 2)
        corpus = random_corpus(rng, q.vocab, 2, 8)
        reference = ngram_mle_fit(random_corpus(rng, vocab, length, 8), 2, 0.5)
        want = (f"the reference's domain (3 tokens, length {length}) "
                "is not the model's (3 tokens, length 2)")
        if length == 2:
            want += ": its token 1 is 'x' where the model's is 'a'"
        oracle = make_oracle("log-ratio", reference=reference)
        with mock.patch.object(LogRatioOracle, "_bound", side_effect=AssertionError("a row read")):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                run_boost(q, corpus, oracle, BoostConfig(0.001))
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            generalized_advantage(step_log_ratio(q, reference, 2.0), corpus, q)


class TestTraceCsv:
    def test_header_and_zeroed_timings(self):
        trace = BoostTrace(
            initial_loss=1.0,
            records=[IterationRecord(0, 0.25, 0.9, 0.5, 0.25)],
            termination="indistinguishable",
        )
        text = trace.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "iter,b_t,log_loss,oracle_ms,eval_ms"
        assert lines[1] == "0,0.25,0.90000000000000002,0,0"

    def test_timings_opt_in(self):
        trace = BoostTrace(initial_loss=1.0, records=[IterationRecord(0, 0.25, 0.9, 0.5, 0.25)])
        line = trace.to_csv_text(include_timings=True).splitlines()[1]
        assert line.split(",")[3] == "500"


class TestOracleFactory:
    def test_kinds(self, half_half):
        assert isinstance(make_oracle("token-indicator"), TokenIndicatorOracle)
        assert isinstance(make_oracle("ngram-indicator", order=3), NGramIndicatorOracle)
        assert isinstance(make_oracle("log-ratio", reference=half_half()), LogRatioOracle)

    def test_log_ratio_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            make_oracle("log-ratio")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            make_oracle("quantum")


class TestBoostConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoostConfig(0.0)
        with pytest.raises(ValueError):
            BoostConfig(math.nan)
        with pytest.raises(ValueError):
            BoostConfig(0.1, max_iters=0)


# ---------------------------------------------------------------------------
# A round reads one conditional array: run_boost against the composition of
# its public pieces, and how often it reads the model.


def bare(model):
    """A copy of the model with an empty slot."""
    out = copy.copy(model)
    out._slot = None
    return out


def composed_run(q0, corpus, new_oracle, epsilon, cap):
    """run_boost's rounds from public pieces: a new oracle every round, and
    every call on a slotless copy of the model, so each reads its own rows."""
    model = ReweightedModel(q0, [])
    loss, records = log_loss(q0, corpus).log_loss, []
    for _ in range(cap):
        g = new_oracle().propose(bare(model), corpus)
        b = generalized_advantage(g, corpus, bare(model)).value
        if b < epsilon:
            records.append((b, loss, g.label))
            return model, records
        model = bare(model).extended(b, g)
        loss = log_loss(bare(model), corpus).log_loss
        records.append((b, loss, g.label))
    return model, records


class Recorder:
    def __init__(self, inner):
        self.inner, self.labels = inner, []

    def propose(self, q, corpus):
        g = self.inner.propose(q, corpus)
        self.labels.append(g.label)
        return g


class Capped:
    """The inner oracle's choice for ``rounds`` rounds, then the zero
    distinguisher, whose advantage is exactly 0."""

    def __init__(self, inner, rounds):
        self.inner, self.rounds = inner, rounds
        self.stop = Distinguisher(lambda prefix: 0.0, label="stop")

    def propose(self, q, corpus):
        self.rounds -= 1
        return self.inner.propose(q, corpus) if self.rounds >= 0 else self.stop


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_boost_is_the_composition_of_its_pieces_bit_for_bit(data):
    kind = data.draw(st.sampled_from(["token", "ngram-2", "ngram-3", "log-ratio"]))
    vocab = make_vocab(data.draw(st.integers(2, 4)))
    length = data.draw(st.integers(int(kind[-1]) if kind.startswith("ngram") else 1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    corpus = random_corpus(rng, vocab, length, data.draw(st.integers(2, 10)))
    order = data.draw(st.sampled_from([0, 1, 2]))
    q0 = ngram_mle_fit(corpus, order, 0.5) if order else UniformModel(vocab, length)
    if kind == "log-ratio":
        reference = ngram_mle_fit(corpus, 2, data.draw(st.sampled_from([0.1, 1.0])))
        make = lambda: LogRatioOracle(reference)  # noqa: E731
    elif kind == "token":
        make = TokenIndicatorOracle
    else:
        make = lambda: NGramIndicatorOracle(int(kind[-1]))  # noqa: E731
    epsilon, cap = data.draw(st.sampled_from([0.003, 0.01, 0.05])), 25
    want_model, want = composed_run(q0, corpus, make, epsilon, cap)
    oracle = Recorder(make())
    try:
        model, trace = run_boost(q0, corpus, oracle, BoostConfig(epsilon, max_iters=cap))
    except MaxItersExceededError as exc:
        model, trace = None, exc.trace
    assert trace.initial_loss == log_loss(q0, corpus).log_loss
    assert [(r.b, r.log_loss) for r in trace.records] == [(b, loss) for b, loss, _ in want]
    assert oracle.labels == [label for _, _, label in want]
    if model is not None:
        assert model.factors == want_model.factors
        rows, want_rows = model.corpus_rows(corpus), bare(want_model).corpus_rows(corpus)
        assert rows.tobytes() == want_rows.tobytes()


def test_an_impossible_sequence_on_the_round_loss_is_log_losss_error(aaab_corpus, half_half):
    """A distinguisher far outside [0, 1] drives b's conditional to 0, so the
    corpus's last sequence becomes impossible after the first round."""
    huge = Distinguisher(lambda prefix: 1000.0 * (prefix[-1] == 2), label="huge")

    class HugeOracle:
        def propose(self, q, corpus):
            return huge

    q0 = half_half()
    b = generalized_advantage(huge, aaab_corpus, ReweightedModel(q0, [])).value
    with pytest.raises(ValueError) as want:
        log_loss(ReweightedModel(q0, []).extended(b, huge), aaab_corpus)
    assert str(want.value) == "sequence 3 is impossible under the model (infinite loss)"
    with pytest.raises(ValueError) as got:
        run_boost(q0, aaab_corpus, HugeOracle(), BoostConfig(0.01))
    assert str(got.value) == str(want.value)


def count_calls(monkeypatch, name):
    """The number of calls of the ReweightedModel method ``name`` from now on, in a one-item list."""
    calls = [0]
    original = getattr(ReweightedModel, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ReweightedModel, name, counted)
    return calls


def count_module_calls(monkeypatch, name, *modules):
    """The number of calls of the function ``name``, bound in each of these
    modules, from now on, in a one-item list."""
    calls = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def counted_conditionals(monkeypatch):
    """The number of ReweightedModel.conditionals calls so far, in a one-item list."""
    return count_calls(monkeypatch, "conditionals")


def deep_corpus(seed=5):
    """80 lines of length 2-8 over 3 letters: a boost-deep-shaped corpus."""
    return random_corpus(np.random.default_rng(seed), make_vocab(4), 8, 80)


class TestOneArrayPerRound:
    @pytest.mark.parametrize("rounds", [1, 7, 60])
    def test_a_token_run_reads_each_model_once(self, monkeypatch, counted_conditionals, rounds):
        fresh_logits = count_calls(monkeypatch, "_logits")
        corpus = deep_corpus()
        q0, base_reads = UniformModel(corpus.vocab, 8), []
        original = q0.conditionals
        q0.conditionals = lambda prefixes: (
            base_reads.append(prefixes.shape[1]) or original(prefixes))
        oracle = Capped(TokenIndicatorOracle(), rounds)
        model, trace = run_boost(q0, corpus, oracle, BoostConfig(1e-12, max_iters=rounds + 1))
        assert len(model.factors) == rounds and trace.termination == "indistinguishable"
        # Whatever the number of rounds, the base is read twice per position:
        # the initial loss, and the factorless start's slot (the rows and their
        # log).  Every reweighted model's slot is carried from its parent's, so
        # no logits are computed afresh and no round asks for conditionals.
        assert base_reads == list(range(8)) * 2
        assert counted_conditionals[0] == 0 and fresh_logits[0] == 0

    def test_a_token_run_reads_an_ngram_base_twice_per_position(self):
        corpus, calls = deep_corpus(), []
        q0 = ngram_mle_fit(corpus, 2, 0.5)
        for name in ("conditionals", "token_probs"):  # its token_probs reads no conditionals
            original = getattr(q0, name)
            setattr(q0, name, lambda *args, original=original: (
                calls.append(args[0].shape[1]) or original(*args)))
        model, _ = run_boost(q0, corpus, Capped(TokenIndicatorOracle(), 5),
                             BoostConfig(1e-12, max_iters=6))
        # The initial loss reads each position once (token_probs); the
        # factorless start reads each length of distinct prefixes once and
        # takes the log of those rows; the base keeps no slot.
        assert len(model.factors) == 5 and calls == list(range(8)) * 2
        assert q0._slot is None

    @pytest.mark.parametrize("rounds", [1, 12])
    def test_a_log_ratio_run_reads_its_base_as_a_token_run_does(self, rounds):
        corpus = deep_corpus()
        q0, base_reads = UniformModel(corpus.vocab, 8), []
        original = q0.conditionals
        q0.conditionals = lambda prefixes: base_reads.append(prefixes.shape) or original(prefixes)
        oracle = Capped(LogRatioOracle(ngram_mle_fit(corpus, 1, 0.5)), rounds)
        model, _ = run_boost(q0, corpus, oracle, BoostConfig(1e-12, max_iters=rounds + 1))
        # The initial loss reads every position, the factorless start's slot
        # every distinct prefix; g's reads of q in the first round are that slot.
        assert len(model.factors) == rounds
        assert [L for _, L in base_reads] == list(range(8)) * 2
        assert sum(k for k, _ in base_reads) == corpus.m * 8 + sum(map(len, corpus.prefix_index[0]))

    @pytest.mark.parametrize("rounds", [1, 7, 60])
    def test_a_token_run_makes_one_rows_call_per_round(self, monkeypatch, rounds):
        calls = count_calls(monkeypatch, "_rows")
        corpus = deep_corpus()
        run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(TokenIndicatorOracle(), rounds),
                  BoostConfig(1e-12, max_iters=rounds + 1))
        # One gather for each round's new model; the factorless start reads its base.
        assert calls[0] == rounds

    @pytest.mark.parametrize("rounds", [1, 7, 60])
    def test_a_token_run_reads_each_g_once_per_length(self, monkeypatch, rounds):
        extension_calls = count_module_calls(
            monkeypatch, "extensions", seqboost.distinguish, seqboost.boost)
        reads = []

        class CountingReads:
            """The inner oracle's g, with a count of its ``values`` calls."""

            def propose(self, q, corpus):
                g, t = inner.propose(q, corpus), len(reads)
                reads.append(0)

                def values(ids):
                    reads[t] += 1
                    return g.values(ids)

                return dataclasses.replace(g, values=values)

        inner = Capped(TokenIndicatorOracle(), rounds)
        corpus = deep_corpus()
        run_boost(UniformModel(corpus.vocab, 8), corpus, CountingReads(),
                  BoostConfig(1e-12, max_iters=rounds + 1))
        # Every round's g, the last round's stop included, is read N times, once
        # per length in generalized_advantage; extended carries those reads into
        # the child's memo instead of reading g again.
        assert reads == [8] * (rounds + 1)
        assert extension_calls[0] == 8 * (rounds + 1)

    @pytest.mark.parametrize("kind", ["token", "ngram-3", "log-ratio", "log-ratio-reweighted"])
    def test_rounds_make_no_conditionals_call(self, counted_conditionals, kind):
        corpus = deep_corpus()
        if kind == "log-ratio":
            inner = LogRatioOracle(ngram_mle_fit(corpus, 1, 0.5))
        elif kind == "log-ratio-reweighted":
            reference, _ = run_boost(UniformModel(corpus.vocab, 8), corpus,
                                     TokenIndicatorOracle(), BoostConfig(0.01))
            inner = LogRatioOracle(reference)
        else:
            inner = TokenIndicatorOracle() if kind == "token" else NGramIndicatorOracle(3)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(inner, 30),
                             BoostConfig(1e-12, max_iters=31))
        # Every reweighted model's slot, the reference's included, is filled
        # or carried from its parent's for the run's corpus, and every reader
        # (a log-ratio g's reads too) takes its rows, so no round asks for
        # conditionals.
        assert len(model.factors) == 30 and counted_conditionals[0] == 0
        shape = (sum(map(len, corpus.prefix_index[0])), corpus.vocab.n)
        held, rows, logits = model._slot
        assert held is corpus and rows.shape == logits.shape == shape

    @pytest.mark.parametrize("rounds", [12, 54])
    def test_a_log_ratio_run_normalises_each_distinct_prefix_once_per_factor(
            self, monkeypatch, rounds):
        normalised = []
        original = ReweightedModel._rows
        monkeypatch.setattr(ReweightedModel, "_rows", lambda self, logits: (
            normalised.append(len(logits)) or original(self, logits)))
        corpus = deep_corpus()
        oracle = Capped(LogRatioOracle(ngram_mle_fit(corpus, 1, 0.5)), rounds)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus, oracle,
                             BoostConfig(1e-12, max_iters=rounds + 1))
        # Each reweighted model normalises the logits of the corpus's K distinct
        # prefixes once; each round's log-ratio reads are ``log_ratio`` of those
        # rows and the reference's.
        assert len(model.factors) == rounds
        assert sum(normalised) <= rounds * sum(map(len, corpus.prefix_index[0]))

    def test_indicator_cells_are_counted_once_per_corpus_across_oracles(self, monkeypatch):
        import seqboost.corpus

        calls = []
        original = seqboost.corpus.context_groups
        monkeypatch.setattr(seqboost.corpus, "context_groups",
                            lambda *args: calls.append(args[1]) or original(*args))
        corpus = deep_corpus()
        for oracle in (TokenIndicatorOracle(), NGramIndicatorOracle(3), NGramIndicatorOracle(1),
                       NGramIndicatorOracle(3)):
            run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(oracle, 5),
                      BoostConfig(1e-12, max_iters=6))
        # One numbering per context length, whichever oracle asked first.
        assert calls == [0, 2]
        # Another corpus, even with equal ids, is counted anew.
        twin = Corpus(corpus.vocab, 8, corpus.ids.copy())
        TokenIndicatorOracle().propose(UniformModel(corpus.vocab, 8), twin)
        assert calls == [0, 2, 0]
        contexts, cell, counts = corpus.indicator_cells(2)
        assert corpus.indicator_cells(2)[1] is cell
        assert not cell.flags.writeable and not counts.flags.writeable

    def test_the_slot_is_read_only_keyed_by_the_corpus_and_emptied_by_extended(
            self, monkeypatch, counted_conditionals):
        fresh_logits = count_calls(monkeypatch, "_logits")
        corpus = deep_corpus()
        model = ReweightedModel(UniformModel(corpus.vocab, 8), [(0.5, token_indicator(corpus.vocab, 1))])
        rows = model.corpus_rows(corpus)
        assert fresh_logits[0] == 8  # one block of fresh logits per length
        assert model._slot[0] is corpus and model._slot[1] is rows
        assert rows.shape == (sum(map(len, corpus.prefix_index[0])), corpus.vocab.n)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert model.corpus_rows(corpus) is rows and counted_conditionals[0] == 0
        twin = Corpus(corpus.vocab, 8, corpus.ids.copy())
        twin_rows = model.corpus_rows(twin)
        # The slot holds one corpus: the twin's rows are fresh logits, the same bits.
        assert twin_rows is not rows and counted_conditionals[0] == 0 and fresh_logits[0] == 16
        assert twin_rows.tobytes() == rows.tobytes() and model._slot[0] is twin
        assert not twin_rows.flags.writeable
        child = model.extended(0.25, token_indicator(corpus.vocab, 2))
        assert model._slot is None and child._slot is None

    def test_extended_empties_the_parents_slot(self):
        corpus = deep_corpus()
        parent = ReweightedModel(UniformModel(corpus.vocab, 8), [])
        parent.corpus_rows(corpus)
        child = parent.extended(0.25, token_indicator(corpus.vocab, 2))
        assert parent._slot is None and child._slot is None

    def test_a_log_ratio_run_reads_its_reference_once_per_corpus(self):
        corpus = deep_corpus()
        reference = ngram_mle_fit(corpus, 2, 0.5)
        calls = []
        original = reference.conditionals
        reference.conditionals = lambda prefixes: (
            calls.append(prefixes.shape[1]) or original(prefixes))
        oracle = LogRatioOracle(reference)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(oracle, 10),
                             BoostConfig(1e-12, max_iters=11))
        assert len(model.factors) == 10
        assert calls == list(range(8))  # N calls, one per position, not N per round
        # Another corpus, even with equal ids, is read anew: once per position
        # for the reference's slot, and once per position for the fresh logits
        # that replace the chain's slot, which read each reference once.
        twin = Corpus(corpus.vocab, 8, corpus.ids.copy())
        oracle.propose(model, twin)
        assert sorted(calls[8:]) == sorted(list(range(8)) * 2)
        assert model._slot[0] is twin and reference._slot[0] is twin

    def test_a_log_ratio_runs_reference_keeps_the_corpus_in_its_own_slot(self):
        corpus = deep_corpus()
        reference, calls = ngram_mle_fit(corpus, 3, 0.5), []
        original = reference.conditionals
        reference.conditionals = lambda prefixes: calls.append(prefixes) or original(prefixes)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus,
                             Capped(LogRatioOracle(reference), 10), BoostConfig(1e-12, max_iters=11))
        # The reference fills its slot with one call per length, on the distinct
        # prefixes, and every later round reads the slot.
        assert len(model.factors) == 10 and reference._slot[0] is corpus
        assert [p.tobytes() for p in calls] == [p.tobytes() for p in corpus.prefix_index[0]]
        assert reference.corpus_rows(corpus) is reference._slot[1] and len(calls) == corpus.length

    def test_a_log_ratio_run_keeps_at_most_one_array(self):
        corpus = deep_corpus()
        reference = ngram_mle_fit(corpus, 2, 0.5)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus,
                             Capped(LogRatioOracle(reference), 12), BoostConfig(1e-12, max_iters=13))
        captured = [g.models[0] for _, g in model.factors]
        assert len(captured) == 12
        # The slot is handed down for the run's corpus, and each parent lets go
        # of its own: only the last model holds one.
        assert model._slot[0] is corpus
        assert all(m._slot is None for m in captured)
        # A level model asked again recomputes its rows, bit for bit a fresh copy's.
        level = captured[6]
        fresh = ReweightedModel(level.base, level.factors)
        assert level.corpus_rows(corpus).tobytes() == fresh.corpus_rows(corpus).tobytes()

    def test_a_reloaded_log_ratio_chain_reads_no_level_model(self):
        corpus = deep_corpus()
        reference = ngram_mle_fit(corpus, 2, 0.5)
        model, trace = run_boost(UniformModel(corpus.vocab, 8), corpus,
                                 Capped(LogRatioOracle(reference), 40), BoostConfig(1e-12, max_iters=41))
        loaded = model_from_text(model_to_text(model))
        levels = [g.models[0] for _, g in loaded.factors]
        assert len(levels) == 40 and loaded not in levels

        def refuse(*args):
            raise AssertionError("a level model was read")

        # Each log-ratio factor reads the rows the chain has just computed, so
        # no level model is asked for rows, and nothing recomputes earlier factors.
        for level in levels:
            level.conditionals = level.token_probs = refuse
        assert log_loss(loaded, corpus).log_loss == trace.records[-1].log_loss

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_chain_builds_extensions_only_for_a_factor_without_a_rule(self, monkeypatch, mixed):
        corpus = random_corpus(np.random.default_rng(3), make_vocab(3), 4, 30)
        model, _ = run_boost(UniformModel(corpus.vocab, 4), corpus,
                             Capped(LogRatioOracle(ngram_mle_fit(corpus, 2, 0.5)), 5),
                             BoostConfig(1e-12, max_iters=6))
        if mixed:
            model = model.extended(0.25, token_indicator(corpus.vocab, 1))
        calls = count_module_calls(monkeypatch, "extensions", seqboost.distinguish, seqboost.boost)
        enumerate_joint(model)
        # A comparison factor reads rows, never the (k, n, L + 1) token extensions.
        assert len(model.factors) == 5 + mixed
        assert (calls[0] > 0) == mixed

    def test_a_reloaded_log_ratio_chain_reads_its_reference_once_per_length(self):
        corpus = deep_corpus()
        model, trace = run_boost(UniformModel(corpus.vocab, 8), corpus,
                                 Capped(LogRatioOracle(ngram_mle_fit(corpus, 2, 0.5)), 20),
                                 BoostConfig(1e-12, max_iters=21))
        loaded = model_from_text(model_to_text(model))
        (reference,) = {id(g.models[1]): g.models[1] for _, g in loaded.factors}.values()
        calls, original = [], reference.conditionals
        reference.conditionals = lambda prefixes: calls.append(prefixes) or original(prefixes)
        assert log_loss(loaded, corpus).log_loss == trace.records[-1].log_loss
        # The 20 factors share one read of the distinct prefixes of each length.
        assert len(loaded.factors) == 20
        assert [p.tobytes() for p in calls] == [p.tobytes() for p in corpus.prefix_index[0]]
