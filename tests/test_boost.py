import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost.boost import (
    BoostConfig,
    BoostTrace,
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
    token_indicator,
)
from seqboost.exact import JointTable, enumerate_joint, total_variation
from seqboost.models import UniformModel, log_loss, ngram_mle_fit, prefix_conditionals


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

    def test_weights_whose_running_total_overflows_rejected(self, ab_vocab, half_half):
        g = token_indicator(ab_vocab, 2)
        model = ReweightedModel(half_half(), [(1e308, g)])
        for make in (lambda: model.extended(1e308, g.flipped()),
                     lambda: ReweightedModel(half_half(), [(1e308, g), (1e308, g.flipped())])):
            with pytest.raises(ValueError, match="running total inf is not finite"):
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
        cached = ReweightedModel(half_half(), [(0.5, g)])
        first = cached.next_token_dist(())
        known, _, logits = cached._memo[0]
        assert known.shape == (1, 0) and cached._rows(logits).tobytes() == first.tobytes()
        # Planted logits give what both forms return: the memo is read, not recomputed.
        logits[0] = [-math.inf, 0.0, 0.0]
        sentinel = np.array([0.0, 0.5, 0.5])
        np.testing.assert_array_equal(cached.next_token_dist(()), sentinel)
        np.testing.assert_array_equal(cached.conditionals(np.zeros((2, 0), dtype=np.int64)),
                                      [sentinel, sentinel])
        # In a block of several prefixes, the search finds the planted one's logits.
        cached.conditionals(np.array([[2], [1], [0], [1]]))
        known, _, logits = cached._memo[1]
        assert sorted(known.ravel().tolist()) == [0, 1, 2]
        logits[known.ravel().tolist().index(1)] = [-math.inf, 0.0, 0.0]
        got = cached.conditionals(np.array([[1], [2], [1]]))
        np.testing.assert_array_equal(got[[0, 2]], [sentinel, sentinel])
        assert got[1].tobytes() == cached.next_token_dist((2,)).tobytes()
        assert not np.array_equal(got[1], sentinel)
        fresh = ReweightedModel(half_half(), [(0.5, g)])
        assert fresh._memo == {}
        np.testing.assert_array_equal(fresh.next_token_dist(()), first)


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
    """A copy of the model with an empty ``prefix_slot``; it shares the memo."""
    out = copy.copy(model)
    out.prefix_slot = None
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
        Q, want_Q = prefix_conditionals(model, corpus), prefix_conditionals(bare(want_model), corpus)
        assert Q.tobytes() == want_Q.tobytes()


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


@pytest.fixture
def counted_conditionals(monkeypatch):
    """The number of ReweightedModel.conditionals calls so far, in a one-item list."""
    calls = [0]
    original = ReweightedModel.conditionals

    def conditionals(self, prefixes, memo=True):
        calls[0] += 1
        return original(self, prefixes, memo)

    monkeypatch.setattr(ReweightedModel, "conditionals", conditionals)
    return calls


def deep_corpus(seed=5):
    """80 lines of length 2-8 over 3 letters: a boost-deep-shaped corpus."""
    return random_corpus(np.random.default_rng(seed), make_vocab(4), 8, 80)


class TestOneArrayPerRound:
    @pytest.mark.parametrize("rounds", [1, 7, 60])
    def test_a_token_run_reads_each_model_once(self, counted_conditionals, rounds):
        corpus = deep_corpus()
        oracle = Capped(TokenIndicatorOracle(), rounds)
        model, trace = run_boost(UniformModel(corpus.vocab, 8), corpus, oracle,
                                 BoostConfig(1e-12, max_iters=rounds + 1))
        assert len(model.factors) == rounds and trace.termination == "indistinguishable"
        # N rows per round's new model, and N for the first proposal's start.
        assert counted_conditionals[0] == 8 * rounds + 8

    def test_indicator_oracles_number_contexts_once_per_corpus(self, monkeypatch):
        import seqboost.boost as boost

        calls = []
        original = boost.context_groups
        monkeypatch.setattr(boost, "context_groups",
                            lambda *args: calls.append(args[0]) or original(*args))
        corpus = deep_corpus()
        for oracle in (TokenIndicatorOracle(), NGramIndicatorOracle(3)):
            calls.clear()
            run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(oracle, 5),
                      BoostConfig(1e-12, max_iters=6))
            assert len(calls) == 1 and calls[0] is corpus.ids
            # Another corpus, even with equal ids, is counted anew.
            twin = Corpus(corpus.vocab, 8, corpus.ids.copy())
            oracle.propose(UniformModel(corpus.vocab, 8), twin)
            assert len(calls) == 2 and calls[1] is twin.ids

    def test_the_slot_is_read_only_and_keyed_by_the_ids_object(self, counted_conditionals):
        corpus = deep_corpus()
        model = ReweightedModel(UniformModel(corpus.vocab, 8), [(0.5, token_indicator(corpus.vocab, 1))])
        Q = prefix_conditionals(model, corpus)
        assert model.prefix_slot[0] is corpus.ids and model.prefix_slot[1] is Q
        assert not Q.flags.writeable
        with pytest.raises(ValueError):
            Q[0, 0, 0] = 1.0
        assert prefix_conditionals(model, corpus) is Q and counted_conditionals[0] == 8
        twin = Corpus(corpus.vocab, 8, corpus.ids.copy())
        twin_Q = prefix_conditionals(model, twin)
        assert twin_Q is not Q and counted_conditionals[0] == 16
        assert twin_Q.tobytes() == Q.tobytes() and model.prefix_slot[0] is twin.ids

    def test_extended_empties_the_parents_slot(self):
        corpus = deep_corpus()
        parent = ReweightedModel(UniformModel(corpus.vocab, 8), [])
        prefix_conditionals(parent, corpus)
        child = parent.extended(0.25, token_indicator(corpus.vocab, 2))
        assert parent.prefix_slot is None and child.prefix_slot is None

    def test_a_log_ratio_run_reads_its_reference_once_per_corpus(self):
        corpus = deep_corpus()
        reference = ngram_mle_fit(corpus, 2, 0.5)
        calls = []
        original = reference.conditionals
        reference.conditionals = lambda prefixes, memo=True: (
            calls.append(prefixes.shape[1]) or original(prefixes, memo))
        oracle = LogRatioOracle(reference)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus, Capped(oracle, 10),
                             BoostConfig(1e-12, max_iters=11))
        assert len(model.factors) == 10
        assert calls == list(range(8))  # N calls, one per position, not N per round
        # Another corpus, even with equal ids, is read anew.
        oracle.propose(model, Corpus(corpus.vocab, 8, corpus.ids.copy()))
        assert calls == list(range(8)) * 2

    def test_a_log_ratio_run_keeps_at_most_one_array(self):
        corpus = deep_corpus()
        reference = ngram_mle_fit(corpus, 2, 0.5)
        model, _ = run_boost(UniformModel(corpus.vocab, 8), corpus,
                             Capped(LogRatioOracle(reference), 12), BoostConfig(1e-12, max_iters=13))
        captured = [g.models[0] for _, g in model.factors]
        assert len(captured) == 12
        assert sum(m.prefix_slot is not None for m in captured + [model]) <= 1
