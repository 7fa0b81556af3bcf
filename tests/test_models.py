import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost.boost import ReweightedModel
from seqboost.checks import make_vocab, random_corpus, random_table
from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.distinguish import ngram_indicator, token_indicator
from seqboost.exact import JointTable, all_sequences, kl_divergence
from seqboost.models import (
    LogLinearModel,
    UniformModel,
    kl_gradient,
    log_loss,
    ngram_mle_fit,
    sample_many,
    sample_sequence,
    sequence_log_prob,
)
from seqboost.serialize import load_model, model_from_text, model_to_text, save_model

from conftest import StubModel


def seq1(token_id):
    return Sequence.from_ids((token_id,), 1)


class TestNGramFit:
    def test_unsmoothed_unigram_counts(self, aaab_corpus):
        model = ngram_mle_fit(aaab_corpus, order=1, lam=0.0)
        np.testing.assert_allclose(model.next_token_dist(()), [0.0, 0.75, 0.25])

    def test_laplace_smoothing_over_content_tokens(self, aaab_corpus):
        # No padding occurs, so the smoothing alphabet is the 2 content tokens.
        model = ngram_mle_fit(aaab_corpus, order=1, lam=1.0)
        np.testing.assert_allclose(model.next_token_dist(()), [0.0, 4 / 6, 2 / 6])

    def test_unseen_context_uniform_fallback(self, aaab_corpus):
        model = ngram_mle_fit(aaab_corpus, order=2, lam=0.0)
        np.testing.assert_allclose(model.next_token_dist((2,)), [1 / 3, 1 / 3, 1 / 3])

    def test_order_below_one_rejected(self, aaab_corpus):
        with pytest.raises(ValueError):
            ngram_mle_fit(aaab_corpus, order=0)

    def test_pad_follows_pad(self):
        vocab = Vocabulary.build(["a", "b"])
        corpus = Corpus(vocab, 3, (Sequence.from_ids((1,), 3), Sequence.from_ids((1, 2, 1), 3)))
        model = ngram_mle_fit(corpus, order=2, lam=0.5)
        np.testing.assert_allclose(model.next_token_dist((1, 0)), [1.0, 0.0, 0.0])

    def test_mle_minimizes_training_loss(self):
        rng = np.random.default_rng(11)
        vocab = make_vocab(4)
        corpus = random_corpus(rng, vocab, 3, 12)
        mle = ngram_mle_fit(corpus, order=2, lam=0.0)
        base_loss = log_loss(mle, corpus).log_loss
        for _ in range(50):
            cond = {}
            for ctx, dist in mle.cond.items():
                noise = rng.random(vocab.n) * 0.05
                bumped = dist + noise * (dist > 0)  # keep the support intact
                cond[ctx] = bumped / bumped.sum()
            perturbed = type(mle)(vocab, corpus.length, mle.order, cond)
            assert log_loss(perturbed, corpus).log_loss >= base_loss - 1e-12


class TestSequenceLogProb:
    def test_uniform_pairs(self, ab_vocab):
        model = StubModel(ab_vocab, 2, [0.0, 0.5, 0.5])
        lp = sequence_log_prob(model, Sequence.from_ids((1, 2), 2))
        assert lp == pytest.approx(math.log(0.25))

    def test_deterministic_model_gives_zero(self, ab_vocab):
        model = StubModel(ab_vocab, 2, [0.0, 1.0, 0.0])
        assert sequence_log_prob(model, Sequence.from_ids((1, 1), 2)) == 0.0

    def test_unseen_token_is_impossible(self, ab_vocab):
        # b is in the vocabulary but never observed; lam=0 leaves it at zero.
        train = Corpus(ab_vocab, 1, tuple(Sequence.from_ids((1,), 1) for _ in range(3)))
        model = ngram_mle_fit(train, order=1, lam=0.0)
        unseen = Corpus(ab_vocab, 1, (Sequence.from_ids((2,), 1),))
        assert sequence_log_prob(model, unseen.sequences[0]) == -math.inf
        with pytest.raises(ValueError, match="sequence 0"):
            log_loss(model, unseen)


class TestLogLoss:
    def test_uniform_model(self, aaab_corpus, half_half):
        assert log_loss(half_half(), aaab_corpus).log_loss == pytest.approx(math.log(2))

    def test_mle_unigram(self, aaab_corpus):
        model = ngram_mle_fit(aaab_corpus, order=1, lam=0.0)
        expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        assert log_loss(model, aaab_corpus).log_loss == pytest.approx(expected)

    def test_empirical_model_loss_is_entropy(self):
        rng = np.random.default_rng(5)
        vocab = make_vocab(5)
        corpus = random_corpus(rng, vocab, 1, 40)
        model = ngram_mle_fit(corpus, order=1, lam=0.0)
        counts = np.zeros(vocab.n)
        for s in corpus.sequences:
            counts[s.token_ids[0]] += 1
        freq = counts / counts.sum()
        entropy = -sum(f * math.log(f) for f in freq if f > 0)
        assert log_loss(model, corpus).log_loss == pytest.approx(entropy, abs=1e-12)

    def test_report_mean_matches_entries(self, aaab_corpus, half_half):
        report = log_loss(half_half(), aaab_corpus)
        assert report.log_loss == pytest.approx(sum(report.per_sequence) / len(report.per_sequence))

    def test_loss_difference_tracks_kl(self):
        # On a large sample from tabular p, loss(q) - loss(q') converges to
        # KL(p||q) - KL(p||q').
        rng = np.random.default_rng(7)
        vocab = make_vocab(5)
        p = random_table(rng, vocab, 1)
        q = random_table(rng, vocab, 1)
        q2 = random_table(rng, vocab, 1)
        idx = rng.choice(p.probs.size, size=50_000, p=p.probs)
        corpus = Corpus(vocab, 1, tuple(Sequence.from_raw((int(i),)) for i in idx))
        observed = log_loss(q, corpus).log_loss - log_loss(q2, corpus).log_loss
        expected = kl_divergence(p, q) - kl_divergence(p, q2)
        assert observed == pytest.approx(expected, abs=0.02)


class TestConditionalContract:
    @pytest.mark.parametrize("seed", range(5))
    def test_distributions_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        vocab = make_vocab(4)
        corpus = random_corpus(rng, vocab, 3, 10)
        for model in (
            ngram_mle_fit(corpus, 2, 0.5),
            UniformModel(vocab, 3),
            random_table(rng, vocab, 3),
        ):
            for seq in corpus.sequences:
                for j in range(3):
                    dist = model.next_token_dist(seq.prefix(j))
                    assert dist.min() >= 0.0
                    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


class TestLogLinear:
    def make_ab_model(self, theta):
        domain = [seq1(1), seq1(2)]
        features = lambda x: np.array([1.0 if x.token_ids[0] == 2 else 0.0])
        return LogLinearModel(domain, features, np.array([theta]))

    def test_zero_theta_partition_counts_domain(self):
        domain = [seq1(i) for i in (1, 2)] + [
            Sequence.from_ids((i, j), 2) for i, j in ((1, 1), (1, 2))
        ]
        # 4 domain elements, zero parameters: Z is the domain size.
        features = lambda x: np.array([0.5])
        model = LogLinearModel(domain[:4], features, np.array([0.0]))
        assert math.exp(model.log_partition()) == pytest.approx(4.0)

    def test_single_feature_partition(self):
        model = self.make_ab_model(math.log(1 / 3))
        assert math.exp(model.log_partition()) == pytest.approx(1 + 1 / 3)

    def test_probs_match_hand_computation(self):
        model = self.make_ab_model(math.log(1 / 3))
        assert model.prob(seq1(1)) == pytest.approx(0.75)
        assert model.prob(seq1(2)) == pytest.approx(0.25)

    def test_zero_theta_uniform(self):
        model = self.make_ab_model(0.0)
        assert model.prob(seq1(1)) == pytest.approx(0.5)

    def test_probs_normalize(self):
        model = self.make_ab_model(1.7)
        assert model.all_probs().sum() == pytest.approx(1.0, abs=1e-9)

    def test_outside_domain_rejected(self):
        model = self.make_ab_model(0.0)
        with pytest.raises(ValueError, match="domain"):
            model.prob(Sequence.from_raw((0,)))

    def test_gradient_zero_when_model_equals_target(self, ab_vocab):
        model = self.make_ab_model(math.log(1 / 3))
        p = JointTable(ab_vocab, 1, np.array([0.0, 0.75, 0.25]))
        np.testing.assert_allclose(kl_gradient(model, p), [0.0], atol=1e-12)

    def test_gradient_is_advantage(self, ab_vocab):
        model = self.make_ab_model(0.0)  # uniform q
        p = JointTable(ab_vocab, 1, np.array([0.0, 0.75, 0.25]))
        np.testing.assert_allclose(kl_gradient(model, p), [0.25], atol=1e-12)

    def test_gradient_rejects_mismatched_domain(self):
        model = self.make_ab_model(0.0)
        other = Vocabulary.build(["a", "b", "c"])
        p = JointTable(other, 1, np.array([0.0, 0.5, 0.25, 0.25]))
        with pytest.raises(ValueError, match="domain"):
            kl_gradient(model, p)

    def test_unigram_indicators_reproduce_ngram_fit(self, aaab_corpus):
        mle = ngram_mle_fit(aaab_corpus, order=1, lam=0.0)
        domain = [seq1(1), seq1(2)]
        features = lambda x: np.array(
            [1.0 if x.token_ids[0] == 1 else 0.0, 1.0 if x.token_ids[0] == 2 else 0.0]
        )
        theta = np.log(mle.next_token_dist(())[1:])
        model = LogLinearModel(domain, features, theta)
        assert model.prob(seq1(1)) == pytest.approx(0.75, abs=1e-9)
        assert model.prob(seq1(2)) == pytest.approx(0.25, abs=1e-9)


class TestSampling:
    def test_deterministic_model(self, ab_vocab):
        model = StubModel(ab_vocab, 2, [0.0, 1.0, 0.0])
        assert sample_sequence(model, 3).token_ids == (1, 1)

    def test_same_seed_same_sequence(self):
        vocab = make_vocab(4)
        model = UniformModel(vocab, 3)
        assert sample_sequence(model, 42).token_ids == sample_sequence(model, 42).token_ids

    def test_uniform_frequency(self, ab_vocab):
        model = UniformModel(ab_vocab, 1)
        draws = sample_many(model, 10_000, 0)
        freq_a = sum(1 for s in draws if s.token_ids[0] == 1) / 10_000
        assert 0.47 <= freq_a <= 0.53


class TestSerialization:
    def test_ngram_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vocab = make_vocab(4)
        corpus = random_corpus(rng, vocab, 3, 8)
        model = ngram_mle_fit(corpus, 2, 0.5)
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        for seq in corpus.sequences:
            for j in range(3):
                np.testing.assert_array_equal(
                    loaded.next_token_dist(seq.prefix(j)), model.next_token_dist(seq.prefix(j))
                )

    def test_uniform_round_trip(self, tmp_path):
        vocab = make_vocab(3)
        model = UniformModel(vocab, 2)
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.next_token_dist((1,)), model.next_token_dist((1,)))

    def test_double_flip_round_trip(self, ab_vocab):
        g = token_indicator(ab_vocab, 1).flipped().flipped()
        model = ReweightedModel(UniformModel(ab_vocab, 2), [(0.3, g)])
        loaded = model_from_text(model_to_text(model))
        np.testing.assert_allclose(loaded.next_token_dist(()), [0.0, 0.426, 0.574], atol=1e-3)
        np.testing.assert_array_equal(loaded.next_token_dist(()), model.next_token_dist(()))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0), st.integers(0, 2), st.lists(st.integers(0, 3), max_size=2),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_reweighted_round_trip_keeps_conditionals(self, n, length, specs):
        # Token indicators (empty context) and n-gram indicators, each with 0-3 flips.
        vocab = make_vocab(n)
        factors = []
        for b, tok, ctx, flips in specs:
            tok, ctx = tok % n, tuple(t % n for t in ctx)
            g = ngram_indicator(vocab, ctx, tok) if ctx else token_indicator(vocab, tok)
            for _ in range(flips):
                g = g.flipped()
            factors.append((b, g))
        model = ReweightedModel(UniformModel(vocab, length), factors)
        loaded = model_from_text(model_to_text(model))
        for j in range(length):
            for seq in all_sequences(vocab, j):
                np.testing.assert_array_equal(
                    loaded.next_token_dist(seq.token_ids), model.next_token_dist(seq.token_ids)
                )

    def test_negative_weight_in_file_rejected(self, ab_vocab):
        model = ReweightedModel(UniformModel(ab_vocab, 1), [(0.3, token_indicator(ab_vocab, 1))])
        text = model_to_text(model).replace("factor=0.29999999999999999|", "factor=-0.3|")
        with pytest.raises(ValueError, match="flip"):
            model_from_text(text)
