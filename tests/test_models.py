import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost.boost import (
    BoostConfig,
    ReweightedModel,
    TokenIndicatorOracle,
    best_indicator,
    make_oracle,
    run_boost,
)
from seqboost.checks import make_vocab, random_corpus, random_table
from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.distinguish import (
    Distinguisher,
    generalized_advantage,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
    training_advantage,
)
from seqboost.exact import JointTable, all_sequences, kl_divergence
from seqboost.models import (
    LogLinearModel,
    NGramModel,
    UniformModel,
    kl_gradient,
    log_loss,
    ngram_mle_fit,
    sample_many,
    sequence_log_probs,
)
from seqboost import serialize
from seqboost.serialize import load_model, model_from_text, model_to_text, save_model

from conftest import StubModel


def log_prob(model, ids):
    """The log-probability of one id sequence: ``sequence_log_probs`` on a 1-row array."""
    return float(sequence_log_probs(model, np.array([ids], dtype=np.int64))[0])


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

    def test_empty_corpus_rejected(self, aaab_corpus):
        empty = Corpus(aaab_corpus.vocab, aaab_corpus.length, np.zeros((0, aaab_corpus.length),
                                                                        dtype=np.int64))
        with pytest.raises(ValueError, match="empty corpus"):
            ngram_mle_fit(empty, order=1)

    def test_order_below_one_rejected(self, aaab_corpus):
        with pytest.raises(ValueError):
            ngram_mle_fit(aaab_corpus, order=0)

    def test_overflowing_row_sum_rejected_without_a_warning(self, aaab_corpus):
        # 1e308 is finite, but two content tokens smoothed by it sum past the
        # largest double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                ngram_mle_fit(aaab_corpus, order=1, lam=1e308)
            model = ngram_mle_fit(aaab_corpus, order=1, lam=1e307)
        np.testing.assert_allclose(model.next_token_dist(()), [0.0, 0.5, 0.5])

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
        lp = log_prob(model, (1, 2))
        assert lp == pytest.approx(math.log(0.25))

    def test_deterministic_model_gives_zero(self, ab_vocab):
        model = StubModel(ab_vocab, 2, [0.0, 1.0, 0.0])
        assert log_prob(model, (1, 1)) == 0.0

    def test_unseen_token_is_impossible(self, ab_vocab):
        # b is in the vocabulary but never observed; lam=0 leaves it at zero.
        train = Corpus(ab_vocab, 1, tuple(Sequence.from_ids((1,), 1) for _ in range(3)))
        model = ngram_mle_fit(train, order=1, lam=0.0)
        unseen = Corpus(ab_vocab, 1, (Sequence.from_ids((2,), 1),))
        assert log_prob(model, unseen.ids[0]) == -math.inf
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

    @pytest.mark.parametrize("entry", ["log_loss", "training_advantage", "generalized_advantage",
                                       "best_indicator", "run_boost"])
    @pytest.mark.parametrize("n, length, vocab", [(3, 1, None), (3, 3, None), (4, 2, None),
                                                  (3, 2, Vocabulary.build("xy"))])
    def test_a_corpus_outside_the_models_domain_is_refused(self, entry, n, length, vocab):
        # A 3-token model of length 2 against a corpus of another length or
        # vocabulary: each entry point names both domains instead of scoring
        # the corpus anyway (a silently wrong loss) or failing on an index.
        # Between vocabularies of one size it names the first token that differs.
        model = UniformModel(make_vocab(3), 2)
        corpus = random_corpus(np.random.default_rng(0), vocab or make_vocab(n), length, 6)
        g = token_indicator(model.vocab, 1)
        call = {
            "log_loss": lambda: log_loss(model, corpus),
            "training_advantage": lambda: training_advantage(g, corpus, model),
            "generalized_advantage": lambda: generalized_advantage(g, corpus, model),
            "best_indicator": lambda: best_indicator(model, corpus, 0),
            "run_boost": lambda: run_boost(model, corpus, TokenIndicatorOracle(), BoostConfig(0.01)),
        }[entry]
        want = (f"the corpus's domain ({n} tokens, length {length}) "
                "is not the model's (3 tokens, length 2)")
        if vocab is not None:
            want += ": its token 1 is 'x' where the model's is 'a'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call()


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
    AB = np.array([[1], [2]])  # the one-token sequences a and b
    VOCAB = Vocabulary.build(["a", "b"])

    def make_ab_model(self, theta):
        features = np.array([[0.0], [1.0]])  # 1 on b
        return LogLinearModel(self.AB, features, np.array([theta]), self.VOCAB)

    def test_zero_theta_partition_counts_domain(self):
        ids = np.array([[1, 0], [2, 0], [1, 1], [1, 2]])
        # 4 domain elements, zero parameters: Z is the domain size.
        model = LogLinearModel(ids, np.full((4, 1), 0.5), np.array([0.0]), self.VOCAB)
        assert model.length == 2
        assert math.exp(model.log_partition()) == pytest.approx(4.0)

    def test_single_feature_partition(self):
        model = self.make_ab_model(math.log(1 / 3))
        assert math.exp(model.log_partition()) == pytest.approx(1 + 1 / 3)

    def test_probs_match_hand_computation(self):
        model = self.make_ab_model(math.log(1 / 3))
        assert model.all_probs()[0] == pytest.approx(0.75)
        assert model.all_probs()[1] == pytest.approx(0.25)

    def test_zero_theta_uniform(self):
        model = self.make_ab_model(0.0)
        assert model.all_probs()[0] == pytest.approx(0.5)

    def test_probs_normalize(self):
        model = self.make_ab_model(1.7)
        assert model.all_probs().sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "ids, features, match",
        [
            ([[1], [2]], np.zeros((2, 2)), "feature dimension"),
            ([[1], [2]], np.zeros((3, 1)), "one feature row per domain row"),
            ([[1], [2]], np.zeros(2), "one feature row per domain row"),
            ([1, 2], np.zeros((2, 1)), r"\(k, N\) array"),
            ([[1], [1]], np.zeros((2, 1)), "twice"),
            (np.zeros((0, 1)), np.zeros((0, 1)), "empty domain"),
            ([[1], [2]], np.array([[0.5], [1.5]]), r"feature values must lie in \[0, 1\]"),
            ([[1], [2]], np.array([[-0.5], [1.0]]), r"feature values must lie in \[0, 1\]"),
        ],
    )
    def test_malformed_domain_or_features_rejected(self, ids, features, match):
        with pytest.raises(ValueError, match=match):
            LogLinearModel(np.array(ids), features, np.array([0.0]), self.VOCAB)

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
        with pytest.raises(ValueError, match=re.escape(
                "p's domain (4 tokens, length 1) is not the model's (3 tokens, length 1)")):
            kl_gradient(model, p)

    def test_out_of_range_domain_ids_are_rejected(self, ab_vocab):
        # Row (a, 5) would make kl_gradient read index 1 * 3 + 5 = 8, the
        # sequence b b: the model is refused before any gradient.
        ids, features = np.array([[1, 1], [1, 5]]), np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="token ids 0..2"):
            LogLinearModel(ids, features, np.array([0.0]), ab_vocab)
        with pytest.raises(ValueError, match="token ids 0..2"):
            LogLinearModel(-ids, features, np.array([0.0]), ab_vocab)

    def test_gradient_rejects_target_mass_outside_domain(self, ab_vocab):
        # The domain is a and b; the target puts mass on the pad sequence.
        model = self.make_ab_model(0.0)
        p = JointTable(ab_vocab, 1, np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError, match="mass outside the model domain"):
            kl_gradient(model, p)

    def test_unigram_indicators_reproduce_ngram_fit(self, aaab_corpus):
        mle = ngram_mle_fit(aaab_corpus, order=1, lam=0.0)
        theta = np.log(mle.next_token_dist(())[1:])
        model = LogLinearModel(self.AB, np.eye(2), theta, self.VOCAB)
        assert model.all_probs()[0] == pytest.approx(0.75, abs=1e-9)
        assert model.all_probs()[1] == pytest.approx(0.25, abs=1e-9)


class TestSampling:
    def test_deterministic_model(self, ab_vocab):
        model = StubModel(ab_vocab, 2, [0.0, 1.0, 0.0])
        assert sample_many(model, 1, 3)[0].tolist() == [1, 1]

    def test_same_seed_same_sequence(self):
        vocab = make_vocab(4)
        model = UniformModel(vocab, 3)
        assert sample_many(model, 1, 42)[0].tolist() == sample_many(model, 1, 42)[0].tolist()

    def test_uniform_frequency(self, ab_vocab):
        model = UniformModel(ab_vocab, 1)
        draws = sample_many(model, 10_000, 0)
        freq_a = float((draws[:, 0] == 1).mean())
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


def random_row(rng, n, shape):
    if shape == "distinct":
        row = rng.random(n) + 0.01
    elif shape == "equal":
        row = np.ones(n)
    elif shape == "zero-padded":
        row = rng.random(n) * (rng.random(n) < 0.5)
        row[rng.integers(n)] = 1.0
    else:  # the pad one-hot
        row = np.zeros(n)
        row[0] = 1.0
    return row / row.sum()


def random_bigram(rng, vocab, length):
    cond = {(): random_row(rng, vocab.n, "distinct")}
    cond.update({(t,): random_row(rng, vocab.n, "distinct") for t in range(vocab.n)})
    return NGramModel(vocab, length, 2, cond)


class TestNGramFile:
    """The sparse n-gram rows: ``context=<ids>|<fill>|<id>:<p> ...``."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 3),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.sampled_from(["distinct", "equal", "zero-padded", "pad-one-hot"]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_rows_round_trip_bit_for_bit(self, order, n, seed, shapes):
        rng = np.random.default_rng(seed)
        vocab = make_vocab(n)
        cond = {}
        for shape in shapes:
            ctx = tuple(int(t) for t in rng.integers(0, n, size=rng.integers(0, order)))
            cond[ctx] = random_row(rng, n, shape)
        model = NGramModel(vocab, 3, order, cond, lam=float(rng.random()))
        loaded = model_from_text(model_to_text(model))
        assert (loaded.order, loaded.lam, loaded.length, loaded.vocab) == (
            model.order, model.lam, model.length, model.vocab)
        assert loaded.cond.keys() == cond.keys()
        for ctx, row in cond.items():
            assert loaded.cond[ctx].tobytes() == row.tobytes()

    def test_dense_v1_file_still_loads(self):
        # The bigram fitted with lambda 0.5 on a a / a b / b at length 2, as v1 wrote it.
        text = "\n".join([
            "seqboost-model v1", "kind=ngram", "order=2", "lambda=0.5", "n=3", "length=2",
            "token=<pad>", "token=a", "token=b",
            "context=|0.1111111111111111 0.55555555555555558 0.33333333333333331",
            "context=1|0.14285714285714285 0.42857142857142855 0.42857142857142855",
            "context=2|0.59999999999999998 0.20000000000000001 0.20000000000000001",
        ])
        corpus = Corpus(
            make_vocab(3), 2,
            tuple(Sequence.from_ids(ids, 2) for ids in [(1, 1), (1, 2), (2,)]),
        )
        fitted = ngram_mle_fit(corpus, 2, 0.5)
        loaded = model_from_text(text)
        assert loaded.cond.keys() == fitted.cond.keys()
        for ctx, row in fitted.cond.items():
            assert loaded.cond[ctx].tobytes() == row.tobytes()

    def test_fitted_bigram_writes_its_seen_pairs_not_n_per_context(self):
        rng = np.random.default_rng(5)
        vocab = Vocabulary.build([f"w{i}" for i in range(100)])
        corpus = random_corpus(rng, vocab, 6, 80)  # about 280 tokens
        model = ngram_mle_fit(corpus, 2, 0.1)
        seen = {
            (seq.token_ids[j - 1 : j], seq.token_ids[j])
            for seq in corpus.sequences
            for j in range(corpus.length)
            if not (j and seq.token_ids[j - 1] == 0)
        }
        rows = [line for line in model_to_text(model).splitlines() if line.startswith("context=")]
        reals = sum(1 + line.count(":") for line in rows)
        # One fill per row, one pair per seen (context, token), at most one pad entry per row.
        assert reals <= len(seen) + 2 * len(rows)
        assert reals < vocab.n * len(rows) / 4


def reference_sparse_row(row):
    """The per-row writer the blocked one replaced."""
    values, counts = np.unique(row, return_counts=True)
    fill = values[np.argmax(counts)]
    ids = np.flatnonzero(row.view(np.int64) != fill.view(np.int64))
    pairs = " ".join(f"{i}:{p:.17g}" for i, p in zip(ids.tolist(), row[ids].tolist()))
    return f"{fill:.17g}|{pairs}"


def reference_parse_row(body, n, order):
    """The per-row reader the blocked one replaced: one ``context=`` line's body."""
    ctx_label, _, probs = body.partition("|")
    ctx = tuple(int(t) for t in ctx_label.split(",")) if ctx_label else ()
    if len(ctx) > order - 1 or not all(0 <= t < n for t in ctx):
        raise ValueError(f"bad context {ctx_label!r} for order {order} over {n} tokens")
    fill, sparse, pairs = probs.partition("|")
    if sparse:
        row = np.full(n, float(fill))
        split = [pair.split(":") for pair in pairs.split()]
        if any(len(pair) != 2 for pair in split):
            raise ValueError(f"context {ctx_label!r}: entries must be <id>:<p>")
        ids = [int(i) for i, _ in split]
        bounds = [-1] + ids + [n]
        if any(i >= j for i, j in zip(bounds, bounds[1:])):
            raise ValueError(f"context {ctx_label!r}: token ids must increase within 0..{n - 1}")
        row[ids] = [float(p) for _, p in split]
    else:
        row = np.array([float(p) for p in fill.split()])
        if row.size != n:
            raise ValueError(f"context {ctx_label!r} has {row.size} entries, not {n}")
    if not (np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-9):
        raise ValueError(f"context {ctx_label!r} is not a probability distribution")
    return ctx, row


def reference_model_text(model):
    """``model_to_text`` of an n-gram model, its rows written one at a time."""
    head = [line for line in model_to_text(model).splitlines() if not line.startswith("context=")]
    return "\n".join(head + [
        f"context={','.join(map(str, ctx))}|{reference_sparse_row(np.asarray(model.cond[ctx]))}"
        for ctx in sorted(model.cond)
    ])


def reference_rows(text, n, order):
    """The rows the per-row reader gives for a model text, in file order; a
    context listed twice is an error."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("context="):
            ctx, row = reference_parse_row(line[len("context="):], n, order)
            if ctx in rows:
                raise ValueError(f"context {ctx} listed twice")
            rows[ctx] = row
    return rows


# Entries that make ties, signed zeros, subnormals and rows of equal values.
ENTRY_POOL = [0.0, -0.0, 5e-324, 1e-310, 0.125, 0.25, 1 / 3, 0.1]


def tricky_row(rng, n):
    kind = rng.integers(4)
    if kind == 0:  # all entries equal
        return np.full(n, 1.0 / n)
    if kind == 1:  # a pad one-hot with both zeros
        row = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        row[rng.integers(n)] = 1.0
        return row
    row = rng.choice(ENTRY_POOL, size=n)
    if kind == 2:  # two most frequent values, tied
        row[: 2 * (n // 2)] = np.repeat(rng.choice(ENTRY_POOL, size=2, replace=False), n // 2)
        rng.shuffle(row)
    row[rng.integers(n)] = rng.random() + 1.0
    return row / row.sum()


def random_tricky_model(seed, n, order, contexts):
    rng = np.random.default_rng(seed)
    cond = {}
    for _ in range(contexts):
        ctx = tuple(int(t) for t in rng.integers(0, n, size=rng.integers(0, order)))
        cond[ctx] = tricky_row(rng, n)
    return NGramModel(make_vocab(n), 3, order, cond, lam=0.5)


class TestBlockedRows:
    """The blocked writer and reader against the per-row ones they replaced."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 40), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_same_bytes_as_the_per_row_writer_and_reader(self, n, order, contexts, per_block, seed):
        model = random_tricky_model(seed, n, order, contexts)
        with mock.patch.object(serialize, "BLOCK_ENTRIES", per_block * n):
            text = model_to_text(model)
            loaded = model_from_text(text)
        assert text == reference_model_text(model)
        expected = reference_rows(text, n, order)
        assert list(loaded.cond) == list(expected)
        for ctx, row in expected.items():
            assert loaded.cond[ctx].tobytes() == row.tobytes()
            assert loaded.cond[ctx].tobytes() == model.cond[ctx].tobytes()

    def test_ties_and_signed_zeros_pick_the_per_row_fill(self):
        rows = np.array([
            [0.25, 0.25, 0.125, 0.125, 0.25, 0.0],  # 0.25 three times
            [0.25, 0.125, 0.125, 0.25, 0.125, 0.125],  # 0.125 four times
            [0.5, 0.5, 0.0, -0.0, 0.0, -0.0],  # +-0.0 counted as one value
            [-0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
            [1 / 6] * 6,
            [0.5, 5e-324, 5e-324, 0.5, 5e-324, 0.0],  # a subnormal mode
            [np.nan, 0.5, np.nan, 0.5, 0.25, np.nan],  # NaNs counted as one value
        ])
        keys = [f"{i}:" for i in range(6)]
        assert serialize._sparse_rows(rows, keys) == [reference_sparse_row(r) for r in rows]
        assert serialize._sparse_rows(rows[:0], keys) == []  # an empty block

    @pytest.mark.parametrize("row", [
        "context=|0|0:1e999 1:-1e999 2:1",  # inf and -inf: no warning from their sum
        "context=|0|0:nan 1:1",
        "context=|0.25|0:0.25 3:0.25",  # a token id outside 0..n-1
        "context=|0.5|1:0.25 0:0.25",
        "context=|0.5|:0.5",
        "context=|0.25|0:0.25 99999999999999999999:0.5",  # an id past int64
        "context=|0.25|0 0.25:1:0.5",  # 0 and 2 colons; joined, they would read 0:0.25 1:0.5
        "context=|0.5 0.5",  # a short dense row summing to 1
        "context=|0.5 0.5 0 0",
    ])
    def test_malformed_rows_the_per_row_reader_rejects(self, row):
        text = "\n".join(["seqboost-model v2", "kind=ngram", "order=1", "lambda=0", "n=3",
                          "length=1", "token=<pad>", "token=a", "token=b", row])
        with pytest.raises(ValueError):
            reference_rows(text, 3, 1)
        with pytest.raises(ValueError):
            model_from_text(text)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 12), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.data())
    def test_a_row_the_per_row_reader_rejects_is_rejected(self, n, order, contexts, per_block,
                                                          seed, data):
        text = model_to_text(random_tricky_model(seed, n, order, contexts))
        lines = text.splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("context=")]
        i = data.draw(st.sampled_from(rows))
        body = lines[i][len("context="):]
        at = data.draw(st.integers(0, len(body)))
        char = data.draw(st.sampled_from(list("0123456789:|,. -e\t")) | st.just(""))
        cut = data.draw(st.integers(0, 2))
        lines[i] = "context=" + body[:at] + char + body[at + cut:]
        text = "\n".join(lines)
        try:
            expected = reference_rows(text, n, order)
        except ValueError:
            with pytest.raises(ValueError):
                with mock.patch.object(serialize, "BLOCK_ENTRIES", per_block * n):
                    model_from_text(text)
            return
        with mock.patch.object(serialize, "BLOCK_ENTRIES", per_block * n):
            loaded = model_from_text(text)
        assert list(loaded.cond) == list(expected)
        for ctx, row in expected.items():
            assert loaded.cond[ctx].tobytes() == row.tobytes()


class TestLogRatioFile:
    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0), st.booleans(), st.integers(0, 3), st.floats(1.5, 20.0),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_chain_with_log_ratio_factors_round_trips(self, n, length, seed, specs):
        # Built as run_boost builds it: each factor against the model so far,
        # appended by `extended`, whose rows are a fresh chain's bit for bit.
        vocab = make_vocab(n)
        reference = random_bigram(np.random.default_rng(seed), vocab, length)
        prefixes = [seq.token_ids for j in range(length) for seq in all_sequences(vocab, j)]
        model = ReweightedModel(UniformModel(vocab, length), [])
        for b, log_ratio, tok, C, flips in specs:
            if log_ratio:
                g = step_log_ratio(model, reference, C)
            else:
                g = token_indicator(vocab, tok % n)
            for _ in range(flips):
                g = g.flipped()
            for prefix in prefixes:
                model.next_token_dist(prefix)
            model = model.extended(b, g)
        loaded = model_from_text(model_to_text(model))
        for prefix in prefixes:
            np.testing.assert_array_equal(loaded.next_token_dist(prefix), model.next_token_dist(prefix))

    def test_a_log_ratio_factor_must_compare_the_chain_before_it(self, ab_vocab):
        base = UniformModel(ab_vocab, 2)
        ref, other = (random_bigram(np.random.default_rng(s), ab_vocab, 2) for s in (1, 2))
        with pytest.raises(ValueError, match="chain before it"):
            ReweightedModel(base, [(0.3, step_log_ratio(other, ref, 2.0))])
        # Custom distinguishers with the default label compare equal, and so do
        # tables with equal arrays; a level built on them is another chain.
        table = random_table(np.random.default_rng(3), ab_vocab, 2)
        twin_table = JointTable(ab_vocab, 2, table.probs.copy())
        ours = [(0.3, Distinguisher(values=lambda ids: (ids[..., -1] == 1).astype(float)))]
        theirs = [(0.3, Distinguisher(values=lambda ids: (ids[..., -1] == 1).astype(float)))]
        assert ours == theirs
        for level, scale in [(ReweightedModel(base, theirs), 1.0),
                             (ReweightedModel(base, ours), 0.9),
                             (ReweightedModel(twin_table, ours), 1.0)]:
            root = table if level.base is twin_table else base
            g = step_log_ratio(level, ref, 2.0)
            with pytest.raises(ValueError, match="chain before it"):
                ReweightedModel(root, ours + [(0.2, g)], scale)
            with pytest.raises(ValueError, match="chain before it"):
                ReweightedModel(root, ours, scale).extended(0.2, g)
        # The same objects: built at once, by extended, or from the base itself.
        level = ReweightedModel(table, ours)
        chain = ReweightedModel(table, ours + [(0.2, step_log_ratio(level, ref, 2.0))])
        level.extended(0.2, step_log_ratio(level, ref, 2.0))
        ReweightedModel(table, [(0.2, step_log_ratio(table, ref, 2.0))])
        # The chain's own factors at another scale compare other chains.
        ReweightedModel(chain, [])
        with pytest.raises(ValueError, match="chain before it"):
            ReweightedModel(chain, [], 0.9)

    def test_writer_refuses_factors_it_cannot_rebuild(self, ab_vocab):
        base = UniformModel(ab_vocab, 2)
        ref, other = (random_bigram(np.random.default_rng(s), ab_vocab, 2) for s in (1, 2))
        first = ReweightedModel(base, [(0.3, step_log_ratio(base, ref, 2.0))])
        two_refs = first.extended(0.2, step_log_ratio(first, other, 2.0))
        with pytest.raises(ValueError, match="more than one reference"):
            model_to_text(two_refs)
        custom = ReweightedModel(base, [(0.3, Distinguisher(lambda prefix: 0.5))])
        with pytest.raises(ValueError, match="cannot serialize a custom step distinguisher"):
            model_to_text(custom)

    def test_writer_refuses_a_model_type_it_has_no_format_for(self, ab_vocab):
        table = JointTable(ab_vocab, 1, np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError, match="cannot serialize model of type JointTable"):
            model_to_text(table)


def skewed_corpus(rng, vocab, length, m):
    """m sequences of 1..length content tokens drawn from one random unigram."""
    weights = rng.dirichlet(np.ones(vocab.n - 1))
    seqs = [Sequence.from_ids(rng.choice(np.arange(1, vocab.n), size=rng.integers(1, length + 1),
                                         p=weights).tolist(), length) for _ in range(m)]
    return Corpus(vocab, length, tuple(seqs))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["token-indicator", "ngram-indicator", "log-ratio"]),
       st.integers(3, 5), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_a_boosted_model_reads_back_with_the_traced_loss_and_rows(kind, n, length, seed):
    """A boosted model written and read back has the live model's corpus rows
    bit for bit, so its loss is the trace's final loss, with ==."""
    corpus = skewed_corpus(np.random.default_rng(seed), make_vocab(n), length, 24)
    if kind == "log-ratio":
        q0, reference = ngram_mle_fit(corpus, 1, 0.5), ngram_mle_fit(corpus, 2, 0.1)
    else:
        q0, reference = UniformModel(corpus.vocab, length), None
    model, trace = run_boost(q0, corpus, make_oracle(kind, 2, reference), BoostConfig(0.03))
    loaded = model_from_text(model_to_text(model))
    assert log_loss(loaded, corpus).log_loss == trace.records[-1].log_loss
    live = model.corpus_rows(corpus)
    assert loaded.corpus_rows(corpus).tobytes() == live.tobytes()
