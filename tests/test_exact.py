import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost import checks, exact
from seqboost.checks import make_vocab, random_table
from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.distinguish import (
    Distinguisher,
    advantage_exact,
    bayes_optimal_distinguisher,
    minimal_ratio_bound,
)
from seqboost.exact import (
    BudgetExceededError,
    JointTable,
    all_ids,
    all_indicator_distinguishers,
    all_sequences,
    cross_entropy,
    distinguishability_exhaustive,
    enumerate_joint,
    finite_diff_gradient,
    kl_divergence,
    sequence_index,
    total_variation,
)
from seqboost.models import LogLinearModel, UniformModel, kl_gradient, log_loss, sequence_log_probs

from conftest import StubModel


def ab_table(pa, pb):
    return JointTable(Vocabulary.build(["a", "b"]), 1, np.array([0.0, pa, pb]))


def test_enumerate_uniform_pairs(ab_vocab):
    model = StubModel(ab_vocab, 2, [0.0, 0.5, 0.5])
    table = enumerate_joint(model)
    by_ids = {tuple(ids): p for ids, p in zip(table.ids.tolist(), table.probs)}
    for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert by_ids[pair] == pytest.approx(0.25)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_enumerate_matches_product_rule():
    rng = np.random.default_rng(0)
    vocab = make_vocab(3)
    model = random_table(rng, vocab, 2)
    table = enumerate_joint(model)
    for lp, p in zip(sequence_log_probs(model, table.ids).tolist(), table.probs):
        assert p == pytest.approx(math.exp(lp), rel=1e-9)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)


@st.composite
def tables(draw):
    """Random tables, n in 2..5 and N in 1..3; some give a first token no mass."""
    n, length = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n**length, max_size=n**length)))
    block = n ** (length - 1)
    if length > 1 and draw(st.booleans()):
        t = draw(st.integers(0, n - 1))
        weights[t * block : (t + 1) * block] = 0.0
    if weights.sum() <= 0.0:
        weights[-1] = 1.0
    return JointTable(make_vocab(n), length, weights / weights.sum())


@settings(deadline=None, max_examples=60)
@given(tables())
def test_joint_table_is_a_sequential_model(table):
    n = table.vocab.n
    for j in range(table.length):
        for seq in all_sequences(table.vocab, j):
            dist = table.next_token_dist(seq.token_ids)
            assert dist.shape == (n,) and dist.min() >= 0.0
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(enumerate_joint(table).probs, table.probs, rtol=0, atol=1e-12)
    assert table.ids.shape == (n**table.length, table.length)
    assert [tuple(ids) for ids in table.ids.tolist()] == [
        seq.token_ids for seq in all_sequences(table.vocab, table.length)
    ]
    indices = sequence_index(table.vocab, table.ids)
    np.testing.assert_array_equal(indices, np.arange(n**table.length))
    for i, ids in enumerate(table.ids.tolist()):
        assert sequence_index(table.vocab, tuple(ids)) == i
        seq = Sequence.from_raw(ids)
        assert table.probs[sequence_index(table.vocab, seq.token_ids)] == table.probs[i]


def test_zero_mass_prefix_has_uniform_conditional(ab_vocab):
    table = JointTable(ab_vocab, 2, np.array([0, 0, 0, 0.5, 0, 0.5, 0, 0, 0.0]))
    np.testing.assert_array_equal(table.next_token_dist((2,)), np.full(3, 1 / 3))
    np.testing.assert_array_equal(table.next_token_dist((1,)), [0.5, 0.0, 0.5])
    np.testing.assert_array_equal(table.next_token_dist(()), [0.0, 1.0, 0.0])


@st.composite
def spiky_tables(draw):
    """Random tables, n in 2..5 and N in 1..3, whose entries are 0 or span 30
    decades: a cumulative sum would lose the small ones."""
    n, length = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    entry = st.one_of(st.just(0.0), st.builds(lambda x, e: x * 10.0**-e,
                                              st.floats(1.0, 10.0), st.integers(0, 30)))
    weights = np.array(draw(st.lists(entry, min_size=n**length, max_size=n**length)))
    if weights.sum() <= 0.0:
        weights[0] = 1.0
    return JointTable(make_vocab(n), length, weights / weights.sum())


@settings(deadline=None, max_examples=100)
@given(st.one_of(tables(), spiky_tables()))
def test_every_level_is_its_block_masses_normalised(table):
    n, N = table.vocab.n, table.length
    for length in range(N):
        width = n ** (N - length - 1)
        for i, cond in enumerate(table.conditionals(all_ids(n, length)).tolist()):
            masses = [math.fsum(table.probs[(i * n + t) * width:(i * n + t + 1) * width])
                      for t in range(n)]
            total = math.fsum(masses)
            want = [m / total for m in masses] if total > 0 else [1.0 / n] * n
            np.testing.assert_allclose(cond, want, rtol=1e-12, atol=0)


@settings(deadline=None, max_examples=100)
@given(st.one_of(tables(), spiky_tables()))
def test_enumerate_joint_keeps_every_positive_entry(table):
    probs = enumerate_joint(table).probs
    positive = table.probs >= np.finfo(float).tiny  # a subnormal p has too few bits for rtol
    np.testing.assert_allclose(probs[positive], table.probs[positive], rtol=1e-12, atol=0)
    np.testing.assert_allclose(probs, table.probs, rtol=0, atol=1e-12)


def test_a_tiny_mass_is_not_lost():
    vocab = make_vocab(3)
    table = JointTable(vocab, 2, [0.5, 0.2, 0.3 - 1e-20, 0, 0, 0, 0, 0, 1e-20])
    np.testing.assert_array_equal(table.next_token_dist((2,)), [0.0, 0.0, 1.0])
    assert enumerate_joint(table).probs[-1] == pytest.approx(1e-20, rel=1e-12)
    loss = log_loss(table, Corpus(vocab, 2, np.array([[2, 2]])))
    assert loss.log_loss == pytest.approx(-math.log(1e-20), rel=1e-12)  # about 46.0517


def test_zero_mass_prefixes_stay_uniform_without_a_warning(ab_vocab):
    # Prefixes (1,) and (2, 1) have no mass, and with them (1, t) for every t.
    probs = np.zeros(27)
    probs[[0, 20, 26]] = [0.25, 0.25, 0.5]  # (0,0,0), (2,0,2), (2,2,2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        table = JointTable(ab_vocab, 3, probs)
        for prefix in [(1,), (2, 1), (1, 0), (1, 2)]:
            np.testing.assert_array_equal(table.next_token_dist(prefix), np.full(3, 1 / 3))
        np.testing.assert_allclose(table.next_token_dist((2,)), [1 / 3, 0.0, 2 / 3], rtol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_joint_table_rejects_non_finite_probabilities(ab_vocab, bad):
    with pytest.raises(ValueError, match="non-finite"):
        JointTable(ab_vocab, 1, [bad, 0.5, 0.5])


@pytest.mark.parametrize("length, probs, message", [
    (1, [0.5, math.nan, 0.5], "non-finite probability"),
    (1, [0.5, 0.5, math.inf], "non-finite probability"),
    (1, [-math.inf, 0.5, 0.5], "non-finite probability"),
    (1, [math.inf, -math.inf, 1.0], "non-finite probability"),
    (1, [-1.0, math.inf, 2.0], "non-finite probability"),  # checked before the sign
    (1, [0.0, 1e308, 1e308], "probabilities do not sum to 1"),  # finite, but the sum overflows
    (2, [1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0, 1.0], "negative probability"),
    (1, [-1e-11, 0.5, 0.5 + 1e-11], "negative probability"),
    (1, [-1e-13, 0.5, 0.5 + 1e-13], None),
    (1, [0.5, 0.25, 0.125], "probabilities do not sum to 1"),
    (1, [0.5, 0.5], "need 3 probabilities, got (2,)"),
    (1, [[0.0, 0.5, 0.5]], "need 3 probabilities, got (1, 3)"),
])
def test_joint_table_checks_in_order_with_their_messages(ab_vocab, length, probs, message):
    # An overflowing sum warns, as a plain sum does; the error is what is checked.
    with np.errstate(over="ignore"):
        if message is None:
            assert JointTable(ab_vocab, length, probs).probs.tolist() == probs
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                JointTable(ab_vocab, length, probs)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("length", range(0, 5))
def test_all_ids_are_the_product_rows(n, length):
    ids = all_ids(n, length)
    assert ids.dtype == np.int64 and ids.shape == (n**length, length)
    assert ids.tolist() == [list(row) for row in itertools.product(range(n), repeat=length)]
    if n**length <= exact.SHARED_DOMAIN_ROWS:  # built once, shared and read-only
        assert all_ids(n, length) is ids
        assert JointTable(make_vocab(n), length, np.full(n**length, 1.0 / n**length)).ids is ids
        with pytest.raises(ValueError, match="read-only"):
            ids[...] = 0
    else:  # built afresh on every call, and writable
        assert ids.flags.writeable and all_ids(n, length) is not ids


def test_a_domain_above_the_bound_is_not_retained():
    kept = weakref.ref(all_ids(8, 4))
    assert kept() is None
    assert all(len(ids) <= exact.SHARED_DOMAIN_ROWS for ids in exact._shared_domains.values())


@pytest.mark.parametrize("n, length", [(2, 1), (3, 2), (4, 3), (6, 3)])
def test_table_token_probs_are_the_rows_entries(n, length):
    rng = np.random.default_rng(n * 10 + length)
    table = random_table(rng, make_vocab(n), length)
    for j in range(length):
        prefixes = rng.integers(0, n, size=(50, j))
        tokens = rng.integers(0, n, size=50)
        want = table.conditionals(prefixes)[np.arange(50), tokens]
        assert table.token_probs(prefixes, tokens).tobytes() == want.tobytes()


def test_enumeration_reads_the_same_before_and_after_the_domain_memo_is_warm(monkeypatch):
    model = random_table(np.random.default_rng(7), make_vocab(4), 3)
    monkeypatch.setattr(exact, "_shared_domains", {})
    cold = enumerate_joint(model).probs.tobytes()
    assert exact._shared_domains  # the enumeration filled it
    assert enumerate_joint(model).probs.tobytes() == cold


def test_make_vocab_is_one_vocabulary_per_size():
    assert make_vocab(5) is make_vocab(5) and make_vocab(5).tokens == ("<pad>", "a", "b", "c", "d")


def test_make_vocab_spans_the_pad_and_the_26_letters():
    assert make_vocab(1).tokens == ("<pad>",) and make_vocab(27).tokens[-1] == "z"


@pytest.mark.parametrize("n", [0, 28, 50])
def test_make_vocab_refuses_a_size_it_cannot_spell(n):
    with pytest.raises(ValueError, match=f"n = {n} tokens needs 1 <= n <= 27"):
        make_vocab(n)


def test_two_suite_runs_in_one_process_agree():
    assert checks.default_suites() == checks.default_suites()


def test_enumerate_budget():
    vocab = make_vocab(5)
    with pytest.raises(BudgetExceededError, match="budget"):
        enumerate_joint(UniformModel(vocab, 3), budget=100)


class TestDivergences:
    def test_kl_identity(self):
        p = ab_table(0.75, 0.25)
        assert kl_divergence(p, p) == 0.0

    def test_kl_hand_value(self):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_divergence(ab_table(0.75, 0.25), ab_table(0.5, 0.5)) == pytest.approx(expected)

    def test_kl_point_mass(self):
        assert kl_divergence(ab_table(1.0, 0.0), ab_table(0.5, 0.5)) == pytest.approx(math.log(2))

    def test_kl_support_violation_is_infinite(self):
        assert kl_divergence(ab_table(0.5, 0.5), ab_table(1.0, 0.0)) == math.inf

    def test_cross_entropy_uniform(self):
        vocab = make_vocab(5)
        p = JointTable(vocab, 1, np.array([0.0, 0.25, 0.25, 0.25, 0.25]))
        assert cross_entropy(p, p) == pytest.approx(math.log(4))

    def test_cross_entropy_decomposes(self):
        rng = np.random.default_rng(1)
        vocab = make_vocab(4)
        p, q = random_table(rng, vocab, 2), random_table(rng, vocab, 2)
        lhs = cross_entropy(p, q) - cross_entropy(p, p)
        assert lhs == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_cross_entropy_support_violation_is_infinite(self):
        assert cross_entropy(ab_table(0.5, 0.5), ab_table(1.0, 0.0)) == math.inf

    def test_cross_entropy_hand_value(self):
        assert cross_entropy(ab_table(0.75, 0.25), ab_table(0.5, 0.5)) == pytest.approx(math.log(2))

    def test_tvd(self):
        p, q = ab_table(0.75, 0.25), ab_table(0.5, 0.5)
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == pytest.approx(0.25)
        assert total_variation(ab_table(1.0, 0.0), ab_table(0.0, 1.0)) == pytest.approx(1.0)

    # Each comparison of two domains: how it is called on the a/b table ("mine")
    # and another domain ("theirs"), and the names check_domain gives the two,
    # the one it is given first first.
    DOMAIN_CALLS = {
        "kl_divergence": (lambda mine, theirs: kl_divergence(mine, theirs), "p", "q"),
        "cross_entropy": (lambda mine, theirs: cross_entropy(mine, theirs), "p", "q"),
        "total_variation": (lambda mine, theirs: total_variation(mine, theirs), "p", "q"),
        "distinguishability_exhaustive": (lambda mine, theirs: distinguishability_exhaustive(
            theirs, mine, np.ones((1, mine.probs.size))), "p", "q"),
        "advantage_exact": (lambda mine, theirs: advantage_exact(
            Distinguisher(values=lambda ids: np.ones(len(ids))), mine, theirs), "p", "q"),
        "bayes_optimal_distinguisher": (
            lambda mine, theirs: bayes_optimal_distinguisher(mine, theirs), "p", "q"),
        "minimal_ratio_bound": (lambda mine, theirs: minimal_ratio_bound(mine, theirs), "q", "q2"),
        # kl_gradient's model is the a/b domain; p, its table, is checked first.
        "kl_gradient": (lambda mine, theirs: kl_gradient(LogLinearModel(
            mine.ids, np.ones((mine.probs.size, 1)), np.zeros(1), mine.vocab), theirs),
            "p", "the model"),
    }

    @pytest.mark.parametrize("entry", list(DOMAIN_CALLS))
    @pytest.mark.parametrize("other", ["same-size vocabulary", "other length"])
    def test_mismatched_domains_rejected(self, entry, other):
        call, first, second = self.DOMAIN_CALLS[entry]
        mine = ab_table(0.5, 0.5)
        if other == "same-size vocabulary":
            theirs = JointTable(Vocabulary.build("xy"), 1, np.array([0.0, 0.5, 0.5]))
        else:
            theirs = JointTable(mine.vocab, 2, np.full(9, 1 / 9))
        a, b = (theirs, mine) if entry == "kl_gradient" else (mine, theirs)
        want = (f"{first}'s domain (3 tokens, length {a.length}) "
                f"is not {second}'s (3 tokens, length {b.length})")
        if other == "same-size vocabulary":
            want += f": its token 1 is {a.vocab.tokens[1]!r} where {second}'s is {b.vocab.tokens[1]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(mine, theirs)


class TestExhaustive:
    def test_family_with_bayes_optimal_reaches_tvd(self):
        p, q = ab_table(0.75, 0.25), ab_table(0.5, 0.5)
        family = all_indicator_distinguishers(p.vocab, 1)
        value, best = distinguishability_exhaustive(q, p, family)
        assert value == pytest.approx(total_variation(p, q), abs=1e-12)
        row = Distinguisher(values=lambda ids: family[best][sequence_index(p.vocab, ids)])
        assert advantage_exact(row, p, q) == pytest.approx(value)
        # Row 0b100: the indicator of "b" (id 2), where q has more mass than p.
        assert best == 0b100

    def test_flip_closed_family_never_negative(self):
        p = ab_table(0.6, 0.4)
        family = all_indicator_distinguishers(p.vocab, 1)
        value, _ = distinguishability_exhaustive(p, p, family)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_family(self):
        p, q = ab_table(0.75, 0.25), ab_table(0.5, 0.5)
        value, best = distinguishability_exhaustive(q, p, np.full((1, 3), 0.5))
        assert best == 0
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_empty_family_rejected(self):
        p = ab_table(0.5, 0.5)
        with pytest.raises(ValueError, match="empty"):
            distinguishability_exhaustive(p, p, [])

    @pytest.mark.parametrize("n, length", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
    def test_bit_matrix_rows_are_the_per_mask_indicators(self, n, length):
        vocab = make_vocab(n)
        family = all_indicator_distinguishers(vocab, length)
        size = n**length
        assert family.shape == (2**size, size)
        for mask in range(2**size):
            bits = tuple((mask >> i) & 1 for i in range(size))
            want = [float(bits[sequence_index(vocab, seq.token_ids)])
                    for seq in all_sequences(vocab, length)]
            assert family[mask].tolist() == want

    def test_indicator_budget(self):
        with pytest.raises(BudgetExceededError):
            all_indicator_distinguishers(make_vocab(5), 2)


class TestFiniteDiff:
    def test_stationary_point(self):
        grad = finite_diff_gradient(lambda t: float(np.sum(t**2)), np.zeros(3), 1e-5)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-10)

    def test_linear_field_exact(self):
        w = np.array([2.0, -3.0, 0.5])
        for h in (1e-2, 1e-5):
            grad = finite_diff_gradient(lambda t: float(w @ t), np.ones(3), h)
            np.testing.assert_allclose(grad, w, atol=1e-9)

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda t: 0.0, np.zeros(2), 0.0)
