import math

import pytest
from hypothesis import given, strategies as st

from seqboost.corpus import (
    Corpus,
    CorpusFormatError,
    Sequence,
    Vocabulary,
    load_corpus,
    save_corpus,
)
from seqboost.distinguish import Distinguisher


def empirical_expectation(corpus, h):
    """Mean of a scalar h of id tuples over the corpus, read from ``corpus.ids``."""
    return float(Distinguisher(h).values(corpus.ids).mean())


def test_load_corpus_pads_and_builds_vocab(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a a b\nb a\n")
    corpus, vocab = load_corpus(path, 3, pad_token="⊥")
    assert vocab.tokens == ("⊥", "a", "b")
    assert corpus.m == 2
    assert corpus.sequences[0].token_ids == (1, 1, 2)
    assert corpus.sequences[1].token_ids == (2, 1, 0)
    assert corpus.sequences[1].true_length == 2


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="empty corpus"):
        load_corpus(path, 3)


def test_load_corpus_line_too_long(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a a\na b c d\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path, 3)


def test_load_corpus_unknown_token_with_supplied_vocab(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a a a\na b c\n")
    vocab = Vocabulary.build(["a", "b"])
    with pytest.raises(CorpusFormatError, match="line 2.*'c'"):
        load_corpus(path, 3, vocab=vocab)


def test_corpus_round_trip(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("a b a\nb\nb a\n")
    corpus, vocab = load_corpus(src, 3)
    dst = tmp_path / "c2.txt"
    save_corpus(corpus, dst)
    corpus2, vocab2 = load_corpus(dst, 3)
    assert vocab2.tokens == vocab.tokens
    assert [s.token_ids for s in corpus2.sequences] == [s.token_ids for s in corpus.sequences]


def test_vocab_round_trip(tmp_path):
    vocab = Vocabulary.build(["x", "y", "z"])
    path = tmp_path / "v.txt"
    vocab.save(path)
    assert Vocabulary.load(path).tokens == vocab.tokens


def test_vocab_id_of_inverts_token_of():
    vocab = Vocabulary.build(["x", "y", "z"])
    assert [vocab.id_of(vocab.token_of(i)) for i in range(vocab.n)] == [0, 1, 2, 3]
    with pytest.raises(KeyError, match="token 'w' not in vocabulary"):
        vocab.id_of("w")


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(("<pad>", "a", "a"))


def test_sequence_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Sequence.from_ids((), 3)
    with pytest.raises(ValueError):
        Sequence.from_ids((1, 2, 1, 2), 3)


def test_empirical_expectation_indicator(aaab_corpus):
    value = empirical_expectation(aaab_corpus, lambda x: 1.0 if x[0] == 2 else 0.0)
    assert value == pytest.approx(0.25)


def test_empirical_expectation_constants(aaab_corpus):
    assert empirical_expectation(aaab_corpus, lambda x: 1.0) == 1.0
    assert empirical_expectation(aaab_corpus, lambda x: 0.0) == 0.0


@given(
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=12),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_empirical_expectation_is_linear(ids, alpha, beta):
    vocab = Vocabulary.build(["a", "b"])
    corpus = Corpus(vocab, 1, tuple(Sequence.from_ids((i,), 1) for i in ids))
    h1 = lambda x: float(x[0] == 1)
    h2 = lambda x: float(x[0])
    combo = empirical_expectation(corpus, lambda x: alpha * h1(x) + beta * h2(x))
    split = alpha * empirical_expectation(corpus, h1) + beta * empirical_expectation(corpus, h2)
    assert math.isclose(combo, split, abs_tol=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=12))
def test_unit_range_h_gives_unit_range_expectation(ids):
    vocab = Vocabulary.build(["a", "b"])
    corpus = Corpus(vocab, 1, tuple(Sequence.from_ids((i,), 1) for i in ids))
    value = empirical_expectation(corpus, lambda x: 0.5 + 0.5 * (x[0] == 1))
    assert 0.0 <= value <= 1.0
