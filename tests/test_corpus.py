import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqboost.corpus import (
    Corpus,
    CorpusFormatError,
    Sequence,
    Vocabulary,
    load_corpus,
    row_keys,
    save_corpus,
)
from seqboost.distinguish import Distinguisher


def empirical_expectation(corpus, h):
    """Mean of a scalar h of id tuples over the corpus, read from ``corpus.ids``."""
    return float(Distinguisher(h).values(corpus.ids).mean())


def reference_load_corpus(path, length, vocab=None, pad_token="<pad>"):
    """The per-line reader ``load_corpus`` replaced: one ``Sequence`` per line,
    a line that holds the pad refused by its number.  Returns the (m, N) ids
    and the vocabulary."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i + 1, ln.split()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, toks) for no, toks in lines if toks]
    if not lines:
        raise CorpusFormatError("empty corpus")
    for no, toks in lines:
        if len(toks) > length:
            raise CorpusFormatError(f"line {no}: {len(toks)} tokens exceeds length {length}")
    if vocab is None:
        ordered, seen = [pad_token], {pad_token}
        for t in (t for _, toks in lines for t in toks):
            if t not in seen:
                seen.add(t)
                ordered.append(t)
        vocab = Vocabulary(tuple(ordered), pad_token)
    else:
        known = set(vocab.tokens)
        for no, toks in lines:
            for t in toks:
                if t not in known:
                    raise CorpusFormatError(f"line {no}: token {t!r} not in vocabulary")
    for no, toks in lines:
        if vocab.pad_token in toks:
            raise CorpusFormatError(
                f"line {no}: the pad token {vocab.pad_token!r} may not appear in a line")
    rows = [Sequence.from_ids((vocab.id_of(t) for t in toks), length) for _, toks in lines]
    return np.array([r.token_ids for r in rows], dtype=np.int64).reshape(len(rows), length), vocab


def text_line(tokens, separators, margin):
    """Tokens, each followed by a run of spaces and tabs, between two margins."""
    return margin + "".join(tok + sep for tok, sep in zip(tokens, separators)) + margin


# Lines of corpus text over a small alphabet with the pad in it; some lines
# are blank or only whitespace.
corpus_lines = st.lists(
    st.builds(
        text_line,
        st.lists(st.sampled_from(["a", "b", "c", "dd", "<pad>"]), max_size=5),
        st.lists(st.sampled_from([" ", "  ", "\t", " \t "]), min_size=5, max_size=5),
        st.sampled_from(["", " ", "\t", "  \t"]),
    ),
    max_size=12,
)


def outcome(read, path, length, vocab, pad_token):
    """The ids and vocabulary tokens ``read`` returns, or its error's type and message."""
    try:
        ids, vocab = read(path, length, vocab=vocab, pad_token=pad_token)
    except ValueError as exc:
        return type(exc), str(exc)
    return ids.tolist(), vocab.tokens


@settings(deadline=None, max_examples=150)
@given(corpus_lines, st.integers(1, 4), st.sampled_from([None, "<pad>", "a"]), st.booleans())
def test_load_corpus_matches_the_per_line_reader(tmp_path_factory, lines, length, pad, no_pad):
    """``pad`` None reads with the vocabulary ``<pad> b a c``; otherwise the
    vocabulary is built, with ``pad`` as its pad token."""
    if no_pad:
        lines = [line.replace("<pad>", "e") for line in lines]
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = Vocabulary.build(["b", "a", "c"]) if pad is None else None

    def new(path, length, vocab, pad_token):
        corpus, vocab = load_corpus(path, length, vocab=vocab, pad_token=pad_token)
        return corpus.ids, vocab

    args = (path, length, vocab, pad or "<pad>")
    assert outcome(new, *args) == outcome(reference_load_corpus, *args)


def test_load_corpus_errors_name_the_first_offending_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\n\n\tb  a \nc\na b c\nd e f g\n")
    with pytest.raises(CorpusFormatError, match="^line 5: 3 tokens exceeds length 2$"):
        load_corpus(path, 2)
    with pytest.raises(CorpusFormatError, match="^line 4: token 'c' not in vocabulary$"):
        load_corpus(path, 4, vocab=Vocabulary.build(["a", "b"]))
    path.write_text("a b\n\nb <pad>\n")
    with pytest.raises(CorpusFormatError, match="^line 3: the pad token '<pad>' may not appear"):
        load_corpus(path, 2)
    vocab = Vocabulary.build(["a", "<pad>"], pad_token="b")
    with pytest.raises(CorpusFormatError, match="^line 1: the pad token 'b' may not appear"):
        load_corpus(path, 2, vocab=vocab)
    path.write_text("\n \n\t\n")
    with pytest.raises(CorpusFormatError, match="^empty corpus$"):
        load_corpus(path, 2)


def test_corpus_stores_one_read_only_id_array():
    vocab = Vocabulary.build(["a", "b"])
    rows = (Sequence.from_ids((1, 2), 3), Sequence.from_ids((2,), 3))
    from_rows = Corpus(vocab, 3, rows)
    from_ids = Corpus(vocab, 3, np.array([[1, 2, 0], [2, 0, 0]]))
    for corpus in (from_rows, from_ids):
        assert corpus.ids.tolist() == [[1, 2, 0], [2, 0, 0]]
        assert corpus.ids.dtype == np.int64 and not corpus.ids.flags.writeable
        assert (corpus.m, corpus.has_padding) == (2, True)
        assert corpus.sequences == rows
    assert not Corpus(vocab, 2, np.array([[1, 2]])).has_padding
    with pytest.raises(ValueError, match="share the padded length"):
        Corpus(vocab, 2, rows)
    with pytest.raises(ValueError, match="share the padded length"):
        Corpus(vocab, 2, np.array([[1, 2, 0]]))


def test_corpus_ids_do_not_alias_the_callers_array(tmp_path):
    vocab = Vocabulary.build(["a", "b"])
    source = np.array([[1, 2, 0], [2, 0, 0]])
    read_only_view = source.view()
    read_only_view.flags.writeable = False
    corpora = [Corpus(vocab, 3, source), Corpus(vocab, 3, read_only_view),
               Corpus(vocab, 2, source[:, :2]), Corpus(vocab, 3, source.astype(np.int32))]
    source[0, 0] = 2
    source[1, 1] = 1
    for corpus in corpora:
        assert not np.shares_memory(source, corpus.ids)
        assert corpus.ids[:, :2].tolist() == [[1, 2], [2, 0]]
    # An array nothing else can write to is kept as it is: load_corpus hands
    # its own array over that way.
    owned = np.array([[1, 2, 0]])
    owned.flags.writeable = False
    assert Corpus(vocab, 3, owned).ids is owned
    path = tmp_path / "c.txt"
    path.write_text("a b\n", encoding="utf-8")
    loaded, _ = load_corpus(path, 3, vocab)
    assert loaded.ids.base is None and not loaded.ids.flags.writeable


@st.composite
def repeating_corpora(draw):
    """A corpus of 0-8 rows drawn with repeats from 1-4 padded sequences, N 1-5."""
    length = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=length),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=8))
    vocab = Vocabulary.build(["a", "b", "c"])
    return Corpus(vocab, length, tuple(Sequence.from_ids(r, length) for r in rows))


@settings(deadline=None, max_examples=150)
@given(repeating_corpora())
def test_the_prefix_index_gathers_back_every_prefix(corpus):
    index, ids, N = corpus.prefix_index, corpus.ids, corpus.length
    assert corpus.prefix_index is index  # built once
    distinct, rows = index
    assert len(distinct) == N and rows.shape == ids.shape
    for L, prefixes in enumerate(distinct):
        assert prefixes.shape == (len({tuple(r) for r in ids[:, :L].tolist()}), L)
        # Unique and in key order: the keys' bytes strictly increase.
        keys = [k.tobytes() for k in row_keys(prefixes)]
        assert keys == sorted(set(keys))
    # Each prefix padded with -1 to N, stacked by length, gathered through the row map.
    stacked = np.concatenate([np.pad(p, ((0, 0), (0, N - p.shape[1])), constant_values=-1)
                              for p in distinct])
    gathered = stacked[rows]
    for L in range(N):
        assert gathered[:, L, :L].tolist() == ids[:, :L].tolist()
        assert (gathered[:, L, L:] == -1).all()
    for a in distinct + (rows,):
        assert not a.flags.writeable
    # The (prefix, token) cells: one position of each distinct cell, and
    # every position's cell among them.
    first, cell = corpus.token_cells
    pairs = [(tuple(r[:j]), r[j]) for r in ids.tolist() for j in range(N)]
    assert len(first) == len(set(pairs)) and cell.shape == ids.shape
    assert [pairs[first[c]] for c in cell.reshape(-1)] == pairs
    assert not first.flags.writeable and not cell.flags.writeable


def test_save_corpus_rejects_rows_it_cannot_write(tmp_path):
    vocab = Vocabulary.build(["a", "b"])
    raw = Sequence.from_raw
    # Row 1 would be written as an empty line, which loads back as no row.
    corpus = Corpus(vocab, 2, (raw((1, 2)), raw((0, 0)), raw((2, 0))))
    with pytest.raises(ValueError, match="row 1: it starts with the pad"):
        save_corpus(corpus, tmp_path / "c.txt")
    with pytest.raises(ValueError, match="row 0: it starts with the pad"):
        save_corpus(Corpus(vocab, 2, (raw((0, 2)),)), tmp_path / "c.txt")
    with pytest.raises(ValueError, match="row 1: it has content after a pad"):
        save_corpus(Corpus(vocab, 3, np.array([[1, 1, 1], [1, 0, 2]])), tmp_path / "c.txt")


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("as_array", [True, False])
def test_a_corpus_refuses_ids_outside_the_vocabulary(bad, as_array):
    # Id -1 would be read as the last token, b, and id 3 has no token; a joint
    # table would score either (id 3 carries into the next prefix's index).
    vocab = Vocabulary.build(["a", "b"])
    rows = [[1, 2], [1, bad], [bad, 1]]
    with pytest.raises(ValueError, match=r"^row 1 has an id outside the vocabulary's 0\.\.2$"):
        Corpus(vocab, 2, np.array(rows) if as_array else map(Sequence.from_raw, rows))
    assert Corpus(vocab, 2, np.zeros((0, 2), dtype=np.int64)).m == 0


@pytest.mark.parametrize("length", [0, -1])
@pytest.mark.parametrize("as_array", [True, False])
def test_a_corpus_has_at_least_one_position(length, as_array):
    vocab = Vocabulary.build(["a", "b"])
    rows = np.ones((3, max(length, 0)), dtype=np.int64) if as_array else ()
    message = f"^a corpus has at least one position, not length {length}$"
    with pytest.raises(ValueError, match=message):
        Corpus(vocab, length, rows)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 4),
    st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4), min_size=1, max_size=10),
)
def test_save_then_load_gives_the_same_ids(tmp_path_factory, length, rows):
    vocab = Vocabulary.build(["a", "b", "c"])
    corpus = Corpus(vocab, length, tuple(Sequence.from_ids(r[:length], length) for r in rows))
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    save_corpus(corpus, path)
    loaded, _ = load_corpus(path, length, vocab=vocab)
    assert loaded.ids.tobytes() == corpus.ids.tobytes()


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


def test_vocab_needs_the_pad_token_first():
    for tokens in (("a", "<pad>"), ()):
        with pytest.raises(ValueError, match="pad token must be present with id 0"):
            Vocabulary(tokens)


def test_sequence_rejects_the_pad_in_its_content():
    with pytest.raises(ValueError, match="pad id 0 may not appear in unpadded content"):
        Sequence.from_ids((1, 0), 3)


def test_indicator_cells_need_a_context_that_fits_before_a_token():
    corpus = Corpus(Vocabulary.build(["a", "b"]), 2, np.array([[1, 2], [2, 0]]))
    assert len(corpus.indicator_cells(1)[0]) == 2
    with pytest.raises(ValueError, match="no context of 2 tokens fits before a token in length 2"):
        corpus.indicator_cells(2)


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
