"""Vocabularies, fixed-length padded token sequences, and corpus ingestion.

A corpus is an (m, N) array of token ids, one sequence per row padded to the
common length N.  The pad token always has id 0 so that padded tails are
cheap to detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

import numpy as np

DEFAULT_PAD = "<pad>"


class CorpusFormatError(ValueError):
    """Raised when a corpus or vocabulary file violates the line format."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token-id mapping. Token ids are 0..n-1; pad is always id 0."""

    tokens: tuple[str, ...]
    pad_token: str = DEFAULT_PAD

    def __post_init__(self) -> None:
        ids = {t: i for i, t in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if not self.tokens or self.tokens[0] != self.pad_token:
            raise ValueError("pad token must be present with id 0")
        object.__setattr__(self, "_ids", ids)

    @classmethod
    def build(cls, tokens: Iterable[str], pad_token: str = DEFAULT_PAD) -> "Vocabulary":
        """Build a vocabulary in first-appearance order, pad token first."""
        return cls(tuple(dict.fromkeys(chain([pad_token], tokens))), pad_token)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def save(self, path: str | Path) -> None:
        # One token per line; line number - 1 = id, so line 0 is the pad.
        Path(path).write_text("".join(t + "\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise CorpusFormatError(f"empty vocabulary file: {path}")
        return cls(tuple(lines), pad_token=lines[0])


def check_domain(a, b, names: tuple[str, str] = ("p", "q")) -> None:
    """Raise ValueError unless a and b (corpora, models or tables) share one
    domain: the same vocabulary and the same padded length.  The message
    names both domains, calling a and b by ``names``, and between two
    vocabularies of one size the first token where they differ."""
    if a.vocab.tokens == b.vocab.tokens and a.length == b.length:
        return
    (first, second), ours, theirs = names, a.vocab.tokens, b.vocab.tokens
    message = (f"{first}'s domain ({len(ours)} tokens, length {a.length}) "
               f"is not {second}'s ({len(theirs)} tokens, length {b.length})")
    if len(ours) == len(theirs) and ours != theirs:
        i = next(i for i, (s, t) in enumerate(zip(ours, theirs)) if s != t)
        message += f": its token {i} is {ours[i]!r} where {second}'s is {theirs[i]!r}"
    raise ValueError(message)


@dataclass(frozen=True)
class Sequence:
    """One row of a corpus: a fixed-length run of token ids whose positions
    >= true_length hold the pad.

    The library reads a corpus through ``Corpus.ids``; this is only the row
    type ``Corpus.sequences`` stores.
    """

    token_ids: tuple[int, ...]
    true_length: int

    @classmethod
    def from_ids(cls, ids: Iterable[int], length: int) -> "Sequence":
        ids = tuple(ids)
        if not 1 <= len(ids) <= length:
            raise ValueError(f"sequence length {len(ids)} not in 1..{length}")
        if 0 in ids:
            raise ValueError("pad id 0 may not appear in unpadded content")
        return cls(ids + (0,) * (length - len(ids)), len(ids))

    @classmethod
    def from_raw(cls, ids: Iterable[int]) -> "Sequence":
        """Wrap raw ids without padding checks; the content ends at the first pad."""
        ids = tuple(ids)
        return cls(ids, ids.index(0) if 0 in ids else len(ids))

    def prefix(self, j: int) -> tuple[int, ...]:
        """The first j token ids; j = 0 is the empty prefix."""
        return self.token_ids[:j]


def row_keys(prefixes: np.ndarray) -> np.ndarray:
    """One byte key per row of a C-contiguous (k, L) int64 array, a ``np.void``
    view of its rows: equal rows have equal keys, and keys sort as bytes,
    however large n^L is.  Every empty prefix has the same key."""
    k, L = prefixes.shape
    return prefixes.view(f"V{8 * L}").reshape(k) if L else np.zeros(k, dtype="V1")


def sequence_index(vocab: Vocabulary, ids) -> np.ndarray:
    """Lexicographic index of a token-id tuple (an integer), or of every row of
    an (..., L) id array (an array of shape (...)): its ids read as base-n digits."""
    ids = np.asarray(ids, dtype=np.int64)
    return ids @ vocab.n ** np.arange(ids.shape[-1] - 1, -1, -1, dtype=np.int64)


def row_numbers(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a (k, w) array of ints >= -1: each row's
    number, and for each number the index of its first row.  Numbers follow
    the rows' lexicographic order; with no column, every row is number 0.

    One column at a time, renumbering after each so that the numbers stay
    below k: no row sort.  A column's keys (number so far * base + entry + 1)
    lie below the distinct numbers so far times base.  When that key space is
    at most 4k, the keys are numbered by counting: a presence array's
    ``cumsum`` numbers them in order, and ``np.minimum.at`` finds each
    number's first row.  A wider key space takes one 1-D ``np.unique``.
    (``np.minimum.at`` is fast from numpy 1.25 on; on 1.24 it is correct but
    slower.)
    """
    k, base = len(rows), int(rows.max(initial=0)) + 2  # above every entry + 1
    codes, first = np.zeros(k, dtype=np.int64), np.arange(min(k, 1))
    for col in rows.T:
        keys, span = codes * base + col + 1, len(first) * base
        if span > 4 * k:
            _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
            continue
        present = np.zeros(span, dtype=bool)
        present[keys] = True
        numbers = present.cumsum() - 1
        codes = numbers[keys]
        first = np.full(np.count_nonzero(present), k, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(k))
    return codes, first


def context_groups(
    ids: np.ndarray, width: int, counted: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Number the contexts of the positions of an (m, N) id array where the
    (m, N) boolean mask ``counted`` is true.

    The context of position j is the ``width`` ids before it, fewer at the
    start of a sequence.  Returns the rank of every counted position's
    context, in row-major order, and the contexts in rank order: contexts rank
    in order of first appearance, row by row.

    Context column c is one boolean-mask read of the padded ids shifted by c,
    which lists the counted positions in row-major order.
    """
    N = ids.shape[1]
    padded = np.concatenate([np.full((len(ids), width), -1, dtype=np.int64), ids], axis=1)
    # context[p]: the width ids before counted position p, -1 before the start,
    # stored a column at a time so that row_numbers reads each column contiguously.
    columns = np.empty((width, np.count_nonzero(counted)), dtype=np.int64)
    for c in range(width):
        columns[c] = padded[:, c : c + N][counted]
    context = columns.T
    codes, first = row_numbers(context)
    by_first = np.argsort(first)
    contexts = [tuple(t for t in ctx if t >= 0) for ctx in context[first[by_first]].tolist()]
    return np.argsort(by_first)[codes], contexts


class Corpus:
    """m sequences sharing one vocabulary and padded length N >= 1, stored only as
    their read-only (m, N) int64 id array ``ids``.  ``rows`` is that array or
    one ``Sequence`` per row.  Every id must be a token id, 0..n-1; the
    padding contract is not checked, so raw domain rows are allowed
    (``save_corpus`` rejects rows it cannot write).
    An int64 array that is writable or a view of another array is copied, so
    no later write to the caller's buffer reaches ``ids``.  What depends on
    ``ids`` alone, ``prefix_index``, ``token_cells`` and ``indicator_cells``,
    is built on first use."""

    def __init__(self, vocab: Vocabulary, length: int, rows) -> None:
        if length < 1:
            raise ValueError(f"a corpus has at least one position, not length {length}")
        if isinstance(rows, np.ndarray):
            ids = np.asarray(rows, dtype=np.int64)
            if ids is rows and (ids.flags.writeable or ids.base is not None):
                ids = ids.copy()
        else:
            rows = [seq.token_ids for seq in rows]
            if any(len(r) != length for r in rows):
                raise ValueError("all corpus sequences must share the padded length")
            ids = np.array(rows, dtype=np.int64).reshape(len(rows), length)
        if ids.ndim != 2 or ids.shape[1] != length:
            raise ValueError("all corpus sequences must share the padded length")
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= vocab.n:
            i = int(np.argmax(((ids < 0) | (ids >= vocab.n)).any(axis=1)))
            raise ValueError(f"row {i} has an id outside the vocabulary's 0..{vocab.n - 1}")
        ids.flags.writeable = False
        self.vocab, self.length, self.ids = vocab, length, ids
        self._counts_by_context: dict[int, tuple] = {}

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def sequences(self) -> tuple[Sequence, ...]:
        """The rows as ``Sequence`` objects, built anew on every read."""
        return tuple(map(Sequence.from_raw, self.ids.tolist()))

    @property
    def has_padding(self) -> bool:
        return bool((self.ids == 0).any())

    @cached_property
    def _prefix_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows sorted once, by the ``row_keys`` of the whole row, so that
        the distinct prefixes of each length L = 0..N come in key order, each
        a run of sorted rows: the sorted rows, the sort order, the (N + 1, m)
        mask of the sorted rows that start a run of L-token prefixes, and the
        (m, N + 1) number of every row's L-token prefix among the runs,
        stacked by length."""
        ids, (m, N) = self.ids, self.ids.shape
        order = row_keys(np.ascontiguousarray(ids)).argsort()
        ordered = ids.take(order, axis=0)
        starts = np.empty((N + 1, m), dtype=bool)
        starts[:, :1] = True
        starts[0, 1:] = False  # every row's empty prefix is the same
        starts[1:, 1:] = np.logical_or.accumulate(ordered[1:] != ordered[:-1], axis=1).T
        numbers = np.empty((m, N + 1), dtype=np.int64)
        numbers[order] = (starts.cumsum() - 1).reshape(N + 1, m).T
        return ordered, order, starts, numbers

    @cached_property
    def prefix_index(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The distinct prefixes of the rows, and where each position's is.
        For each length L < N, the (K_L, L) array of the distinct
        ``ids[:, :L]`` in ``row_keys`` order; and the (m, N) array whose entry
        (i, j) is the row of ``ids[i, :j]`` in those arrays stacked by length.
        Every array is read-only."""
        ordered, _, starts, numbers = self._prefix_runs
        prefixes = [ordered[starts[L], :L] for L in range(self.length)]
        rows = numbers[:, :-1].copy()
        for a in prefixes + [rows]:
            a.flags.writeable = False
        return tuple(prefixes), rows

    @cached_property
    def token_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (prefix, token) cells of the positions: the flat index
        in ``ids`` of one position of each cell, and the (m, N) cell of every
        position.  Position (i, j)'s cell is ``ids[i, :j + 1]``, so the cells
        are the runs of lengths 1..N.  Both arrays are read-only."""
        _, order, starts, numbers = self._prefix_runs
        at, r = np.nonzero(starts[1:])  # the runs by length, then in key order
        first, cell = order[r] * self.length + at, numbers[:, 1:] - min(self.m, 1)
        first.flags.writeable = cell.flags.writeable = False
        return first, cell

    def indicator_cells(self, k: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
        """What an indicator search over contexts of k tokens reads of the
        corpus, counted once per k: the contexts of the positions j >= k in
        rank order (``context_groups``), the cell (context rank * n + token)
        of every (position, token) pair, positions in row-major order, and the
        count of each cell's token at its context's positions.  The arrays
        are read-only."""
        ids, n = self.ids, self.vocab.n
        if self.length <= k:
            raise ValueError(f"no context of {k} tokens fits before a token in length {self.length}")
        if k not in self._counts_by_context:
            counted = np.broadcast_to(np.arange(self.length) >= k, ids.shape)
            group, contexts = context_groups(ids, k, counted)
            counts = np.bincount(group * n + ids[:, k:].reshape(-1), minlength=len(contexts) * n)
            cell = (group[:, None] * n + np.arange(n)).reshape(-1)
            cell.flags.writeable = counts.flags.writeable = False
            self._counts_by_context[k] = contexts, cell, counts
        return self._counts_by_context[k]


def load_corpus(
    path: str | Path,
    length: int,
    vocab: Vocabulary | None = None,
    pad_token: str = DEFAULT_PAD,
) -> tuple[Corpus, Vocabulary]:
    """Read a plain-text corpus, one whitespace-separated sequence per line.

    Every line must contain 1..length tokens; shorter lines are padded, and
    blank lines are skipped.  If ``vocab`` is omitted it is built from the
    observed tokens (plus the pad) in first-appearance order; otherwise every
    token must already be known.  An error names the first offending line.
    """
    rows = list(map(str.split, Path(path).read_text(encoding="utf-8").splitlines()))
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    if not counts.any():
        raise CorpusFormatError("empty corpus")
    if counts.max() > length:
        no = int(np.argmax(counts > length))
        raise CorpusFormatError(f"line {no + 1}: {counts[no]} tokens exceeds length {length}")
    tokens = list(chain.from_iterable(rows))
    if vocab is None:
        vocab = Vocabulary.build(tokens, pad_token)

    def line(k: int) -> int:
        """The number of the line that holds token k."""
        return int(np.searchsorted(np.cumsum(counts), k, side="right")) + 1

    try:
        flat = np.fromiter(map(vocab._ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError:
        k = next(k for k, t in enumerate(tokens) if t not in vocab._ids)
        raise CorpusFormatError(f"line {line(k)}: token {tokens[k]!r} not in vocabulary") from None
    if not flat.all():
        k = int(np.argmin(flat))
        raise CorpusFormatError(
            f"line {line(k)}: the pad token {tokens[k]!r} may not appear in a line")
    counts = counts[counts > 0]
    ids = np.zeros((len(counts), length), dtype=np.int64)
    ids[np.arange(length) < counts[:, None]] = flat
    ids.flags.writeable = False  # nothing else holds it, so Corpus need not copy it
    return Corpus(vocab, length, ids), vocab


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one line per row, its tokens before the first pad; a row that
    would not load back as itself raises ValueError naming the row."""
    content = corpus.ids != 0
    counts = content.sum(axis=1)
    faithful = (counts > 0) & (content == (np.arange(corpus.length) < counts[:, None])).all(axis=1)
    if not faithful.all():
        i = int(np.argmin(faithful))
        reason = "has content after a pad" if content[i, :1].any() else "starts with the pad"
        raise ValueError(f"cannot save row {i}: it {reason}")
    words = map(corpus.vocab.tokens.__getitem__, corpus.ids[content].tolist())
    text = "".join(" ".join(islice(words, k)) + "\n" for k in counts.tolist())
    Path(path).write_text(text, encoding="utf-8")
