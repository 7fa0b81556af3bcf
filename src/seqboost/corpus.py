"""Vocabularies, fixed-length padded token sequences, and corpus ingestion.

A corpus is a list of token sequences, all padded to a common length N.
The pad token always has id 0 so that padded tails are cheap to detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        ordered: list[str] = [pad_token]
        seen = {pad_token}
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                ordered.append(tok)
        return cls(tuple(ordered), pad_token)

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
        """Wrap raw ids without padding checks (used for domain enumeration)."""
        ids = tuple(ids)
        true_length = len(ids)
        for j, t in enumerate(ids):
            if t == 0:
                true_length = j
                break
        return cls(ids, true_length)

    @property
    def length(self) -> int:
        return len(self.token_ids)

    def prefix(self, j: int) -> tuple[int, ...]:
        """The first j token ids; j = 0 is the empty prefix."""
        return self.token_ids[:j]


@dataclass(frozen=True)
class Corpus:
    """A training sample: m sequences sharing one vocabulary and length."""

    vocab: Vocabulary
    length: int
    sequences: tuple[Sequence, ...]

    def __post_init__(self) -> None:
        for seq in self.sequences:
            if seq.length != self.length:
                raise ValueError("all corpus sequences must share the padded length")

    @property
    def m(self) -> int:
        return len(self.sequences)

    @cached_property
    def ids(self) -> np.ndarray:
        """The token ids as an (m, N) int array, built on first use."""
        return np.array([seq.token_ids for seq in self.sequences], dtype=np.int64).reshape(
            self.m, self.length
        )

    @property
    def has_padding(self) -> bool:
        return any(s.true_length < self.length for s in self.sequences)


def load_corpus(
    path: str | Path,
    length: int,
    vocab: Vocabulary | None = None,
    pad_token: str = DEFAULT_PAD,
) -> tuple[Corpus, Vocabulary]:
    """Read a plain-text corpus, one whitespace-separated sequence per line.

    Every line must contain 1..length tokens; shorter lines are padded.  If
    ``vocab`` is omitted it is built from the observed tokens (plus the pad)
    in first-appearance order; otherwise every token must already be known.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i + 1, ln.split()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, toks) for no, toks in lines if toks]
    if not lines:
        raise CorpusFormatError("empty corpus")
    for no, toks in lines:
        if len(toks) > length:
            raise CorpusFormatError(f"line {no}: {len(toks)} tokens exceeds length {length}")
    if vocab is None:
        vocab = Vocabulary.build((t for _, toks in lines for t in toks), pad_token)
    else:
        known = set(vocab.tokens)
        for no, toks in lines:
            for t in toks:
                if t not in known:
                    raise CorpusFormatError(f"line {no}: token {t!r} not in vocabulary")
    sequences = tuple(
        Sequence.from_ids((vocab.id_of(t) for t in toks), length) for _, toks in lines
    )
    return Corpus(vocab, length, sequences), vocab


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in corpus.sequences:
            content = seq.token_ids[: seq.true_length]
            fh.write(" ".join(corpus.vocab.token_of(t) for t in content) + "\n")
