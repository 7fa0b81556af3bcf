import numpy as np
import pytest

from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.models import SequentialModel


class StubModel(SequentialModel):
    """Fixed conditional distribution at every prefix (tests only)."""

    def __init__(self, vocab, length, dist):
        self.vocab = vocab
        self.length = length
        self._dist = np.asarray(dist, dtype=float)

    def conditionals(self, prefixes):
        return np.tile(self._dist, (len(prefixes), 1))


@pytest.fixture
def ab_vocab():
    return Vocabulary.build(["a", "b"])


@pytest.fixture
def aaab_corpus(ab_vocab):
    """The running four-sequence sample: a, a, a, b at length 1."""
    seqs = tuple(Sequence.from_ids((1,), 1) for _ in range(3)) + (Sequence.from_ids((2,), 1),)
    return Corpus(ab_vocab, 1, seqs)


@pytest.fixture
def half_half(ab_vocab):
    """Uniform-over-content conditionals (0, 1/2, 1/2)."""

    def make(length=1):
        return StubModel(ab_vocab, length, [0.0, 0.5, 0.5])

    return make
