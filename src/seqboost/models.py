"""Sequential probability models with exact conditional next-token distributions.

Every model exposes ``next_token_dist(prefix)``: the conditional distribution
of the next token given a prefix of 0..N-1 token ids.  The joint probability
of a sequence is the product of these conditionals; all arithmetic is done in
log space so N-length products cannot underflow.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence as PySeq

import numpy as np

from .corpus import Corpus, Sequence, Vocabulary

PAD_ID = 0


class SequentialModel(abc.ABC):
    """Behavioral contract: a next-token conditional per prefix.

    Implementations must be deterministic for a given prefix and return n
    nonnegative reals summing to 1 within 1e-9.
    """

    vocab: Vocabulary
    length: int

    @abc.abstractmethod
    def next_token_dist(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Conditional distribution q(. | prefix) as an array of n reals."""


@dataclass(frozen=True)
class LossReport:
    """Mean negative log-likelihood (nats per sequence) with per-sequence terms."""

    log_loss: float
    per_sequence: tuple[float, ...]


class UniformModel(SequentialModel):
    """Uniform conditionals, respecting the padding contract.

    The first token is uniform over the n-1 content tokens (a sequence can
    never start with the pad); later positions are uniform over all n tokens
    (the sequence may end), and pad follows pad with probability 1.
    """

    def __init__(self, vocab: Vocabulary, length: int):
        self.vocab = vocab
        self.length = length
        self._all = np.full(vocab.n, 1.0 / vocab.n)
        self._content = np.full(vocab.n, 1.0 / (vocab.n - 1))
        self._content[PAD_ID] = 0.0
        self._pad_onehot = np.zeros(vocab.n)
        self._pad_onehot[PAD_ID] = 1.0

    def next_token_dist(self, prefix: tuple[int, ...]) -> np.ndarray:
        if not prefix:
            return self._content
        if prefix[-1] == PAD_ID:
            return self._pad_onehot
        return self._all


class NGramModel(SequentialModel):
    """Order-k model: next token depends on the previous k-1 tokens.

    Fitted conditionals are smoothed relative frequencies,
    (count + lambda) / (total + lambda * |smoothed alphabet|).  The pad token
    deterministically follows the pad, and unseen contexts fall back to the
    uniform distribution.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        length: int,
        order: int,
        cond: dict[tuple[int, ...], np.ndarray],
        lam: float = 0.0,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab = vocab
        self.length = length
        self.order = order
        self.cond = cond
        self.lam = lam
        self._uniform = np.full(vocab.n, 1.0 / vocab.n)
        self._pad_onehot = np.zeros(vocab.n)
        self._pad_onehot[PAD_ID] = 1.0

    def context_of(self, prefix: tuple[int, ...]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return tuple(prefix[-(self.order - 1) :]) if prefix else ()

    def next_token_dist(self, prefix: tuple[int, ...]) -> np.ndarray:
        if prefix and prefix[-1] == PAD_ID:
            return self._pad_onehot
        dist = self.cond.get(self.context_of(prefix))
        return dist if dist is not None else self._uniform


def ngram_mle_fit(corpus: Corpus, order: int, lam: float = 0.0) -> NGramModel:
    """Fit an order-k model by counting, with optional Laplace smoothing.

    Smoothing mass is spread over the pad token only when padding actually
    occurs in the corpus; otherwise the pad keeps probability zero and the
    smoothed alphabet is the n-1 content tokens.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if corpus.m < 1:
        raise ValueError("empty corpus")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n = corpus.vocab.n
    counts: dict[tuple[int, ...], np.ndarray] = {}
    for seq in corpus.sequences:
        for j in range(corpus.length):
            prefix = seq.prefix(j)
            if prefix and prefix[-1] == PAD_ID:
                break  # pad-after-pad is forced, not counted
            ctx = prefix[-(order - 1) :] if order > 1 else ()
            if ctx not in counts:
                counts[ctx] = np.zeros(n)
            counts[ctx][seq.token_ids[j]] += 1.0
    smooth = np.full(n, lam)
    if not corpus.has_padding:
        smooth[PAD_ID] = 0.0
    cond: dict[tuple[int, ...], np.ndarray] = {}
    for ctx, c in counts.items():
        numer = c + smooth
        denom = numer.sum()
        cond[ctx] = numer / denom if denom > 0 else np.full(n, 1.0 / n)
    return NGramModel(corpus.vocab, corpus.length, order, cond, lam)


def sequence_log_prob(model: SequentialModel, seq: Sequence) -> float:
    """Sum of conditional log-probabilities; -inf marks an impossible sequence."""
    total = 0.0
    for j in range(model.length):
        p = float(model.next_token_dist(seq.prefix(j))[seq.token_ids[j]])
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def log_loss(model: SequentialModel, corpus: Corpus) -> LossReport:
    """Negative mean log-likelihood of the corpus, in nats per sequence."""
    if corpus.m < 1:
        raise ValueError("empty corpus")
    per: list[float] = []
    for i, seq in enumerate(corpus.sequences):
        lp = sequence_log_prob(model, seq)
        if lp == -math.inf:
            raise ValueError(f"sequence {i} is impossible under the model (infinite loss)")
        per.append(-lp)
    # Fixed index order keeps the mean bit-reproducible.
    return LossReport(sum(per) / corpus.m, tuple(per))


def sample_sequence(model: SequentialModel, rng_seed: int) -> Sequence:
    """Ancestral sampling, token by token; deterministic for a fixed seed."""
    return _sample_one(model, np.random.default_rng(rng_seed))


def sample_many(model: SequentialModel, k: int, rng_seed: int) -> list[Sequence]:
    rng = np.random.default_rng(rng_seed)
    return [_sample_one(model, rng) for _ in range(k)]


def _sample_one(model: SequentialModel, rng: np.random.Generator) -> Sequence:
    ids: list[int] = []
    for _ in range(model.length):
        dist = model.next_token_dist(tuple(ids))
        ids.append(int(rng.choice(model.vocab.n, p=dist / dist.sum())))
    return Sequence.from_raw(ids)


class LogLinearModel:
    """q(x) proportional to exp(<theta, f(x)>) over an enumerable domain.

    Features map a sequence to d reals, each in [0, 1].  The partition
    function is computed by exact enumeration over the domain (log-sum-exp);
    there is no sampling-based estimator.
    """

    def __init__(
        self,
        domain: PySeq[Sequence],
        features: Callable[[Sequence], np.ndarray],
        theta: np.ndarray,
        vocab: Vocabulary | None = None,
        length: int | None = None,
    ):
        if not domain:
            raise ValueError("empty domain")
        self.domain = list(domain)
        self.features = features
        self.theta = np.asarray(theta, dtype=float)
        self.vocab = vocab
        self.length = length if length is not None else self.domain[0].length
        self._index = {seq.token_ids: i for i, seq in enumerate(self.domain)}
        fmat = np.array([np.asarray(features(x), dtype=float) for x in self.domain])
        if fmat.ndim != 2 or fmat.shape[1] != self.theta.shape[0]:
            raise ValueError("feature dimension does not match theta")
        if np.any(fmat < -1e-12) or np.any(fmat > 1 + 1e-12):
            raise ValueError("feature values must lie in [0, 1]")
        self.feature_matrix = fmat

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def with_theta(self, theta: np.ndarray) -> "LogLinearModel":
        out = copy.copy(self)
        out.theta = np.asarray(theta, dtype=float)
        return out

    def scores(self) -> np.ndarray:
        return self.feature_matrix @ self.theta

    def log_partition(self) -> float:
        s = self.scores()
        smax = float(s.max())
        return smax + math.log(np.exp(s - smax).sum())

    def all_probs(self) -> np.ndarray:
        s = self.scores()
        s = s - s.max()
        e = np.exp(s)
        return e / e.sum()

    def log_prob(self, x: Sequence) -> float:
        i = self._index.get(x.token_ids)
        if i is None:
            raise ValueError("sequence outside the model domain")
        return float(self.scores()[i]) - self.log_partition()

    def prob(self, x: Sequence) -> float:
        return math.exp(self.log_prob(x))


def kl_gradient(model: LogLinearModel, p) -> np.ndarray:
    """Gradient of KL(p || q_theta) in theta: per-feature advantages.

    Component i is sum_x f_i(x) (q_theta(x) - p(x)).  ``p`` is a joint table
    sharing the model's domain (its mass must live on that domain).
    """
    if p.vocab is not None and model.vocab is not None and p.vocab.tokens != model.vocab.tokens:
        raise ValueError("mismatched domains: different vocabularies")
    if p.length != model.length:
        raise ValueError("mismatched domains: different sequence lengths")
    p_vec = np.array([p.prob_of(x) for x in model.domain])
    if abs(p_vec.sum() - 1.0) > 1e-9:
        raise ValueError("mismatched domains: p has mass outside the model domain")
    return model.feature_matrix.T @ (model.all_probs() - p_vec)
