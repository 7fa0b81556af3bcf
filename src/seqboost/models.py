"""Sequential probability models with exact conditional next-token distributions.

A model implements one method, ``conditionals(prefixes)``: a (k, L) array of
equal-length prefixes of token ids to the (k, n) array of their next-token
conditionals.  ``next_token_dist(prefix)`` is one row of it, and
``token_probs(prefixes, tokens)`` picks one given next token per row.  The
joint probability of a sequence is the product of its conditionals; all
arithmetic is done in log space so N-length products cannot underflow.
Corpus-wide layers (``enumerate_joint``, ``sample_many``) make one call per
position.  A corpus's conditionals are read once per distinct prefix, as
``corpus_rows``; ``corpus_log_probs`` (which ``log_loss`` reads) makes one
``token_probs`` call per position unless, as ``ReweightedModel``, it reads them.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Vocabulary, check_domain, context_groups, row_numbers, sequence_index

PAD_ID = 0


class SequentialModel(abc.ABC):
    """Behavioral contract: a next-token conditional per prefix.

    Implementations must be deterministic for a given prefix and return rows
    of n nonnegative reals summing to 1 within 1e-9.  A row may not depend on
    the other rows of the call.  ``token_probs`` may be overridden to compute
    its entries another way, not to change them.
    """

    vocab: Vocabulary
    length: int
    _slot: tuple | None = None  # (corpus, rows, ...): see ``corpus_rows``

    @abc.abstractmethod
    def conditionals(self, prefixes: np.ndarray) -> np.ndarray:
        """q(. | row) for every row of a (k, L) array of prefixes: a (k, n) array.
        No model keeps the rows computed here, so a sweep that visits each
        prefix once (``enumerate_joint``) leaves nothing behind."""

    def next_token_dist(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Conditional distribution q(. | prefix): one row of ``conditionals``."""
        return self.conditionals(np.array(prefix, dtype=np.int64).reshape(1, len(prefix)))[0]

    def token_probs(self, prefixes: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """q(tokens[i] | prefixes[i]) for every row of a (k, L) prefix array: (k,)."""
        return self.conditionals(prefixes)[np.arange(len(prefixes)), tokens]

    def corpus_rows(self, corpus: Corpus) -> np.ndarray:
        """q(. | h) for the distinct prefixes h of ``corpus.prefix_index``, stacked
        by length as it numbers them: a read-only (K, n) array.  Row
        ``prefix_index[1][i, j]`` is q(. | first j tokens of sequence i).  The
        model's slot keeps the last corpus asked for and what ``_fill`` made of
        it, so the same corpus is read once, and another replaces it."""
        if self._slot is None or self._slot[0] is not corpus:
            self._slot = corpus, *self._fill(corpus)
            self._slot[1].flags.writeable = False
        return self._slot[1]

    def _fill(self, corpus: Corpus) -> tuple:
        """A new slot's arrays, its rows first: one ``conditionals`` call per length."""
        return (np.concatenate([self.conditionals(p) for p in corpus.prefix_index[0]]),)

    def corpus_log_probs(self, corpus: Corpus) -> np.ndarray:
        """The log-probability of every sequence of the corpus, -inf for an
        impossible one: ``sequence_log_probs`` of its ids."""
        return sequence_log_probs(self, corpus.ids)


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
        if vocab.n < 2:
            raise ValueError("a uniform model needs a content token besides the pad")
        self.vocab = vocab
        self.length = length
        self._all = np.full(vocab.n, 1.0 / vocab.n)
        self._content = np.full(vocab.n, 1.0 / (vocab.n - 1))
        self._content[PAD_ID] = 0.0
        self._pad_onehot = np.zeros(vocab.n)
        self._pad_onehot[PAD_ID] = 1.0

    def conditionals(self, prefixes: np.ndarray) -> np.ndarray:
        prefixes = np.asarray(prefixes)
        if prefixes.shape[1] == 0:
            return np.tile(self._content, (len(prefixes), 1))
        out = np.tile(self._all, (len(prefixes), 1))
        out[prefixes[:, -1] == PAD_ID] = self._pad_onehot
        return out


class NGramModel(SequentialModel):
    """Order-k model: next token depends on the previous k-1 tokens.

    Row i of the read-only (K, n) ``table`` is q(. | contexts[i]); ``contexts``
    is a tuple of K distinct id tuples, each at most k-1 long.  Fitted
    conditionals are smoothed relative frequencies,
    (count + lambda) / (total + lambda * |smoothed alphabet|).  The pad token
    deterministically follows the pad, and unseen contexts fall back to the
    uniform distribution.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        length: int,
        order: int,
        contexts: tuple[tuple[int, ...], ...],
        table: np.ndarray,
        lam: float = 0.0,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab = vocab
        self.length = length
        self.order = order
        self.contexts = tuple(contexts)
        self.table = np.asarray(table, dtype=np.float64).view()  # the caller's array stays writable
        if self.table.shape != (len(self.contexts), vocab.n):
            raise ValueError(f"table shape {self.table.shape} is not ({len(self.contexts)}, {vocab.n})")
        self.table.flags.writeable = False
        self.lam = lam
        self._row_of = dict(zip(self.contexts, range(len(self.contexts))))
        if len(self._row_of) < len(self.contexts):
            twice = next(c for i, c in enumerate(self.contexts) if self._row_of[c] != i)
            raise ValueError(f"context {','.join(map(str, twice))!r} is listed twice")
        self._uniform = np.full(vocab.n, 1.0 / vocab.n)
        # Gathered from: an unseen context reads row -1, then is overwritten, so it must exist.
        self._source = self.table if len(self.table) else self._uniform.reshape(1, -1)
        self._pad_onehot = np.zeros(vocab.n)
        self._pad_onehot[PAD_ID] = 1.0

    def _rows(self, prefixes: np.ndarray) -> np.ndarray:
        """The table row of each prefix's context (its last order-1 ids, at most
        L), -1 for a context not in the table: one dictionary lookup per
        distinct context (``row_numbers``), gathered back to the prefixes."""
        contexts = prefixes[:, prefixes.shape[1] - min(self.order - 1, prefixes.shape[1]) :]
        codes, first = row_numbers(contexts)
        rows = [self._row_of.get(ctx, -1) for ctx in map(tuple, contexts[first].tolist())]
        return np.array(rows, dtype=np.intp)[codes]

    def conditionals(self, prefixes: np.ndarray) -> np.ndarray:
        prefixes = np.asarray(prefixes)
        rows = self._rows(prefixes)
        out = self._source[rows]
        out[rows < 0] = self._uniform
        if prefixes.shape[1]:
            out[prefixes[:, -1] == PAD_ID] = self._pad_onehot
        return out

    def token_probs(self, prefixes: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """One table entry per prefix: no (k, n) array, which at a large n would
        cost more than the lookups."""
        prefixes = np.asarray(prefixes)
        rows = self._rows(prefixes)
        out = self._source[rows, tokens]
        out[rows < 0] = self._uniform[0]
        if prefixes.shape[1]:
            after_pad = prefixes[:, -1] == PAD_ID
            out[after_pad] = self._pad_onehot[tokens[after_pad]]
        return out


def ngram_mle_fit(corpus: Corpus, order: int, lam: float = 0.0) -> NGramModel:
    """Fit an order-k model by counting, with optional Laplace smoothing.

    Positions not after a pad are grouped by ``context_groups`` and counted
    into one (contexts, n) table, smoothed and normalised in place, which
    becomes the model's table.  Smoothing mass is spread over the pad
    token only when padding actually occurs in the corpus; otherwise the pad
    keeps probability zero and the smoothed alphabet is the n-1 content tokens.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if corpus.m < 1:
        raise ValueError("empty corpus")
    if not 0 <= lam < math.inf:  # NaN too
        raise ValueError("lambda must be nonnegative and finite")
    ids, n = corpus.ids, corpus.vocab.n
    smooth = np.full(n, lam)
    if not corpus.has_padding:
        smooth[PAD_ID] = 0.0
    counted = np.ones(ids.shape, dtype=bool)
    counted[:, 1:] = ~np.logical_or.accumulate(ids[:, :-1] == PAD_ID, axis=1)
    group, contexts = context_groups(ids, order - 1, counted)
    table = np.bincount(group * n + ids[counted], weights=np.ones(len(group)),
                        minlength=len(contexts) * n).reshape(len(contexts), n)
    table += smooth
    with np.errstate(over="ignore"):  # an overflowing row sum is an error below
        denom = table.sum(axis=1, keepdims=True)
    if not np.isfinite(denom).all():
        raise ValueError(f"lambda {lam:g} is too large: a smoothed row sum overflows")
    table /= denom  # no row sum is 0: every context was counted at least once
    return NGramModel(corpus.vocab, corpus.length, order, contexts, table, lam)


def sequence_log_probs(model: SequentialModel, ids: np.ndarray) -> np.ndarray:
    """Sum of conditional log-probabilities for every row of an (m, N) id
    array; -inf marks an impossible sequence.

    One ``token_probs`` call per position, then ``summed_logs``.
    """
    probs = np.empty(ids.shape)
    for j in range(ids.shape[1]):
        probs[:, j] = model.token_probs(ids[:, :j], ids[:, j])
    return summed_logs(probs)


def _logs(probs: np.ndarray) -> np.ndarray:
    """``math.log`` of every entry, -inf where it is 0.  Not ``np.log``: it can
    differ in the last bit, which would change the traces of boosts."""
    logs = np.full(probs.shape, -math.inf)
    possible = probs > 0.0
    logs[possible] = list(map(math.log, probs[possible].tolist()))
    return logs


def summed_logs(probs: np.ndarray, cells: tuple | None = None) -> np.ndarray:
    """The sum over positions of the logs of an (m, N) array of probabilities,
    -inf for a row with a 0.  The logs are ``math.log`` and are added position
    by position, so each sum is the same float as a scalar loop.  Given a
    corpus's ``token_cells`` and its tokens' probabilities, the log of each
    distinct cell is taken once and gathered back to its positions."""
    if cells is None:
        logs = _logs(probs)
    else:
        logs = _logs(probs.reshape(-1).take(cells[0])).take(cells[1])
    total = np.zeros(len(probs))
    for j in range(probs.shape[1]):
        total += logs[:, j]
    return total


def loss_report(log_probs: np.ndarray) -> LossReport:
    """The mean negative log-likelihood of sequences with these log-probabilities,
    added sequence by sequence; ValueError names the first impossible one."""
    impossible = np.flatnonzero(np.isneginf(log_probs))
    if impossible.size:
        raise ValueError(
            f"sequence {impossible[0]} is impossible under the model (infinite loss)"
        )
    per = (-log_probs).tolist()
    # Fixed index order keeps the mean bit-reproducible.
    return LossReport(sum(per) / len(per), tuple(per))


def check_corpus(model: SequentialModel, corpus: Corpus) -> None:
    """Raise ValueError if the corpus is empty or lies outside the model's
    domain (``check_domain``)."""
    if corpus.m < 1:
        raise ValueError("empty corpus")
    check_domain(corpus, model, ("the corpus", "the model"))


def log_loss(model: SequentialModel, corpus: Corpus) -> LossReport:
    """Negative mean log-likelihood of the corpus, in nats per sequence.

    The per-sequence terms come from the model's ``corpus_log_probs`` and are
    added sequence by sequence (``loss_report``), so the result is the same
    float as a scalar loop over sequences and positions.
    """
    check_corpus(model, corpus)
    return loss_report(model.corpus_log_probs(corpus))


def sample_many(model: SequentialModel, k: int, rng_seed: int) -> np.ndarray:
    """The (k, N) ids of k sequences drawn by ancestral sampling, one
    ``conditionals`` call per position.

    Token j of sample i inverts its conditional's CDF at uniform (i, j) of
    one (k, N) block, as ``rng.choice`` does (normalise, cumsum, divide by
    the last entry, count the entries <= u), so the draws are those of k
    samples drawn one after another, token by token, with ``rng.choice``.
    """
    rng = np.random.default_rng(rng_seed)
    uniforms = rng.random((k, model.length))
    ids = np.zeros((k, model.length), dtype=np.int64)
    for j in range(model.length):
        dists = model.conditionals(ids[:, :j])
        cdf = np.cumsum(dists / dists.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        ids[:, j] = (cdf <= uniforms[:, j : j + 1]).sum(axis=1)
    return ids


class LogLinearModel:
    """q(x) proportional to exp(<theta, f(x)>) over an enumerated domain.

    ``ids`` is the (k, N) domain, one sequence of ``vocab``'s token ids per
    row, and ``features`` its (k, d) matrix, each entry in [0, 1].  The
    partition function is computed by exact enumeration over the domain
    (log-sum-exp); there is no sampling-based estimator.
    """

    def __init__(
        self,
        ids: np.ndarray,
        features: np.ndarray,
        theta: np.ndarray,
        vocab: Vocabulary,
    ):
        ids = np.asarray(ids, dtype=np.int64)
        features = np.asarray(features, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        if ids.ndim != 2:
            raise ValueError(f"domain ids must be a (k, N) array, got shape {ids.shape}")
        if not len(ids):
            raise ValueError("empty domain")
        if len(np.unique(ids, axis=0)) != len(ids):
            raise ValueError("domain ids list a sequence twice")
        if features.ndim != 2 or features.shape[0] != len(ids):
            raise ValueError(f"need one feature row per domain row ({len(ids)}), "
                             f"got shape {features.shape}")
        if features.shape[1] != self.theta.shape[0]:
            raise ValueError("feature dimension does not match theta")
        if np.any(features < -1e-12) or np.any(features > 1 + 1e-12):
            raise ValueError("feature values must lie in [0, 1]")
        if not ((ids >= 0) & (ids < vocab.n)).all():
            raise ValueError(f"domain ids must be token ids 0..{vocab.n - 1}")
        self.ids = ids
        self.features = features
        self.vocab = vocab
        self.length = ids.shape[1]

    def with_theta(self, theta: np.ndarray) -> "LogLinearModel":
        out = copy.copy(self)
        out.theta = np.asarray(theta, dtype=float)
        return out

    def scores(self) -> np.ndarray:
        return self.features @ self.theta

    def log_partition(self) -> float:
        s = self.scores()
        smax = float(s.max())
        return smax + math.log(np.exp(s - smax).sum())

    def all_probs(self) -> np.ndarray:
        """q over the domain, row i of ``ids`` at index i."""
        s = self.scores()
        s = s - s.max()
        e = np.exp(s)
        return e / e.sum()


def kl_gradient(model: LogLinearModel, p) -> np.ndarray:
    """Gradient of KL(p || q_theta) in theta: per-feature advantages.

    Component i is sum_x f_i(x) (q_theta(x) - p(x)).  ``p`` is a joint table
    sharing the model's domain (its mass must live on that domain).
    """
    check_domain(p, model, ("p", "the model"))
    p_vec = p.probs[sequence_index(p.vocab, model.ids)]
    if abs(p_vec.sum() - 1.0) > 1e-9:
        raise ValueError("mismatched domains: p has mass outside the model domain")
    return model.features.T @ (model.all_probs() - p_vec)
