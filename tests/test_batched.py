"""The array-native boosting round against the scalar loops it replaces.

The built-in indicator families carry a vectorised ``values``; wrapping the
same ``fn`` as a custom distinguisher gives the scalar loop, which serves as
the reference throughout.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from seqboost.boost import (
    BoostConfig,
    NGramIndicatorOracle,
    ReweightedModel,
    TokenIndicatorOracle,
    run_boost,
)
from seqboost.checks import make_vocab
from seqboost.corpus import Corpus, Sequence
from seqboost.distinguish import (
    StepDistinguisher,
    generalized_advantage,
    ngram_indicator,
    prefix_conditionals,
    token_indicator,
)
from seqboost.exact import JointTable
from seqboost.models import UniformModel, log_loss


def scalar(g):
    """The same function without its vectorised form: the scalar loop's input."""
    return StepDistinguisher(g.fn, label=g.label)


def corpus_prefixes(corpus):
    return {seq.prefix(j) for seq in corpus.sequences for j in range(corpus.length)}


def candidates(corpus, order):
    """Every indicator the oracle of this order searches, in its rank order."""
    vocab, k = corpus.vocab, order - 1
    contexts = {}
    for seq in corpus.sequences:
        for j in range(k, corpus.length):
            contexts.setdefault(seq.prefix(j)[j - k :], None)
    out = []
    for ctx in contexts:
        for tok in range(vocab.n):
            for flip in (False, True):
                if order == 1:
                    out.append(token_indicator(vocab, tok, flip))
                else:
                    out.append(ngram_indicator(vocab, ctx, tok, flip))
    return out


def scalar_best(q, corpus, cands):
    """The scalar oracle: the first candidate with the largest scalar advantage."""
    best_b, best_g = -math.inf, None
    for g in cands:
        b = generalized_advantage(scalar(g), corpus, q).value
        if b > best_b:
            best_b, best_g = b, g
    return best_g, best_b


@st.composite
def corpora(draw):
    n = draw(st.integers(2, 5))
    length = draw(st.integers(1, 4))
    vocab = make_vocab(n)
    seqs = []
    for _ in range(draw(st.integers(1, 6))):
        true_length = draw(st.integers(1, length))
        ids = draw(st.lists(st.integers(1, n - 1), min_size=true_length, max_size=true_length))
        seqs.append(Sequence.from_ids(ids, length))
    return Corpus(vocab, length, tuple(seqs))


@st.composite
def indicators(draw, vocab):
    """A token or n-gram indicator of order 1..3 (pad included), flipped 0-3 times."""
    tok = draw(st.integers(0, vocab.n - 1))
    if draw(st.booleans()):
        g = token_indicator(vocab, tok)
    else:
        order = draw(st.integers(1, 3))
        ctx = tuple(draw(st.lists(st.integers(0, vocab.n - 1), min_size=order - 1,
                                  max_size=order - 1)))
        g = ngram_indicator(vocab, ctx, tok)
    for _ in range(draw(st.integers(0, 3))):
        g = g.flipped()
    return g


@st.composite
def factor_lists(draw, vocab, max_size=3):
    size = draw(st.integers(0, max_size))
    return [
        (draw(st.floats(0.0, 2.0)), draw(indicators(vocab))) for _ in range(size)
    ]


@st.composite
def instances(draw):
    """A padded corpus and a model over its domain: a random JointTable, or one
    reweighted by 0-3 indicator factors."""
    corpus = draw(corpora())
    vocab, length = corpus.vocab, corpus.length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(vocab.n**length) + 0.05
    q = JointTable(vocab, length, probs / probs.sum())
    if draw(st.booleans()):
        q = ReweightedModel(q, draw(factor_lists(vocab)))
    return corpus, q


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_advantage_matches_the_scalar_loop(data):
    corpus, q = data.draw(instances())
    g = data.draw(indicators(corpus.vocab))
    batched = generalized_advantage(g, corpus, q)
    reference = generalized_advantage(scalar(g), corpus, q)
    assert np.allclose(batched.per_position, reference.per_position, rtol=0.0, atol=1e-12)
    assert abs(batched.value - reference.value) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prefix_conditionals_are_the_models_conditionals(data):
    corpus, q = data.draw(instances())
    Q = prefix_conditionals(q, corpus)
    assert Q.shape == (corpus.m, corpus.length, corpus.vocab.n)
    for i, seq in enumerate(corpus.sequences):
        for j in range(corpus.length):
            assert np.array_equal(Q[i, j], q.next_token_dist(seq.prefix(j)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_oracles_choose_the_scalar_maximum(data):
    corpus, q = data.draw(instances())
    order = data.draw(st.integers(1, min(3, corpus.length)))
    oracle = TokenIndicatorOracle() if order == 1 else NGramIndicatorOracle(order)
    chosen = oracle.propose(q, corpus)
    _, best_b = scalar_best(q, corpus, candidates(corpus, order))
    assert generalized_advantage(scalar(chosen), corpus, q).value >= best_b - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extended_matches_a_fresh_model(data):
    corpus, q = data.draw(instances())
    base = q.base if isinstance(q, ReweightedModel) else q
    factors = list(q.factors) if isinstance(q, ReweightedModel) else []
    model = ReweightedModel(base, factors)
    prefixes = sorted(corpus_prefixes(corpus))
    for b, g in data.draw(factor_lists(corpus.vocab)):
        for prefix in prefixes:
            model.next_token_dist(prefix)
        # A custom distinguisher takes the scalar path through extended().
        g = scalar(g) if data.draw(st.booleans()) else g
        model = model.extended(b, g)
        factors.append((b, g))
    fresh = ReweightedModel(base, factors)
    assert model.factors == factors
    for prefix in prefixes:
        assert np.allclose(model.next_token_dist(prefix), fresh.next_token_dist(prefix),
                           rtol=0.0, atol=1e-12)


def reference_boost(q0, corpus, order, epsilon):
    """run_boost with the scalar oracle and a fresh ReweightedModel every round."""
    cands = candidates(corpus, order)
    factors = []
    labels, bs, losses = [], [], []
    loss = log_loss(q0, corpus).log_loss
    while True:
        model = ReweightedModel(q0, factors)
        g, b = scalar_best(model, corpus, cands)
        labels.append(g.label)
        bs.append(b)
        if b < epsilon:
            losses.append(loss)
            return labels, bs, losses
        factors.append((b, g))
        loss = log_loss(ReweightedModel(q0, factors), corpus).log_loss
        losses.append(loss)


class Recorder:
    def __init__(self, inner):
        self.inner = inner
        self.labels = []

    def propose(self, q, corpus):
        g = self.inner.propose(q, corpus)
        self.labels.append(g.label)
        return g


def corpus_of(text, length):
    lines = [line.split() for line in text.strip().splitlines()]
    vocab = make_vocab(1 + len({t for line in lines for t in line}))
    seqs = tuple(Sequence.from_ids([vocab.id_of(t) for t in line], length) for line in lines)
    return Corpus(vocab, length, seqs)


def assert_same_run(corpus, order, epsilon, rounds):
    q0 = UniformModel(corpus.vocab, corpus.length)
    oracle = Recorder(TokenIndicatorOracle() if order == 1 else NGramIndicatorOracle(order))
    _, trace = run_boost(q0, corpus, oracle, BoostConfig(epsilon=epsilon))
    labels, bs, losses = reference_boost(q0, corpus, order, epsilon)
    assert len(trace.records) == rounds
    assert oracle.labels == labels
    for r, b, loss in zip(trace.records, bs, losses):
        assert abs(r.b - b) <= 1e-12 * abs(b)
        assert abs(r.log_loss - loss) <= 1e-12 * abs(loss)


def test_order_two_ngram_run_matches_the_scalar_reference():
    corpus = corpus_of("a\na b\nb a c\na\nc c\na c a\na\na c", 3)
    assert_same_run(corpus, order=2, epsilon=0.019, rounds=131)


def test_token_indicator_run_matches_the_scalar_reference():
    corpus = corpus_of(
        "a\na c\nc b c\nc a c a\na\na b\nb b c\na b a b\na\na a\nb a a\nb c a c", 4
    )
    assert_same_run(corpus, order=1, epsilon=0.003, rounds=60)
