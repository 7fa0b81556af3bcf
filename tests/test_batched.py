"""The array-native code paths against the scalar loops they replace.

Every distinguisher is read through its ``values``, except that the step-wise
advantage and reweighting apply a comparison distinguisher's ``rule`` (a
log-ratio's among them) to its models' rows; the scalar loops written
out here, which call it one prefix or sequence at a time, are the reference
for the step-wise advantage, the boosting round and the exact advantages.  A
custom distinguisher given as a scalar ``fn`` runs through the same array
code.  The models' batched ``conditionals`` and ``token_probs``, and the
layers built on them (``enumerate_joint``, ``log_loss``, ``ngram_mle_fit``,
the log-ratio oracle's bound, ``sample_many``), are checked against scalar
references too.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import seqboost.boost
from seqboost.boost import (
    BoostConfig,
    LogRatioOracle,
    NGramIndicatorOracle,
    ReweightedModel,
    TokenIndicatorOracle,
    reweight_whole,
    run_boost,
)
from seqboost.checks import make_vocab
from seqboost.cli import main
from seqboost.corpus import Corpus, Sequence, Vocabulary, context_groups, row_numbers
from seqboost.distinguish import (
    Distinguisher,
    StepDistinguisher,
    advantage_exact,
    bayes_optimal_distinguisher,
    extensions,
    generalized_advantage,
    log_ratio_distinguisher,
    minimal_ratio_bound,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
    training_advantage,
)
from seqboost.exact import (
    JointTable,
    all_ids,
    enumerate_joint,
    kl_divergence,
    sequence_index,
    total_variation,
)
from seqboost.models import (
    PAD_ID,
    SequentialModel,
    UniformModel,
    log_loss,
    loss_report,
    ngram_mle_fit,
    sample_many,
    sequence_log_probs,
)
from seqboost.serialize import model_from_text, model_to_text

from conftest import ngram, ngram_rows


def scalar(g):
    """The same function as a custom distinguisher with a scalar ``fn``."""
    return StepDistinguisher(lambda prefix: g(prefix), label=g.label)


def scalar_per_position(g, corpus, q, rows=None):
    """The step-wise advantage per position, one prefix and token at a time;
    ``rows``, if given, maps every corpus prefix to its ``next_token_dist``."""
    n = corpus.vocab.n
    per_position = []
    for j in range(1, corpus.length + 1):
        acc = 0.0
        for seq in corpus.sequences:
            prefix = seq.prefix(j - 1)
            dist = q.next_token_dist(prefix) if rows is None else rows[prefix]
            model_side = sum(float(dist[w]) * g(prefix + (w,)) for w in range(n) if dist[w] > 0)
            acc += model_side - g(seq.prefix(j))
        per_position.append(acc / corpus.m)
    return per_position


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
    """The scalar oracle: the first candidate with the largest scalar advantage.
    Each corpus prefix's row is read once, for all candidates."""
    rows = {prefix: q.next_token_dist(prefix) for prefix in corpus_prefixes(corpus)}
    best_b, best_g = -math.inf, None
    for g in cands:
        b = sum(scalar_per_position(g, corpus, q, rows)) / corpus.length
        if b > best_b:
            best_b, best_g = b, g
    return best_g, best_b


@st.composite
def corpora(draw):
    length = draw(st.integers(1, 4))
    return draw(corpora_over(make_vocab(draw(st.integers(2, 5))), length, max_size=6))


@st.composite
def corpora_over(draw, vocab, length, max_size=8):
    """A padded corpus over a given vocabulary and length, whose rows may
    repeat earlier ones, so that positions share prefixes and cells."""
    seqs = []
    for _ in range(draw(st.integers(1, max_size))):
        if seqs and draw(st.booleans()):
            seqs.append(draw(st.sampled_from(seqs)))
            continue
        true_length = draw(st.integers(1, length))
        ids = draw(st.lists(st.integers(1, vocab.n - 1), min_size=true_length,
                            max_size=true_length))
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
    kind = data.draw(st.sampled_from(["indicator", "custom", "log-ratio"]))
    if kind == "log-ratio":
        reference_model = UniformModel(corpus.vocab, corpus.length)
        g = step_log_ratio(q, reference_model, data.draw(st.floats(1.5, 10.0)),
                           flip=data.draw(st.booleans()))
    else:
        g = data.draw(indicators(corpus.vocab))
        g = scalar(g) if kind == "custom" else g
    batched = generalized_advantage(g, corpus, q)
    reference = scalar_per_position(g, corpus, q)
    assert list(batched.per_position) == reference
    assert batched.value == sum(reference) / corpus.length


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_corpus_rows_are_the_models_conditionals(data):
    """Row ``prefix_index[1][i, j]`` of ``corpus_rows`` is a fresh copy's
    ``next_token_dist`` of the first j tokens of sequence i, bit for bit."""
    corpus, q = data.draw(instances())
    rows = q.corpus_rows(corpus)
    assert rows.shape == (sum(map(len, corpus.prefix_index[0])), corpus.vocab.n)
    assert not rows.flags.writeable
    at = corpus.prefix_index[1]
    for i, seq in enumerate(corpus.sequences):
        for j in range(corpus.length):
            assert rows[at[i, j]].tobytes() == fresh(q).next_token_dist(seq.prefix(j)).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_plain_models_slot_keeps_the_last_corpus_read(data):
    """A uniform, n-gram or table model's second ``corpus_rows`` of a corpus
    makes no ``conditionals`` call and returns the same read-only array;
    another corpus, a twin with equal ids included, replaces it."""
    corpus = data.draw(corpora())
    vocab, length = corpus.vocab, corpus.length
    other = (Corpus(vocab, length, corpus.ids.copy()) if data.draw(st.booleans())
             else data.draw(corpora_over(vocab, length)))
    model, calls = data.draw(base_models(vocab, length)), []
    original = model.conditionals
    model.conditionals = lambda prefixes: calls.append(len(prefixes)) or original(prefixes)
    rows = model.corpus_rows(corpus)
    assert len(calls) == length and not rows.flags.writeable
    assert model.corpus_rows(corpus) is rows and len(calls) == length
    replaced = model.corpus_rows(other)
    assert replaced is not rows and model._slot[0] is other and len(calls) == 2 * length
    assert model.corpus_rows(corpus).tobytes() == rows.tobytes() and len(calls) == 3 * length


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_oracles_choose_the_scalar_maximum(data):
    corpus, q = data.draw(instances())
    order = data.draw(st.integers(1, min(3, corpus.length)))
    oracle = TokenIndicatorOracle() if order == 1 else NGramIndicatorOracle(order)
    chosen = oracle.propose(q, corpus)
    _, best_b = scalar_best(q, corpus, candidates(corpus, order))
    assert sum(scalar_per_position(chosen, corpus, q)) / corpus.length >= best_b - 1e-12


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
        # A custom distinguisher's values come from its scalar fn.
        g = scalar(g) if data.draw(st.booleans()) else g
        model = model.extended(b, g)
        factors.append((b, g))
    fresh = ReweightedModel(base, factors)
    assert model.factors == factors
    for prefix in prefixes:
        assert model.next_token_dist(prefix).tobytes() == fresh.next_token_dist(prefix).tobytes()


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


# ---------------------------------------------------------------------------
# Batched conditionals under every model.


@st.composite
def base_models(draw, vocab, length):
    """A uniform model, an n-gram of order 1-3 with some contexts unseen, or a
    joint table with zero-mass prefixes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ngram", "table"]))
    if kind == "uniform":
        return UniformModel(vocab, length)
    if kind == "ngram":
        order = draw(st.integers(1, 3))
        cond = {}
        for width in range(order):
            for ctx in itertools.product(range(vocab.n), repeat=width):
                if rng.random() < 0.6:
                    row = rng.random(vocab.n) * (rng.random(vocab.n) < 0.8)
                    row[rng.integers(vocab.n)] += 0.1
                    cond[ctx] = row / row.sum()
        return ngram(vocab, length, order, cond)
    probs = rng.random(vocab.n**length) * (rng.random(vocab.n**length) < 0.6)
    # Whole blocks of zeros: prefixes of length N-1 with no mass.
    probs.reshape(-1, vocab.n)[rng.random(vocab.n ** (length - 1)) < 0.4] = 0.0
    probs[rng.integers(probs.size)] += 0.1
    return JointTable(vocab, length, probs / probs.sum())


@st.composite
def models(draw):
    """A base model, or one reweighted by 0-3 factors of every kind: indicators
    (flipped or not), custom distinguishers and log-ratio distinguishers (each
    comparing the chain before it), with a partition_scale that may differ
    from 1."""
    n = draw(st.integers(2, 4))
    length = draw(st.integers(1, 3))
    vocab = make_vocab(n)
    base = draw(base_models(vocab, length))
    if draw(st.booleans()):
        return base
    scale = draw(st.sampled_from([1.0, 1.0, 1.01, 0.9]))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        b = draw(st.floats(0.0, 2.0))
        kind = draw(st.sampled_from(["indicator", "custom", "log-ratio"]))
        if kind == "log-ratio":
            reference = draw(base_models(vocab, length))
            g = step_log_ratio(ReweightedModel(base, factors, scale), reference,
                               draw(st.floats(1.5, 10.0)), flip=draw(st.booleans()))
        else:
            g = draw(indicators(vocab))
            g = scalar(g) if kind == "custom" else g
        factors.append((b, g))
    return ReweightedModel(base, factors, scale)


def fresh(model):
    """The same model with an empty slot."""
    if isinstance(model, ReweightedModel):
        return ReweightedModel(model.base, model.factors, model.partition_scale)
    return model


def scalar_reweighted(model, prefix):
    """A reweighted model's conditional by the scalar formula, one token at a time."""
    base_dist = model.base.next_token_dist(prefix)
    if not model.factors:
        return base_dist
    with np.errstate(divide="ignore"):
        logs = np.log(base_dist)
    for w in range(model.vocab.n):
        if base_dist[w] > 0.0:
            logs[w] -= sum(b * g(prefix + (w,)) for b, g in model.factors)
    finite = logs > -math.inf
    weights = np.zeros(model.vocab.n)
    weights[finite] = np.exp(logs[finite] - logs[finite].max())
    return weights / (weights.sum() * model.partition_scale)


@st.composite
def prefix_arrays(draw, model, width=None):
    """A (k, L) array of prefixes of one length (``width`` if given), pads
    anywhere, rows repeated."""
    if width is None:
        width = draw(st.integers(0, model.length - 1))
    rows = draw(st.lists(
        st.lists(st.integers(0, model.vocab.n - 1), min_size=width, max_size=width),
        min_size=0, max_size=6,
    ))
    rows = rows + rows[: draw(st.integers(0, len(rows)))]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_conditionals_and_token_probs_are_stacked_next_token_dist_rows(data):
    model = data.draw(models())
    prefixes = data.draw(prefix_arrays(model))
    tokens = np.array(data.draw(st.lists(st.integers(0, model.vocab.n - 1),
                                         min_size=len(prefixes), max_size=len(prefixes))),
                      dtype=np.int64)
    rows = fresh(model)
    stacked = np.array([rows.next_token_dist(tuple(p)) for p in prefixes.tolist()])
    stacked = stacked.reshape(len(prefixes), model.vocab.n)
    batched = fresh(model).conditionals(prefixes)
    assert batched.shape == stacked.shape
    assert batched.tobytes() == stacked.tobytes()
    probs = fresh(model).token_probs(prefixes, tokens)
    assert probs.tobytes() == stacked[np.arange(len(prefixes)), tokens].tobytes()
    if isinstance(model, ReweightedModel):
        reference = [scalar_reweighted(fresh(model), tuple(p)) for p in prefixes.tolist()]
        for got, want in zip(batched, reference):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_a_model_without_conditionals_cannot_be_built():
    class ScalarOnly(SequentialModel):
        def next_token_dist(self, prefix):
            return np.full(2, 0.5)

    with pytest.raises(TypeError):
        ScalarOnly()


def loop_samples(model, k, seed):
    """k samples one after another, token by token, each drawn with rng.choice."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        ids = []
        for _ in range(model.length):
            dist = model.next_token_dist(tuple(ids))
            ids.append(int(rng.choice(model.vocab.n, p=dist / dist.sum())))
        out.append(tuple(ids))
    return out


@st.composite
def sampled_models(draw):
    """A model ``models`` draws, or an n-gram fitted to a padded corpus,
    reweighted by 0-3 indicator factors or not."""
    if draw(st.booleans()):
        return draw(models())
    corpus = draw(corpora())
    q = ngram_mle_fit(corpus, draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.5])))
    return ReweightedModel(q, draw(factor_lists(corpus.vocab))) if draw(st.booleans()) else q


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sample_many_draws_the_loops_tokens(data):
    model = data.draw(sampled_models())
    k, seed = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 2**32 - 1))
    want = loop_samples(fresh(model), k, seed)
    draws = sample_many(fresh(model), k, seed)
    assert draws.shape == (k, model.length) and draws.dtype == np.int64
    assert [tuple(row) for row in draws.tolist()] == want
    one = sample_many(fresh(model), 1, seed)[0]
    assert tuple(one.tolist()) == loop_samples(fresh(model), 1, seed)[0]


def scalar_log_ratio(q, reference, C, flip, prefix):
    """The step log-ratio of one prefix from the two models' next_token_dist rows."""
    log_c = math.log(C)
    ctx, tok = prefix[:-1], prefix[-1]
    pq = float(q.next_token_dist(ctx)[tok])
    pr = float(reference.next_token_dist(ctx)[tok])
    if pq <= 0.0 and pr <= 0.0:
        val = 0.5
    elif pq <= 0.0:
        val = 0.0
    elif pr <= 0.0:
        val = 1.0
    else:
        val = min(max((log_c + math.log(pq) - math.log(pr)) / (2.0 * log_c), 0.0), 1.0)
    return 1.0 - val if flip else val


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_log_ratio_values_are_its_scalar_calls_bit_for_bit(data):
    q = data.draw(models())
    reference = data.draw(base_models(q.vocab, q.length))
    C, flip = data.draw(st.floats(1.01, 100.0)), data.draw(st.booleans())
    g = step_log_ratio(q, reference, C, flip=flip)
    width = data.draw(st.integers(1, q.length))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, q.vocab.n - 1), min_size=width, max_size=width),
        min_size=1, max_size=6,
    ))
    ids = np.array(rows, dtype=np.int64)
    want = np.array([scalar_log_ratio(fresh(q), reference, C, flip, tuple(row)) for row in rows])
    assert g.values(ids).tobytes() == want.tobytes()
    assert g.values(ids[None]).tobytes() == want[None].tobytes()
    assert [g(tuple(row)) for row in rows] == want.tolist()


def slot_state(model):
    """The slot's corpus, rows and logits: the same objects and bytes mean that
    nothing was replaced or written to."""
    if model._slot is None:
        return None
    corpus, *arrays = model._slot
    return id(corpus), [(id(a), a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conditionals_and_enumerate_joint_add_nothing_to_the_memo(data):
    """The slot holds only what ``corpus_rows`` and ``extended`` put there:
    reading rows, one prefix array at a time or the whole joint, leaves it as
    it was, empty or holding a corpus's rows and logits."""
    model = data.draw(models())
    if not isinstance(model, ReweightedModel) or not model.factors:
        model = ReweightedModel(model, [(0.5, token_indicator(model.vocab, 1))])
    if data.draw(st.booleans()):
        model.corpus_rows(data.draw(corpora_over(model.vocab, model.length)))
    before = slot_state(model)
    for _ in range(data.draw(st.integers(1, 3))):
        model.conditionals(data.draw(prefix_arrays(model)))
    if model.partition_scale == 1.0:  # otherwise not a joint table
        enumerate_joint(model)
    assert slot_state(model) == before


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_memo_hits_are_a_fresh_models_rows_bit_for_bit(data):
    """Over queries that repeat and permute the prefixes of the corpus in the
    slot, shuffled in with other prefixes, across prefix lengths, every row is
    the row of a fresh model, whose slot is empty: before and after
    ``extended`` carries the slot forward by one factor."""
    model = data.draw(models())
    if not isinstance(model, ReweightedModel) or not model.factors:
        model = ReweightedModel(model, [(0.5, token_indicator(model.vocab, 1))])
    corpus = data.draw(corpora_over(model.vocab, model.length))
    model.corpus_rows(corpus)

    def query():
        """Rows of one length: some of the corpus's prefixes and drawn ones, shuffled."""
        width = data.draw(st.integers(0, model.length - 1))
        known = corpus.prefix_index[0][width]
        some = data.draw(st.lists(st.integers(0, len(known) - 1), max_size=6))
        rows = np.concatenate([data.draw(prefix_arrays(model, width)), known[some]])
        return rows[data.draw(st.permutations(range(len(rows))))]

    for q in [query() for _ in range(data.draw(st.integers(1, 4)))]:
        got = model.conditionals(q)
        assert got.shape == (len(q), model.vocab.n)
        assert got.tobytes() == fresh(model).conditionals(q).tobytes()

    # Small weights and weights whose exp(-b) underflows alike.
    b = data.draw(st.one_of(st.floats(0.0, 2.0), st.floats(300.0, 1000.0)))
    child = model.extended(b, drawn_step_distinguisher(data, model))
    for q in [query() for _ in range(data.draw(st.integers(1, 3)))]:
        assert child.conditionals(q).tobytes() == fresh(child).conditionals(q).tobytes()


def stacked_conditionals(model, corpus):
    """A fresh copy's conditionals at every corpus prefix, one call per position."""
    copy = fresh(model)
    return np.stack([copy.conditionals(corpus.ids[:, :j]) for j in range(corpus.length)], axis=1)


def gathered_rows(model, corpus):
    """The model's ``corpus_rows`` gathered to every position of the corpus."""
    return model.corpus_rows(corpus).take(corpus.prefix_index[1], axis=0)


def drawn_step_distinguisher(data, model):
    """An indicator, the same as a custom distinguisher, or a log-ratio of the model."""
    kind = data.draw(st.sampled_from(["indicator", "custom", "log-ratio"]))
    if kind == "log-ratio":
        return step_log_ratio(model, data.draw(base_models(model.vocab, model.length)),
                              data.draw(st.floats(1.5, 10.0)), flip=data.draw(st.booleans()))
    g = data.draw(indicators(model.vocab))
    return scalar(g) if kind == "custom" else g


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corpus_gather_is_a_fresh_copys_stacked_conditionals_bit_for_bit(data):
    """``corpus_rows`` of a reweighted model, gathered through the corpus's
    prefix index, is a fresh copy's rows bit for bit: with no factor; along a
    chain grown by ``extended`` (indicator, custom and log-ratio factors),
    with or without handed reads of g; after rows were read at other
    prefixes; and on a twin corpus whose ids are equal but whose index is
    another, which takes the slot's place."""
    corpus = data.draw(corpora())
    vocab, length = corpus.vocab, corpus.length
    twin = Corpus(vocab, length, corpus.ids.copy())
    model = ReweightedModel(data.draw(base_models(vocab, length)), [],
                            data.draw(st.sampled_from([1.0, 0.9, 1.01])))
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            model.conditionals(data.draw(prefix_arrays(model)))
        if data.draw(st.booleans()):
            assert gathered_rows(model, twin).tobytes() == stacked_conditionals(model, twin).tobytes()
        assert gathered_rows(model, corpus).tobytes() == stacked_conditionals(model, corpus).tobytes()
        assert model._slot[0] is corpus
        g = drawn_step_distinguisher(data, model)
        handed = generalized_advantage(g, corpus, model).step_values if data.draw(st.booleans()) else ()
        model = model.extended(data.draw(st.floats(0.0, 2.0)), g, handed)
    for c in (corpus, twin):
        assert gathered_rows(model, c).tobytes() == stacked_conditionals(model, c).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extended_with_handed_values_is_extended_without_them_bit_for_bit(data):
    """``extended`` given ``generalized_advantage``'s reads of g on a corpus
    gives the child a slot for that corpus whose rows and logits are those
    that the child ``extended`` without them computes, byte for byte:
    whichever corpus, if any, the parent's slot held before, the corpus or
    its twin."""
    corpus = data.draw(corpora())
    vocab, length = corpus.vocab, corpus.length
    twin = Corpus(vocab, length, corpus.ids.copy())
    model = ReweightedModel(data.draw(base_models(vocab, length)), data.draw(factor_lists(vocab)),
                            data.draw(st.sampled_from([1.0, 0.9, 1.01])))
    for c in data.draw(st.lists(st.sampled_from([corpus, twin]), max_size=2)):
        model.corpus_rows(c)
    if data.draw(st.booleans()):
        model.conditionals(data.draw(prefix_arrays(model)))
    g = drawn_step_distinguisher(data, model)
    handed_to = data.draw(st.sampled_from([corpus, twin]))
    handed = generalized_advantage(g, handed_to, model).step_values
    assert handed[0] is handed_to
    b = data.draw(st.floats(0.0, 2.0))
    plain, child = model.extended(b, g), model.extended(b, g, handed)
    assert plain._slot is None and child._slot[0] is handed_to and model._slot is None
    rows = plain.corpus_rows(handed_to)
    assert child._slot[2].tobytes() == plain._slot[2].tobytes()
    assert child.corpus_rows(handed_to).tobytes() == rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_chain_switching_corpora_has_a_fresh_copys_rows_and_keeps_the_last_corpus(data):
    """Along a chain grown by ``extended`` (with or without handed reads of g
    on either corpus), asking for corpus A, then B, then A again gives a
    fresh copy's rows at every step, at the corpus's prefixes and at drawn
    ones, and the slot holds the corpus asked last.  B is A's twin (equal ids,
    another index) or another corpus over the same domain."""
    vocab, length = make_vocab(data.draw(st.integers(2, 4))), data.draw(st.integers(1, 3))
    a = data.draw(corpora_over(vocab, length))
    b = Corpus(vocab, length, a.ids.copy()) if data.draw(st.booleans()) else data.draw(
        corpora_over(vocab, length))
    model = ReweightedModel(data.draw(base_models(vocab, length)), [],
                            data.draw(st.sampled_from([1.0, 0.9, 1.01])))
    for _ in range(data.draw(st.integers(1, 3))):
        g = drawn_step_distinguisher(data, model)
        handed = generalized_advantage(g, data.draw(st.sampled_from([a, b])), model).step_values
        model = model.extended(data.draw(st.floats(0.0, 2.0)), g,
                               handed if data.draw(st.booleans()) else ())
        for c in (a, b, a):
            assert gathered_rows(model, c).tobytes() == stacked_conditionals(model, c).tobytes()
            assert model._slot[0] is c
            prefixes = data.draw(prefix_arrays(model))
            assert model.conditionals(prefixes).tobytes() == fresh(model).conditionals(prefixes).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_log_ratio_factor_reads_the_rows_of_the_chain_it_extends(data):
    """Along a chain grown by ``extended`` (with or without handed reads of g)
    by log-ratio factors, flipped 0-2 times, and indicators, over uniform,
    n-gram and table bases at partition scales 1.0, 0.9 and 1.01: the new
    factor's ``rule`` of the chain's rows and the reference's is its
    ``values`` on their token extensions bit for bit, and a fresh copy, which
    computes every factor from its own running rows, has the live chain's rows
    bit for bit, at drawn prefixes and at the corpus's (carried slot blocks)."""
    vocab, length = make_vocab(data.draw(st.integers(2, 4))), data.draw(st.integers(1, 3))
    corpus = data.draw(corpora_over(vocab, length))
    reference = data.draw(base_models(vocab, length))
    model = ReweightedModel(data.draw(base_models(vocab, length)), [],
                            data.draw(st.sampled_from([1.0, 0.9, 1.01])))
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            model.corpus_rows(corpus)
        if data.draw(st.booleans()):
            g = step_log_ratio(model, reference, data.draw(st.floats(1.5, 10.0)))
            for _ in range(data.draw(st.integers(0, 2))):
                g = g.flipped()
            prefixes = data.draw(prefix_arrays(model))
            values = g.rule(model.conditionals(prefixes), reference.conditionals(prefixes))
            assert values.tobytes() == g.values(extensions(prefixes, vocab.n)).tobytes()
        else:
            g = data.draw(indicators(vocab))
        handed = generalized_advantage(g, corpus, model).step_values
        model = model.extended(data.draw(st.floats(0.0, 2.0)),
                               g, handed if data.draw(st.booleans()) else ())
        prefixes = data.draw(prefix_arrays(model))
        assert model.conditionals(prefixes).tobytes() == fresh(model).conditionals(prefixes).tobytes()
        assert gathered_rows(model, corpus).tobytes() == stacked_conditionals(model, corpus).tobytes()


def plain_or_reweighted(data, vocab, length):
    """A base model, or one reweighted by 0-3 indicator factors."""
    model = data.draw(base_models(vocab, length))
    if data.draw(st.booleans()):
        model = ReweightedModel(model, data.draw(factor_lists(vocab)))
    return model


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_log_ratio_advantage_is_the_extension_read_bit_for_bit(data):
    """``generalized_advantage`` of a log-ratio g, which reads its two models'
    ``corpus_rows``, is the read of g's ``values`` on the token extensions of
    the corpus's distinct prefixes bit for bit: the value, the per-position
    terms and the step reads.  g is flipped 0-2 times; its q is a base model
    or a reweighted one (log-ratio factors included), and the advantage is
    taken under g's q or another model; the reference is uniform, an n-gram,
    a table or reweighted; either model's slot may hold the corpus's twin."""
    q = data.draw(models())
    vocab, length = q.vocab, q.length
    corpus = data.draw(corpora_over(vocab, length))
    reference = plain_or_reweighted(data, vocab, length)
    g = step_log_ratio(q, reference, data.draw(st.floats(1.01, 100.0)))
    for _ in range(data.draw(st.integers(0, 2))):
        g = g.flipped()
    under = q if data.draw(st.booleans()) else plain_or_reweighted(data, vocab, length)
    twin = Corpus(vocab, length, corpus.ids.copy())
    for model in (q, reference):
        if data.draw(st.booleans()):
            model.corpus_rows(twin)
    reads = np.concatenate([g.values(extensions(p, vocab.n)) for p in corpus.prefix_index[0]])
    want = generalized_advantage(Distinguisher(values=g.values, label=g.label), corpus, under)
    got = generalized_advantage(g, corpus, under)
    assert got.step_values[0] is corpus
    assert got.step_values[1].tobytes() == want.step_values[1].tobytes() == reads.tobytes()
    assert got.per_position == want.per_position and got.value == want.value


def next_token_distinguisher(q, reference, flips):
    """g* = 1[q(w | h) > reference(w | h)], the next-token comparison, flipped ``flips`` times."""
    g = Distinguisher(label="next-token", models=(q, reference),
                      rule=lambda pq, pr: (pq > pr).astype(float))
    for _ in range(flips):
        g = g.flipped()
    return g


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_comparison_rule_that_is_not_a_log_ratio_is_read_as_one_is(data):
    """The next-token distinguisher g* = 1[q > p_hat], flipped 0-2 times, with
    a q that is a base model or a reweighted one: its ``values`` on token
    extensions are its rule of both models' ``token_probs``;
    ``generalized_advantage``'s reads, from both models' ``corpus_rows``, are
    that extension read bit for bit; and a chain grown by ``extended`` (with
    or without handed reads) by such factors has a fresh copy's rows bit for
    bit, and refuses a factor that compares another model."""
    vocab, length = make_vocab(data.draw(st.integers(2, 4))), data.draw(st.integers(1, 3))
    corpus = data.draw(corpora_over(vocab, length))
    p_hat = data.draw(base_models(vocab, length))
    q, flips = plain_or_reweighted(data, vocab, length), data.draw(st.integers(0, 2))
    g = next_token_distinguisher(q, p_hat, flips)
    ext = extensions(data.draw(prefix_arrays(q)), vocab.n)
    rows = ext.reshape(-1, ext.shape[-1])
    want = (q.token_probs(rows[:, :-1], rows[:, -1])
            > p_hat.token_probs(rows[:, :-1], rows[:, -1])).astype(float)
    for _ in range(flips):
        want = 1.0 - want
    assert g.values(ext).tobytes() == want.reshape(ext.shape[:-1]).tobytes()
    reads = np.concatenate([g.values(extensions(p, vocab.n)) for p in corpus.prefix_index[0]])
    assert generalized_advantage(g, corpus, q).step_values[1].tobytes() == reads.tobytes()

    model = ReweightedModel(data.draw(base_models(vocab, length)), [],
                            data.draw(st.sampled_from([1.0, 0.9, 1.01])))
    for _ in range(data.draw(st.integers(1, 3))):
        g = next_token_distinguisher(model, p_hat, data.draw(st.integers(0, 2)))
        handed = generalized_advantage(g, corpus, model).step_values
        model = model.extended(data.draw(st.floats(0.0, 2.0)),
                               g, handed if data.draw(st.booleans()) else ())
        prefixes = data.draw(prefix_arrays(model))
        assert model.conditionals(prefixes).tobytes() == fresh(model).conditionals(prefixes).tobytes()
        assert gathered_rows(model, corpus).tobytes() == stacked_conditionals(model, corpus).tobytes()
    other = next_token_distinguisher(q, p_hat, 0)
    with pytest.raises(ValueError, match="chain before it"):
        model.extended(0.5, other)
    with pytest.raises(ValueError, match="chain before it"):
        ReweightedModel(model.base, model.factors + [(0.5, other)], model.partition_scale)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_memo_keeps_prefixes_apart_when_n_to_the_L_overflows_int64(data):
    """Over 1,201 tokens, 7-token prefixes number 1201^7 > 2^63.  Prefixes that
    differ only in their first token get their own rows, in a query and in a
    corpus's slot alike: only the one that matches a 7-token n-gram
    indicator's context is reweighted."""
    n, L = 1201, 7
    assert n**L > 2**63
    vocab = Vocabulary.build(f"w{i}" for i in range(1, n))
    assert vocab.n == n
    tail = data.draw(st.lists(st.integers(1, n - 1), min_size=L - 1, max_size=L - 1))
    firsts = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=5, unique=True))
    tok = data.draw(st.integers(1, n - 1))
    model = ReweightedModel(UniformModel(vocab, L + 1),
                            [(1.0, ngram_indicator(vocab, (firsts[0], *tail), tok))])
    held = data.draw(st.lists(st.integers(0, len(firsts) - 1), max_size=4))
    if held:  # these prefixes in the slot, the others not
        corpus = Corpus(vocab, L + 1, np.array([[firsts[i], *tail, tok] for i in held]))
        model.corpus_rows(corpus)
        assert len(corpus.prefix_index[0][L]) == len(set(held)) and model._slot[0] is corpus
    order = data.draw(st.lists(st.integers(0, len(firsts) - 1), min_size=1, max_size=8))
    prefixes = np.array([[firsts[i], *tail] for i in order], dtype=np.int64)
    got = model.conditionals(prefixes)
    assert got.tobytes() == fresh(model).conditionals(prefixes).tobytes()
    uniform = np.full(n, 1.0 / n)
    for i, row in zip(order, got):
        if i == 0:
            assert row[tok] < uniform[tok] and np.isclose(row.sum(), 1.0)
        else:
            assert row.tobytes() == model.next_token_dist(tuple([firsts[i], *tail])).tobytes()
            np.testing.assert_allclose(row, uniform, rtol=1e-12)


@pytest.mark.parametrize("block", [1, 9, 50])
def test_blocked_logits_are_the_unblocked_bit_for_bit(monkeypatch, block):
    """With EXTENSION_BLOCK small, ``_logits`` splits each prefix array into
    blocks and joins their logits; a chain of token, n-gram and log-ratio
    factors gives the same ``conditionals`` and ``enumerate_joint`` bits."""
    vocab, length = make_vocab(4), 3
    corpus = Corpus(vocab, length, np.array([[1, 2, 3], [2, 2, 0], [3, 1, 2], [1, 3, 0]]))
    model = ReweightedModel(ngram_mle_fit(corpus, 2, 0.5), [
        (0.4, token_indicator(vocab, 1)), (0.3, ngram_indicator(vocab, (2,), 3, flip=True))])
    model = model.extended(0.2, step_log_ratio(model, ngram_mle_fit(corpus, 3, 0.5), 5.0))
    model = model.extended(0.1, token_indicator(vocab, 2, flip=True))
    calls, original = [], ReweightedModel._logits
    monkeypatch.setattr(ReweightedModel, "_logits", lambda self, p: (
        calls.append(len(p)) or original(self, p)))
    prefixes = [all_ids(vocab.n, L) for L in range(length)]
    want = [fresh(model).conditionals(p) for p in prefixes]
    joint = enumerate_joint(fresh(model)).probs
    unblocked = len(calls)
    calls.clear()
    monkeypatch.setattr(seqboost.boost, "EXTENSION_BLOCK", block)
    for p, rows in zip(prefixes, want):
        assert fresh(model).conditionals(p).tobytes() == rows.tobytes()
    assert enumerate_joint(fresh(model)).probs.tobytes() == joint.tobytes()
    assert len(calls) > unblocked  # some array was split into blocks


def chain_rule_table(model):
    """The joint by the chain rule, one sequence and one prefix at a time:
    log-probabilities summed from 0 in position order, then exponentiated."""
    n, N = model.vocab.n, model.length
    logs = []
    with np.errstate(divide="ignore"):
        for ids in itertools.product(range(n), repeat=N):
            lp = np.float64(0.0)
            for j in range(N):
                lp = lp + np.log(model.next_token_dist(ids[:j]))[ids[j]]
            logs.append(lp)
    return np.exp(np.array(logs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_enumerate_joint_is_the_scalar_chain_rule_bit_for_bit(data):
    model = data.draw(models())
    want = chain_rule_table(fresh(model))
    if abs(want.sum() - 1.0) > 1e-9:  # a mis-scaled partition is not a joint table
        with pytest.raises(ValueError, match="do not sum to 1"):
            enumerate_joint(fresh(model))
    else:
        assert enumerate_joint(fresh(model)).probs.tobytes() == want.tobytes()


def scalar_log_loss(model, corpus):
    """The mean of -sum(math.log(q(x_j | x_<j))) over the corpus, or the index
    of the first sequence with a zero-probability token."""
    per = []
    for i, seq in enumerate(corpus.sequences):
        probs = [float(model.next_token_dist(seq.prefix(j))[seq.token_ids[j]])
                 for j in range(corpus.length)]
        if min(probs) <= 0.0:
            return i
        per.append(-sum(math.log(p) for p in probs))
    return sum(per) / corpus.m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_log_loss_matches_the_scalar_loop(data):
    model = data.draw(models())
    corpus = data.draw(corpora_over(model.vocab, model.length))
    want = scalar_log_loss(fresh(model), corpus)
    if isinstance(want, int):
        with pytest.raises(ValueError, match=f"^sequence {want} is impossible"):
            log_loss(fresh(model), corpus)
    else:
        got = log_loss(fresh(model), corpus)
        assert abs(got.log_loss - want) <= 1e-12 * abs(want)
        assert got.log_loss == sum(got.per_sequence) / corpus.m


def loss_or_error(loss, model, corpus):
    """``loss(model, corpus)``, or the message of the ValueError it raises."""
    try:
        return loss(model, corpus)
    except ValueError as exc:
        return str(exc)


def token_probs_loss(model, corpus):
    """The loss from one ``token_probs`` call per position on a fresh copy."""
    return loss_report(sequence_log_probs(fresh(model), corpus.ids))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_reweighted_models_log_loss_is_the_token_probs_loop(data):
    """``log_loss`` of a reweighted model, read from ``corpus_rows``
    with one log per distinct (prefix, token) cell, is the per-position
    ``token_probs`` loop's report with ``==``, or raises its error naming the
    same sequence: for a fresh chain, a chain grown by ``extended`` (with or
    without handed reads of g), a reloaded chain, a partition_scale other
    than 1, and a slot holding another corpus's prefixes."""
    vocab, length = make_vocab(data.draw(st.integers(2, 4))), data.draw(st.integers(1, 4))
    corpus = data.draw(corpora_over(vocab, length))
    base = data.draw(base_models(vocab, length))
    scale = data.draw(st.sampled_from([1.0, 0.9, 1.01]))
    factors = data.draw(factor_lists(vocab))
    how = data.draw(st.sampled_from(["fresh", "extended", "reloaded"]))
    if how == "extended":
        model = ReweightedModel(base, [], scale)
        for b, g in factors:
            if data.draw(st.booleans()):
                model.corpus_rows(corpus)
            handed = generalized_advantage(g, corpus, model).step_values
            model = model.extended(b, g, handed if data.draw(st.booleans()) else ())
    elif how == "reloaded":  # a joint table has no model file
        base = UniformModel(vocab, length) if isinstance(base, JointTable) else base
        model = model_from_text(model_to_text(ReweightedModel(base, factors)))
    else:
        model = ReweightedModel(base, factors, scale)
    want = loss_or_error(token_probs_loss, model, corpus)
    if data.draw(st.booleans()):
        model.corpus_rows(data.draw(corpora_over(vocab, length)))
    assert loss_or_error(log_loss, model, corpus) == want


def test_log_loss_reports_the_first_impossible_sequence():
    train = corpus_of("a b\na b\nb a", 2)
    model = ngram_mle_fit(train, 2)
    vocab = train.vocab
    held = Corpus(vocab, 2, tuple(
        Sequence.from_ids([vocab.id_of(t) for t in line.split()], 2)
        for line in ["a b", "b a", "a a", "b b", "a a"]
    ))
    assert scalar_log_loss(model, held) == 2
    with pytest.raises(ValueError, match="^sequence 2 is impossible"):
        log_loss(model, held)


def loop_ngram_fit(corpus, order, lam):
    """Counting one prefix at a time: the fit's reference, rows in first-appearance order."""
    n = corpus.vocab.n
    counts = {}
    for seq in corpus.sequences:
        for j in range(corpus.length):
            prefix = seq.prefix(j)
            if prefix and prefix[-1] == PAD_ID:
                break
            ctx = prefix[-(order - 1):] if order > 1 else ()
            counts.setdefault(ctx, np.zeros(n))[seq.token_ids[j]] += 1.0
    smooth = np.full(n, lam)
    if not corpus.has_padding:
        smooth[PAD_ID] = 0.0
    cond = {}
    for ctx, c in counts.items():
        numer = c + smooth
        denom = numer.sum()
        cond[ctx] = numer / denom if denom > 0 else np.full(n, 1.0 / n)
    return cond


@settings(max_examples=200, deadline=None)
@given(corpora(), st.integers(1, 3), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_ngram_fit_rows_are_the_loops_bit_for_bit(corpus, order, lam):
    fitted = ngram_rows(ngram_mle_fit(corpus, order, lam))
    want = loop_ngram_fit(corpus, order, lam)
    assert list(fitted) == list(want)
    for ctx, row in want.items():
        assert fitted[ctx].tobytes() == row.tobytes()


# The two masks the library counts under: the fit's (no position after a pad)
# and the indicator oracle's (positions with a whole context before them).
COUNTED = {
    "fit": lambda prefix, width: PAD_ID not in prefix,
    "oracle": lambda prefix, width: len(prefix) >= width,
}


@settings(max_examples=300, deadline=None)
@given(corpora(), st.integers(0, 3), st.sampled_from(sorted(COUNTED)))
def test_context_groups_match_a_dict_loop(corpus, width, mask):
    keep = COUNTED[mask]
    counted = np.array([[keep(seq.prefix(j), width) for j in range(corpus.length)]
                        for seq in corpus.sequences]).reshape(corpus.ids.shape)
    ranks, want = {}, []
    for seq in corpus.sequences:
        for j in range(corpus.length):
            if keep(seq.prefix(j), width):
                want.append(ranks.setdefault(seq.prefix(j)[max(0, j - width):], len(ranks)))
    group, contexts = context_groups(corpus.ids, width, counted)
    assert group.tolist() == want
    assert contexts == list(ranks)


@st.composite
def id_rows(draw):
    """A (k, w) array of ints >= -1, k 0-40 and w 0-4.  Entries up to 3 give key
    spaces within 4k, numbered by counting, unless k is tiny; entries up to 10^6
    give wide ones, numbered by ``np.unique``."""
    k, w = draw(st.integers(0, 40)), draw(st.integers(0, 4))
    top = draw(st.sampled_from([0, 1, 3, 10**6]))
    entries = draw(st.lists(st.integers(-1, top), min_size=k * w, max_size=k * w))
    return np.array(entries, dtype=np.int64).reshape(k, w)


@settings(max_examples=300, deadline=None)
@given(id_rows())
def test_row_numbers_rank_the_distinct_rows_and_find_each_ones_first(rows):
    tuples = list(map(tuple, rows.tolist()))
    distinct = sorted(set(tuples))
    codes, first = row_numbers(rows)
    assert codes.dtype == first.dtype == np.intp
    assert codes.tolist() == [distinct.index(t) for t in tuples]
    assert first.tolist() == [tuples.index(t) for t in distinct]


@pytest.mark.parametrize("top, k, sorts", [(3, 110, 0), (10**6, 3, 1), (10**6, 0, 0)])
def test_row_numbers_sort_only_a_wide_key_space(monkeypatch, top, k, sorts):
    """One column: a key space within 4k (entries up to 3 among 110 rows) is
    counted; a wide one (an entry of 10^6 among 3 rows) takes one np.unique."""
    rows = np.random.default_rng(0).integers(-1, top + 1, size=(k, 1))
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(0) or unique(*a, **kw))
    codes, first = row_numbers(rows)
    assert len(calls) == sorts
    _, want_first, want_codes = unique(rows[:, 0], return_index=True, return_inverse=True)
    assert codes.tolist() == want_codes.tolist() and first.tolist() == want_first.tolist()


@st.composite
def ngram_batches(draw):
    """An order 1-4 n-gram with some contexts unseen, a (k, L) prefix array,
    k 0-12 and L 0-5 (so some prefixes are shorter than order-1), pads anywhere,
    and a next token for each prefix."""
    n, order = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = {}
    for width in range(order):
        for ctx in itertools.product(range(n), repeat=width):
            if rng.random() < 0.5:
                cond[ctx] = rng.dirichlet(np.ones(n))
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=width, max_size=width),
                         min_size=0, max_size=12))
    prefixes = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    tokens = draw(st.lists(st.integers(0, n - 1), min_size=len(rows), max_size=len(rows)))
    return ngram(make_vocab(n), 6, order, cond), prefixes, np.array(tokens, dtype=np.int64)


def assert_ngram_rows_are_dict_lookups(model, prefixes, tokens):
    """``conditionals`` and ``token_probs`` against per-prefix lookups in the
    model's rows by context, bit for bit."""
    n, pad, rows = model.vocab.n, np.eye(model.vocab.n)[PAD_ID], ngram_rows(model)
    want = np.array([
        pad if p and p[-1] == PAD_ID
        else rows.get(tuple(p[max(0, len(p) - model.order + 1):]), np.full(n, 1.0 / n))
        for p in prefixes.tolist()
    ]).reshape(len(prefixes), n)
    got = model.conditionals(prefixes)
    assert got.shape == (len(prefixes), n)
    assert got.tobytes() == want.tobytes()
    probs = model.token_probs(prefixes, tokens)
    assert probs.shape == (len(prefixes),)
    assert probs.tobytes() == np.array([w[t] for w, t in zip(want, tokens.tolist())]).tobytes()


@settings(max_examples=300, deadline=None)
@given(ngram_batches())
def test_ngram_conditionals_are_per_row_dict_lookups_bit_for_bit(batch):
    assert_ngram_rows_are_dict_lookups(*batch)


SIX_CONTEXTS = {ctx: np.array([0.0, 0.25, 0.75]) for ctx in [(), (1,), (2,), (1, 2), (0, 1), (1, 0)]}


@pytest.mark.parametrize("make", [
    lambda order: ngram(make_vocab(3), 6, order, SIX_CONTEXTS),
    # A model file with no context= lines: every row not after a pad is uniform.
    lambda order: model_from_text(model_to_text(ngram(make_vocab(3), 6, order, {}))),
], ids=["six-contexts", "no-contexts"])
@pytest.mark.parametrize("order, rows", [
    (3, np.zeros((0, 4), dtype=np.int64)),  # an empty batch
    (3, np.zeros((4, 0), dtype=np.int64)),  # width 0: the empty context
    (1, np.array([[1, 2], [2, 1]])),  # order 1: every row the empty context
    (4, np.array([[1], [2], [1]])),  # shorter than order - 1
    (3, np.array([[1, 1, 2], [2, 2, 2], [2, 1, 2]])),  # (2, 2) unseen
    (3, np.array([[1, 0, 0], [1, 2, 0], [0, 1, 1], [1, 0, 1]])),  # rows after a pad
])
def test_ngram_conditionals_edge_cases(make, order, rows):
    model = make(order)
    for shift in range(3):
        assert_ngram_rows_are_dict_lookups(model, rows, (np.arange(len(rows)) + shift) % 3)


def scalar_bound(q, reference, corpus, cap):
    worst = 1.0
    for seq in corpus.sequences:
        for j in range(corpus.length):
            dq = q.next_token_dist(seq.prefix(j))
            dr = reference.next_token_dist(seq.prefix(j))
            both = (dq > 0) & (dr > 0)
            if np.any(both):
                r = dq[both] / dr[both]
                worst = max(worst, float(r.max()), float((1.0 / r).max()))
    return min(max(worst, 1.0 + 1e-12), cap)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_log_ratio_bound_is_the_scalar_loops(data):
    model = data.draw(models())
    reference = data.draw(base_models(model.vocab, model.length))
    corpus = data.draw(corpora_over(model.vocab, model.length))
    cap = data.draw(st.sampled_from([1e6, 3.0]))
    with mock.patch.object(seqboost.boost, "RATIO_CAP", cap):
        bound = LogRatioOracle(reference)._bound(fresh(model), corpus)
    assert bound == scalar_bound(fresh(model), reference, corpus, cap)


# ---------------------------------------------------------------------------
# Whole-sequence distinguishers over an enumerated domain.


@st.composite
def enumerated_instances(draw):
    """Tables p, q and q2 over one domain (n 2..5, N 1..3), each with some zero
    entries: q2 shares q's support, and r's support is a part of q's.  Also a
    corpus over the whole domain and one over q's support."""
    n, length = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    vocab, size = make_vocab(n), n**length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def support():
        live = rng.random(size) < 0.7
        live[rng.integers(size)] = True
        return live

    def table(live):
        probs = rng.random(size) * live
        return JointTable(vocab, length, probs / probs.sum())

    def corpus(rows):
        seqs = tuple(Sequence.from_raw(ids) for ids in q.ids[rows].tolist())
        return Corpus(vocab, length, seqs)

    q_live = support()
    q, q2, p = table(q_live), table(q_live), table(support())
    r_live = q_live & support()
    r_live[np.flatnonzero(q_live)[0]] = True
    r = table(r_live)
    m = draw(st.integers(1, 8))
    anywhere = corpus(rng.integers(size, size=m))
    inside = corpus(rng.choice(np.flatnonzero(q_live), size=m))
    return p, q, q2, r, anywhere, inside, rng.random(size)


def scalar_sequence_log_prob(model, ids):
    total = 0.0
    for j in range(len(ids)):
        p = float(model.next_token_dist(tuple(ids[:j]))[ids[j]])
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def scalar_advantage(f, p, q):
    domain = map(tuple, p.ids.tolist())
    return sum(f(x) * (qx - px) for x, px, qx in zip(domain, p.probs, q.probs) if px > 0 or qx > 0)


def scalar_training_advantage(f, corpus, q):
    table = enumerate_joint(q)
    domain = map(tuple, table.ids.tolist())
    model_mean = sum(f(x) * px for x, px in zip(domain, table.probs) if px > 0)
    return model_mean - sum(f(tuple(x)) for x in corpus.ids.tolist()) / corpus.m


@settings(max_examples=150, deadline=None)
@given(enumerated_instances(), st.floats(0.0, 3.0))
def test_exact_advantages_match_the_scalar_loops(instance, a):
    p, q, q2, r, anywhere, inside, fvals = instance
    vocab = q.vocab
    array_f = Distinguisher(values=lambda ids: fvals[sequence_index(vocab, ids)])
    custom_f = Distinguisher(lambda x: float(fvals[sequence_index(vocab, x)]))
    domain = [tuple(x) for x in q.ids.tolist()]
    for f in (array_f, custom_f):
        assert abs(advantage_exact(f, p, q) - scalar_advantage(f, p, q)) <= 1e-12
        got = training_advantage(f, anywhere, q)
        assert abs(got.value - scalar_training_advantage(f, anywhere, q)) <= 1e-12
        want = q.probs * np.array([math.exp(-a * f(x)) for x in domain])
        np.testing.assert_allclose(reweight_whole(q, f, a).probs, want / want.sum(),
                                   rtol=0.0, atol=1e-12)
    bayes = bayes_optimal_distinguisher(p, q)
    assert [bayes(x) for x in domain] == [float(qx > px) for px, qx in zip(p.probs, q.probs)]
    assert abs(advantage_exact(bayes, p, q) - scalar_advantage(bayes, p, q)) <= 1e-12
    C = minimal_ratio_bound(q, q2)
    log_ratio = log_ratio_distinguisher(q, q2, C)
    for ids in q.ids[q.probs > 0].tolist():
        lq, lq2 = scalar_sequence_log_prob(q, ids), scalar_sequence_log_prob(q2, ids)
        want = (math.log(C) + lq - lq2) / (2.0 * math.log(C))
        assert log_ratio.values(np.array(ids)) == min(max(want, 0.0), 1.0)
    # The log-ratio raises on a sequence outside q's support, so these pass
    # only if nothing is evaluated outside both tables' supports.
    assert abs(advantage_exact(log_ratio, r, q) - scalar_advantage(log_ratio, r, q)) <= 1e-12
    got = training_advantage(log_ratio, inside, q)
    assert abs(got.value - scalar_training_advantage(log_ratio, inside, q)) <= 1e-12
    dead = np.flatnonzero(q.probs == 0)
    if dead.size:
        with pytest.raises(ValueError, match="outside the shared support"):
            log_ratio.values(q.ids[dead])


# ---------------------------------------------------------------------------
# seqboost eval --table: the batched enumeration through the CLI.


@pytest.fixture
def bigram_file(tmp_path):
    corpus = tmp_path / "aab.txt"
    corpus.write_text("a\na a\na b\n")
    model = tmp_path / "bigram.txt"
    result = CliRunner().invoke(main, ["fit", "--corpus", str(corpus), "--length", "2",
                                       "--order", "2", "--lam", "0.1", "--model-out", str(model)])
    assert result.exit_code == 0
    return model


def eval_table(tmp_path, model, rows):
    table = tmp_path / "table.csv"
    table.write_text("sequence,prob\n" + "".join(row + "\n" for row in rows))
    return CliRunner().invoke(main, ["eval", "--model", str(model), "--table", str(table)])


@pytest.mark.parametrize("rows, message", [
    (["x a,1"], "token 'x' not in vocabulary"),
    (["a a b,1"], "3 tokens, need 1..2"),
    (["<pad> <pad> a,1"], "3 tokens, need 1..2"),
    ([",1"], "0 tokens, need 1..2"),
    (["a a,0.5"], "do not sum to 1"),
    (["a a,1.5", "a b,-0.5"], "negative probability"),
    (["a a,nan"], "not finite"),
    (["a a,half"], "could not convert"),
    (["a,0.5", "b,0.25", "a,0.25"], "table line 4: sequence 'a' listed twice"),
    # A padded model gives no mass after a pad, and a label is padded as a
    # corpus line is, so the pad may not stand in a label.
    (["a,0.5", "a <pad>,0.5"], "table line 3: the pad token '<pad>' may not appear in a label"),
    (["<pad> a,1"], "table line 2: the pad token '<pad>' may not appear in a label"),
    (["<pad>,1"], "table line 2: the pad token '<pad>' may not appear in a label"),
])
def test_malformed_tables_are_usage_errors(tmp_path, bigram_file, rows, message):
    result = eval_table(tmp_path, bigram_file, rows)
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("text", ["a a,0.75\na b,0.25\n", "", "sequence;prob\na a,1\n"])
def test_a_table_without_its_header_is_a_usage_error(tmp_path, bigram_file, text):
    # Read as a header, the first row would be lost, and the table would then
    # fail for not summing to 1.
    table = tmp_path / "table.csv"
    table.write_text(text)
    result = CliRunner().invoke(main, ["eval", "--model", str(bigram_file), "--table", str(table)])
    assert result.exit_code == 2
    header = text.splitlines()[0] if text else ""
    assert f"table line 1: {header!r} is not 'sequence,prob'" in result.output


def test_missing_table_is_a_usage_error(tmp_path, bigram_file):
    result = CliRunner().invoke(main, ["eval", "--model", str(bigram_file),
                                       "--table", str(tmp_path / "nope.csv")])
    assert result.exit_code == 2
    assert "cannot read table" in result.output


def test_table_past_the_budget_is_a_usage_error(tmp_path, bigram_file):
    table = tmp_path / "table.csv"
    table.write_text("sequence,prob\na a,1\n")
    result = CliRunner().invoke(main, ["eval", "--model", str(bigram_file),
                                       "--table", str(table), "--budget", "8"])
    assert result.exit_code == 2
    assert "budget exceeded" in result.output


def test_short_label_is_padded_like_a_corpus_line(tmp_path, bigram_file):
    short = eval_table(tmp_path, bigram_file, ["a,0.5", "a a,0.25", "a b,0.25"])
    assert short.exit_code == 0
    model = model_from_text(bigram_file.read_text())
    vocab, probs = model.vocab, np.zeros(model.vocab.n**2)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    for ids, p in (((a, PAD_ID), 0.5), ((a, a), 0.25), ((a, b), 0.25)):
        probs[sequence_index(vocab, ids)] = p
    table, joint = JointTable(vocab, 2, probs), enumerate_joint(model)
    assert short.output == (f"kl(table||model): {kl_divergence(table, joint):.6g} nats\n"
                            f"tvd(table,model): {total_variation(table, joint):.6g}\n")
    assert "inf" not in short.output
    # The pad itself is refused, not read as the padding it would stand for.
    padded = eval_table(tmp_path, bigram_file, ["a <pad>,0.5", "a a,0.25", "a b,0.25"])
    assert padded.exit_code == 2
    assert "table line 2: the pad token '<pad>' may not appear in a label" in padded.output
