#!/usr/bin/env python3
"""Print one sha256 per artefact that the library computes at fixed seeds.

Usage: fingerprint.py

Two sources that compute the same bits print the same lines, so a change
that must keep every output is checked by running this script on the parent
and on the change and comparing the two outputs (``cmp`` or ``diff``).  The
artefacts:

- for each oracle (token indicator, order-3 n-gram indicator, log-ratio
  against an order-2 fit with lambda 0.5), on 40 ``checks.random_corpus``
  instances: the boost traces, the boosted models' files, the conditionals
  of the reloaded models on the corpus's distinct prefixes, and the
  ``enumerate_joint`` bytes of the boosted models;
- ``ngram_mle_fit`` model text at orders 1-3 and lambda 0 and 0.5, on those
  corpora and on one Zipf corpus whose bigram spans several row blocks;
- ``default_suites()`` at partition scales 1.0 and 1.01.
"""

import hashlib

import numpy as np

from seqboost import (
    BoostConfig, Corpus, UniformModel, Vocabulary, enumerate_joint, ngram_mle_fit, run_boost,
)
from seqboost.boost import make_oracle
from seqboost.checks import default_suites, make_vocab, random_corpus
from seqboost.serialize import model_from_text, model_to_text

CORPORA = 40
ORACLES = ("token-indicator", "ngram-indicator", "log-ratio")
EPSILON = 0.005


def corpora() -> list[Corpus]:
    """40 corpora of 2-5 tokens, length 3-5 (room for an order-3 context) and
    4-29 lines, each from its own seed."""
    out = []
    for seed in range(CORPORA):
        rng = np.random.default_rng(seed)
        vocab = make_vocab(int(rng.integers(2, 6)))
        out.append(random_corpus(rng, vocab, int(rng.integers(3, 6)), int(rng.integers(4, 30))))
    return out


def zipf_corpus() -> Corpus:
    """2,000 lines of 1-8 tokens drawn from a Zipf law over 300 tokens."""
    rng = np.random.default_rng(0)
    n, length, m = 301, 8, 2000
    weights = 1.0 / np.arange(1, n) ** 1.1
    ids = np.zeros((m, length), dtype=np.int64)
    for i, k in enumerate(rng.integers(1, length + 1, size=m).tolist()):
        ids[i, :k] = rng.choice(np.arange(1, n), size=k, p=weights / weights.sum())
    return Corpus(Vocabulary.build(f"w{t}" for t in range(1, n)), length, ids)


def main() -> int:
    hashes = {}

    def add(artefact: str, data) -> None:
        hashes.setdefault(artefact, hashlib.sha256()).update(
            data if isinstance(data, bytes) else data.encode("utf-8"))

    samples = corpora()
    for corpus in samples:
        reference = ngram_mle_fit(corpus, 2, 0.5)
        for kind in ORACLES:
            oracle = make_oracle(kind, order=3, reference=reference)
            model, trace = run_boost(UniformModel(corpus.vocab, corpus.length), corpus, oracle,
                                     BoostConfig(epsilon=EPSILON))
            text = model_to_text(model)
            loaded = model_from_text(text)
            add(f"{kind} traces", trace.to_csv_text())
            add(f"{kind} model files", text)
            for prefixes in corpus.prefix_index[0]:
                add(f"{kind} reload conditionals", loaded.conditionals(prefixes).tobytes())
            add(f"{kind} joints", enumerate_joint(model).probs.tobytes())
    for corpus in samples + [zipf_corpus()]:
        for order in (1, 2, 3):
            for lam in (0.0, 0.5):
                add("ngram_mle_fit model files", model_to_text(ngram_mle_fit(corpus, order, lam)))
    for scale in (1.0, 1.01):
        for r in default_suites(scale):
            add(f"default_suites({scale})", f"{r.name},{r.instances},{r.min_slack.hex()},{r.passed}\n")
    for artefact, h in hashes.items():
        print(h.hexdigest(), artefact)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
