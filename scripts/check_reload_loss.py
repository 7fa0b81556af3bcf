#!/usr/bin/env python3
"""Check that a saved model's loss on a corpus is a boost trace's final loss.

Usage: check_reload_loss.py MODEL CORPUS TRACE

Loads MODEL, reads CORPUS at the model's length over its vocabulary, and
compares its log-loss with the loss on the last line of the TRACE CSV to all
17 digits, with ==.  Exits 0 when they are equal and 1 when they differ.
"""

import sys

from seqboost import load_corpus, log_loss
from seqboost.serialize import load_model


def main(model_path: str, corpus_path: str, trace_path: str) -> int:
    model = load_model(model_path)
    corpus, _ = load_corpus(corpus_path, model.length, model.vocab)
    with open(trace_path, encoding="utf-8") as fh:
        want = float(fh.read().splitlines()[-1].split(",")[2])
    got = log_loss(model, corpus).log_loss
    print(model_path, "eval %.17g, trace %.17g" % (got, want))
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
