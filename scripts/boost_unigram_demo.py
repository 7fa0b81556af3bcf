#!/usr/bin/env python3
"""Boost a uniform model on the four-sequence sample a, a, a, b.

Prints the per-iteration trace and shows the boosted joint converging to
the count-based fit (0.75, 0.25).
"""

import math

import numpy as np

from seqboost.boost import BoostConfig, TokenIndicatorOracle, run_boost
from seqboost.corpus import Corpus, Vocabulary
from seqboost.exact import JointTable, enumerate_joint, total_variation
from seqboost.models import UniformModel


def main() -> None:
    vocab = Vocabulary.build(["a", "b"])
    corpus = Corpus(vocab, 1, np.array([[1], [1], [1], [2]]))
    model, trace = run_boost(
        UniformModel(vocab, 1), corpus, TokenIndicatorOracle(), BoostConfig(epsilon=0.01)
    )
    print(f"initial loss {trace.initial_loss:.6f} nats")
    for rec in trace.records:
        print(f"  iter {rec.t:2d}  advantage {rec.b:.6f}  loss {rec.log_loss:.6f}")
    print(f"terminated: {trace.termination}")

    table = enumerate_joint(model)
    target = JointTable(vocab, 1, np.array([0.0, 0.75, 0.25]))
    mle_loss = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
    print(f"boosted q(a) = {table.probs[1]:.4f}, q(b) = {table.probs[2]:.4f}")
    print(f"tvd to the count-based fit = {total_variation(table, target):.4f}")
    print(f"loss gap to the count-based fit = {trace.records[-1].log_loss - mle_loss:.3g} nats")


if __name__ == "__main__":
    main()
