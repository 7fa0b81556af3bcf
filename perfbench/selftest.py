"""Self-test: the step-wise bound check catches a mis-scaled partition.

One round of token-indicator reweighting of a uniform start is built twice:
with the correct partition, and with ``ReweightedModel(...,
partition_scale=1.01)``, which makes every conditional sum to 1/1.01.  The
check must pass the first and fail the second.  Every benchmark run runs this
first and reports ``correct: false`` if it does not hold; to run it alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import verify

LINES = ("a a b a", "a b", "b a a", "a a a b", "a", "b b a")


def stepwise_check_catches_fault(sb) -> list[str]:
    vocab = sb.Vocabulary.build("ab")
    ids = [tuple(vocab.id_of(t) for t in line.split()) for line in LINES]
    corpus = sb.Corpus(vocab, 4, tuple(sb.Sequence.from_ids(x, 4) for x in ids))
    start = sb.UniformModel(vocab, 4)
    loss0 = sb.log_loss(start, corpus).log_loss
    g = sb.boost.TokenIndicatorOracle().propose(start, corpus)
    b = sb.generalized_advantage(g, corpus, start).value
    failures = []
    for scale, expect_caught in ((1.0, False), (1.01, True)):
        model = sb.ReweightedModel(start, [(b, g)], partition_scale=scale)
        loss1 = sb.log_loss(model, corpus).log_loss
        caught = bool(verify.stepwise_bound_failures(loss0, [b], [loss1], corpus.length))
        if caught != expect_caught:
            failures.append(f"partition_scale={scale}: check {'failed' if caught else 'passed'}")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import seqboost
    import seqboost.boost

    problems = stepwise_check_catches_fault(seqboost)
    print("\n".join(problems) or "self-test passed: the step-wise bound check catches partition_scale=1.01")
    sys.exit(1 if problems else 0)
