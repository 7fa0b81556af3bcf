"""The four benchmark workloads.

A workload has these parts:

- ``make_inputs(rng, workdir)``: the benchmark's own generation of input
  files from the seed.  It is not timed, and the program sees only the files.
- ``setup(sb, inputs)``: the program's preparation before the first unit
  (import, corpus load, initial or reference model, initial loss).  Timed as
  ``setup_s``; ``sb`` is a freshly imported ``seqboost`` package.
- ``unit(sb, state)``: one complete pass of the workload.  Timed as
  ``wall_s``.  It returns the outputs the checks need, with the program's
  calls made inside it and nothing else.
- ``check(state, out)``: property checks on one unit's outputs; returns a
  list of failure messages.
- ``fingerprint(out)``: what must come out byte for byte the same in every
  unit of a run.

Every source distribution below is fixed; the seed only drives sampling.
Sequence lengths follow a fixed quota instead of being sampled, so that the
log-loss, which grows with length, stays steady from seed to seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify

# Boosting runs for a fixed number of rounds: epsilon sits far below every
# advantage these corpora produce, and RoundCap ends the run.
EPSILON = 1e-12


def markov_lines(rng, letters: str, length: int, m: int, min_len: int) -> list[list[str]]:
    """m lines from a fixed first-order source over ``letters``.

    The first token has weight 1/(i+1); token i follows token a with weight
    1 + (3a + 5i) mod 7.  Line lengths cycle through min_len..length.
    """
    k = len(letters)
    first = [1.0 / (i + 1) for i in range(k)]
    follow = [[1.0 + (3 * a + 5 * i) % 7 for i in range(k)] for a in range(k)]
    lengths = list(range(min_len, length + 1))
    lines = []
    for row in range(m):
        weights = first
        line = []
        for _ in range(lengths[row % len(lengths)]):
            tok = rng.choices(range(k), weights=weights)[0]
            line.append(letters[tok])
            weights = follow[tok]
        lines.append(line)
    return lines


def write_lines(path: Path, lines: list[list[str]]) -> Path:
    path.write_text("".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
    return path


class RoundCap:
    """Oracle that proposes the inner oracle's choice for ``rounds`` rounds, then
    the zero distinguisher, whose advantage is exactly 0, so ``run_boost``
    stops after exactly ``rounds`` updates.  ``marks`` holds the clock at every
    proposal, which delimits the rounds."""

    def __init__(self, sb, kind: str, rounds: int):
        self.inner = sb.boost.make_oracle(kind, order=2)
        self.rounds = rounds
        self.stop = sb.StepDistinguisher(lambda prefix: 0.0, label="stop")
        self.marks: list[float] = []

    def propose(self, q, corpus):
        self.marks.append(time.perf_counter())
        if len(self.marks) > self.rounds:
            return self.stop
        return self.inner.propose(q, corpus)


def boost(sb, corpus, kind: str, rounds: int):
    """Boost a uniform start for exactly ``rounds`` rounds; returns model, trace, round seconds."""
    cap = RoundCap(sb, kind, rounds)
    model, trace = sb.run_boost(
        sb.UniformModel(corpus.vocab, corpus.length),
        corpus,
        cap,
        sb.BoostConfig(epsilon=EPSILON, max_iters=rounds + 1),
    )
    return model, trace, [b - a for a, b in zip(cap.marks, cap.marks[1:])]


@dataclass
class BoostState:
    corpus: object
    initial_loss: float
    model_path: Path


class BoostWorkload:
    """Boost a uniform start for a fixed number of rounds on a corpus from the
    fixed first-order source."""

    letters: str
    length: int
    m: int
    min_len: int
    rounds: int

    def make_inputs(self, rng, workdir: Path) -> dict:
        lines = markov_lines(rng, self.letters, self.length, self.m, self.min_len)
        return {"corpus": write_lines(workdir / "corpus.txt", lines), "model": workdir / "boosted.txt"}

    def setup(self, sb, inputs: dict) -> BoostState:
        corpus, _ = sb.load_corpus(inputs["corpus"], self.length)
        q0 = sb.UniformModel(corpus.vocab, corpus.length)
        return BoostState(corpus, sb.log_loss(q0, corpus).log_loss, inputs["model"])

    def loss(self, state: BoostState, out: dict) -> float:
        return out["trace"].records[-1].log_loss

    def fingerprint(self, out: dict) -> str:
        return out["trace"].to_csv_text()

    def check(self, state: BoostState, out: dict) -> list[str]:
        """Round count, termination, the step-wise bound and a non-rising loss."""
        model, trace = out["model"], out["trace"]
        failures = []
        bs = [r.b for r in trace.records[:-1]]
        if len(model.factors) != self.rounds or len(bs) != self.rounds:
            failures.append(f"expected {self.rounds} rounds, got {len(model.factors)} factors")
        if trace.termination != "indistinguishable":
            failures.append(f"termination {trace.termination!r}")
        if trace.initial_loss != state.initial_loss:
            failures.append("run_boost's initial loss differs from log_loss of the start")
        if [b for b, _ in model.factors] != bs:
            failures.append("model weights differ from the trace's b_t")
        losses = [r.log_loss for r in trace.records[:-1]]
        failures += verify.stepwise_bound_failures(trace.initial_loss, bs, losses, self.length)
        return failures


class BoostWide(BoostWorkload):
    """Order-2 n-gram-indicator oracle over 8 tokens: the oracle search dominates."""

    name = "boost-wide"
    letters, length, m, min_len, rounds = "abcdefg", 5, 100, 2, 3

    def unit(self, sb, state: BoostState) -> dict:
        model, trace, round_s = boost(sb, state.corpus, "ngram-indicator", self.rounds)
        return {"model": model, "trace": trace, "round_s": round_s}


class BoostDeep(BoostWorkload):
    """Token-indicator oracle over 4 tokens for 60 rounds, then a save/load round trip.

    Few candidates per round, so the per-round loss evaluation on a fresh
    ReweightedModel is a large share, and it grows with the factor count."""

    name = "boost-deep"
    letters, length, m, min_len, rounds = "abc", 8, 80, 2, 60

    def unit(self, sb, state: BoostState) -> dict:
        model, trace, round_s = boost(sb, state.corpus, "token-indicator", self.rounds)
        sb.serialize.save_model(model, state.model_path)
        loaded = sb.serialize.load_model(state.model_path)
        loaded_loss = sb.log_loss(loaded, state.corpus).log_loss
        return {"model": model, "trace": trace, "round_s": round_s,
                "loaded": loaded, "loaded_loss": loaded_loss}

    def check(self, state: BoostState, out: dict) -> list[str]:
        corpus, model, trace = state.corpus, out["model"], out["trace"]
        failures = super().check(state, out)
        ids = np.array([seq.token_ids for seq in corpus.sequences])
        n = corpus.vocab.n
        # Token indicators depend only on the last token, so probing one-token
        # prefixes gives each factor's values on every candidate token.
        g_rows = [[g((w,)) for w in range(n)] for _, g in model.factors]
        closed = verify.last_token_advantages(ids, n, [b for b, _ in model.factors], g_rows)
        for t, (b, c) in enumerate(zip((r.b for r in trace.records), closed)):
            if abs(b - c) > 1e-12:
                failures.append(f"round {t}: b_t {b!r} differs from the closed form {c!r}")
                break
        prefixes = {seq.prefix(j) for seq in corpus.sequences for j in range(corpus.length)}
        failures += verify.same_conditionals(model, out["loaded"], prefixes, "reloaded model")
        final = trace.records[-1].log_loss
        if abs(out["loaded_loss"] - final) > 1e-12 * abs(final):
            failures.append("reloaded model's log-loss differs from the trace's final loss")
        return failures


@dataclass
class AuditState:
    corpus: object
    reference: object
    boosted: object
    boosted_loss: float


class ExactAudit:
    """Enumerate the 8^6 joints of a boosted model and a bigram reference, compare
    them exactly, and run the nine invariant suites."""

    name = "exact-audit"
    letters, length, m, min_len, rounds = "abcdefg", 6, 100, 4, 4

    def make_inputs(self, rng, workdir: Path) -> dict:
        lines = markov_lines(rng, self.letters, self.length, self.m, self.min_len)
        return {"corpus": write_lines(workdir / "corpus.txt", lines)}

    def setup(self, sb, inputs: dict) -> AuditState:
        corpus, _ = sb.load_corpus(inputs["corpus"], self.length)
        # The unsmoothed fit never starts a line with the pad, so its support
        # lies inside the boosted model's and KL(reference || boosted) is finite.
        reference = sb.ngram_mle_fit(corpus, 2)
        boosted, _, _ = boost(sb, corpus, "token-indicator", self.rounds)
        return AuditState(corpus, reference, boosted, sb.log_loss(boosted, corpus).log_loss)

    def unit(self, sb, state: AuditState) -> dict:
        # A copy, so that the enumeration does not start from the memo cache
        # that the set-up's log-loss filled.
        model = sb.ReweightedModel(state.boosted.base, state.boosted.factors)
        q = sb.enumerate_joint(model)
        p = sb.enumerate_joint(state.reference)
        return {
            "p": p.probs, "q": q.probs,
            "kl": sb.kl_divergence(p, q),
            "ce": sb.cross_entropy(p, q),
            "tvd": sb.total_variation(p, q),
            "bayes": sb.advantage_exact(sb.bayes_optimal_distinguisher(p, q), p, q),
            "suites": sb.checks.default_suites(),
        }

    def fingerprint(self, out: dict) -> bytes:
        return out["p"].tobytes() + out["q"].tobytes()

    def loss(self, state: AuditState, out: dict) -> float:
        ids = np.array([seq.token_ids for seq in state.corpus.sequences])
        return verify.table_log_loss(out["q"], ids, state.corpus.vocab.n)

    def check(self, state: AuditState, out: dict) -> list[str]:
        failures = verify.exact_identity_failures(
            out["p"], out["q"], out["kl"], out["ce"], out["tvd"], out["bayes"])
        table_loss = self.loss(state, out)
        if abs(table_loss - state.boosted_loss) > 1e-9 * abs(state.boosted_loss):
            failures.append(f"table loss {table_loss!r} != log_loss {state.boosted_loss!r}")
        failures += verify.suite_failures(out["suites"])
        return failures


class CorpusIO:
    """Fit-then-evaluate on a Zipf corpus: parsing, bigram counting and the dense
    text serializer do the work."""

    name = "corpus-io"
    vocab_size, length, m, heldout_m, lam, zipf_s = 1200, 10, 20000, 2000, 0.1, 1.1

    def make_inputs(self, rng, workdir: Path) -> dict:
        words = [f"w{r}" for r in range(1, self.vocab_size + 1)]
        weights = [r ** -self.zipf_s for r in range(1, self.vocab_size + 1)]
        lengths = range(1, self.length + 1)

        def draw(m, allowed=None):
            lines = []
            for row in range(m):
                k = lengths[row % len(lengths)]
                line = []
                while len(line) < k:
                    tok = rng.choices(words, weights=weights, k=k - len(line))
                    line += [t for t in tok if allowed is None or t in allowed]
                lines.append(line)
            return lines

        train = draw(self.m)
        heldout = draw(self.heldout_m, {t for line in train for t in line})
        return {
            "train": write_lines(workdir / "train.txt", train),
            "heldout": write_lines(workdir / "heldout.txt", heldout),
            "model": workdir / "bigram.txt",
            "expected_loss": verify.bigram_heldout_loss(train, heldout, self.length, self.lam),
        }

    def setup(self, sb, inputs: dict) -> dict:
        # Loading and fitting are this workload's unit, so set-up is the import alone.
        return inputs

    def unit(self, sb, state: dict) -> dict:
        corpus, _ = sb.load_corpus(state["train"], self.length)
        model = sb.ngram_mle_fit(corpus, 2, self.lam)
        sb.serialize.save_model(model, state["model"])
        loaded = sb.serialize.load_model(state["model"])
        heldout, _ = sb.load_corpus(state["heldout"], self.length, vocab=loaded.vocab)
        loss = sb.log_loss(loaded, heldout).log_loss
        return {"model": model, "loaded": loaded, "loss": loss}

    def loss(self, state: dict, out: dict) -> float:
        return out["loss"]

    def fingerprint(self, out: dict) -> str:
        return repr(out["loss"])

    def check(self, state: dict, out: dict) -> list[str]:
        failures = []
        if not math.isclose(out["loss"], state["expected_loss"], rel_tol=1e-9):
            failures.append(f"held-out loss {out['loss']!r} != plain-Python bigram "
                            f"{state['expected_loss']!r}")
        # A bigram's conditionals depend on the last token only: the empty
        # prefix and every one-token prefix cover all of them.  The text format
        # writes 17 significant digits, so they must come back bit for bit.
        n = out["model"].vocab.n
        prefixes = [()] + [(t,) for t in range(n)]
        failures += verify.same_conditionals(out["model"], out["loaded"], prefixes,
                                             "reloaded bigram", tol=0.0)
        return failures


WORKLOADS = {w.name: w for w in (BoostWide(), BoostDeep(), ExactAudit(), CorpusIO())}
