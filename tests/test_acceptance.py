"""Acceptance gate: one test per required guarantee, each printing a
pass/fail line so the suite doubles as a human-readable report."""

import math

import numpy as np
import pytest

from seqboost.age import (
    default_age_distribution,
    run_age_experiment,
    tail_mass_over_100,
    uniform_family_mle,
)
from seqboost.boost import BoostConfig, TokenIndicatorOracle, run_boost
from seqboost.checks import (
    advantage_tvd_suite,
    bayes_tvd_suite,
    boost_termination_suite,
    exhaustive_indicator_suite,
    kl_gradient_fd_suite,
    log_ratio_suite,
    pinsker_suite,
    stepwise_reweight_suite,
    whole_reweight_suite,
)
from seqboost.cli import main
from seqboost.corpus import Corpus, Sequence, Vocabulary
from seqboost.exact import JointTable, enumerate_joint, total_variation
from seqboost.models import UniformModel


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, name


def run_suite(name: str, result) -> None:
    report(
        name,
        result.passed,
        f"min slack {result.min_slack:.3g} over {result.instances} instances",
    )


def test_whole_sequence_reweight_bound():
    run_suite("whole-sequence reweight loss bound (200 instances)", whole_reweight_suite(200))


def test_stepwise_reweight_bound():
    run_suite("step-wise reweight loss bound (200 instances)", stepwise_reweight_suite(200))


def test_log_ratio_distinguisher_advantage_bound():
    run_suite("log-ratio distinguisher advantage bound (200 instances)", log_ratio_suite(200))


def test_kl_gradient_matches_finite_differences():
    run_suite("KL gradient vs central finite differences (50 models)", kl_gradient_fd_suite(50))


def test_bayes_optimal_and_exhaustive_families_reach_tvd():
    bayes = bayes_tvd_suite(100)
    exhaustive = exhaustive_indicator_suite(20)
    run_suite("Bayes-optimal distinguisher advantage equals TVD (100 pairs)", bayes)
    run_suite("exhaustive indicator family reaches TVD (20 small domains)", exhaustive)


def test_boosting_terminates_within_iteration_bound():
    run_suite(
        "boosting terminates within the iteration bound (20 corpora, eps=0.05)",
        boost_termination_suite(20, epsilon=0.05),
    )


def test_unigram_boosting_recovers_the_empirical_distribution():
    vocab = Vocabulary.build(["a", "b"])
    seqs = tuple(Sequence.from_ids((1,), 1) for _ in range(3)) + (Sequence.from_ids((2,), 1),)
    corpus = Corpus(vocab, 1, seqs)
    model, trace = run_boost(
        UniformModel(vocab, 1), corpus, TokenIndicatorOracle(), BoostConfig(epsilon=0.01)
    )
    table = enumerate_joint(model)
    target = JointTable(vocab, 1, np.array([0.0, 0.75, 0.25]))
    tvd = total_variation(table, target)
    mle_loss = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
    loss_gap = trace.records[-1].log_loss - mle_loss
    ok = tvd <= 0.02 and abs(loss_gap) <= 0.01
    report(
        "boosted unigram matches the count-based fit",
        ok,
        f"tvd {tvd:.4g} (<=0.02), loss gap {loss_gap:.4g} nats (<=0.01)",
    )


def test_age_cap_example():
    probs = default_age_distribution()
    mle_m = uniform_family_mle(probs)
    strict = tail_mass_over_100(np.full(120, 1 / 120))
    inclusive = tail_mass_over_100(np.full(120, 1 / 120), inclusive=True)
    rep = run_age_experiment(probs)
    ok = (
        mle_m == 119
        and abs(strict - 19 / 120) <= 1e-12
        and abs(inclusive - 20 / 120) <= 1e-12
        and rep.tvd_min_m < 100
    )
    report(
        "age-cap example: likelihood picks 119, least-distinguishable cap is under 100",
        ok,
        f"mle m={mle_m}, tail {strict:.4f}/{inclusive:.4f}, tvd-min m={rep.tvd_min_m}",
    )


def test_pinsker_and_advantage_bounds():
    pinsker = pinsker_suite(500)
    adv = advantage_tvd_suite(500)
    run_suite("TVD <= sqrt(KL/2) (500 pairs)", pinsker)
    run_suite("distinguisher advantage <= TVD (500 triples)", adv)


def test_boost_cli_is_byte_deterministic(tmp_path):
    from click.testing import CliRunner

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a\na\na\nb\n")
    runner = CliRunner()
    traces = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            [
                "boost",
                "--corpus", str(corpus),
                "--length", "1",
                "--init", "uniform",
                "--oracle", "token-indicator",
                "--epsilon", "0.01",
                "--trace-out", str(out),
                "--model-out", str(tmp_path / "model.txt"),
            ],
        )
        assert result.exit_code == 0, result.output
        traces.append(out.read_bytes())
    report(
        "repeated boost runs write byte-identical traces",
        traces[0] == traces[1],
        f"{len(traces[0])} bytes each",
    )
