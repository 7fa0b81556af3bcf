"""Command-line harness: fitting, boosting, distinguishing, evaluation,
the age experiment, and the full invariant check suite.

Configuration comes from an optional flat ``key = value`` file; command-line
flags override file values.  Exit codes: 0 success, 2 configuration error,
3 runtime or property failure.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import age as age_mod
from .boost import BoostConfig, MaxItersExceededError, make_oracle, run_boost
from .checks import default_suites
from .corpus import Corpus, Vocabulary, load_corpus
from .distinguish import (
    generalized_advantage,
    ngram_indicator,
    step_log_ratio,
    token_indicator,
    training_advantage,
)
from .exact import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    JointTable,
    enumerate_joint,
    kl_divergence,
    sequence_index,
    total_variation,
)
from .models import PAD_ID, UniformModel, log_loss, ngram_mle_fit
from .serialize import load_model, save_model

NATS_TO_BITS = 1.0 / math.log(2.0)


def read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {no}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def pick(flag, cfg: dict[str, str], key: str, default=None, cast=str):
    if flag is not None:
        return flag
    if key in cfg:
        return cast(cfg[key])
    return default


def default_outdir(cfg: dict[str, str]) -> Path:
    out = cfg.get("outdir") or os.environ.get("SEQBOOST_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_corpus_checked(path, length, vocab=None):
    if path is None:
        raise click.UsageError("corpus path is required")
    if not Path(path).exists():
        raise click.UsageError(f"corpus file not found: {path}")
    if length is None:
        raise click.UsageError("sequence length is required")
    try:
        return load_corpus(path, int(length), vocab=vocab)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_model_checked(path, vocab=None, length=None):
    """A model file; a missing or malformed file, or one whose vocabulary or
    length differs from the given ones, is a usage error."""
    try:
        model = load_model(path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load model {path}: {exc}")
    if vocab is not None and model.vocab.tokens != vocab.tokens:
        raise click.UsageError(f"model {path} has another vocabulary")
    if length is not None and model.length != length:
        raise click.UsageError(f"model {path} has length {model.length}, not {length}")
    return model


def _load_heldout(path, length, model):
    """A corpus read in the model's vocabulary; its length must be the model's."""
    if length is not None and int(length) != model.length:
        raise click.UsageError(f"length {length} does not match the model's length {model.length}")
    return _load_corpus_checked(path, length, model.vocab)[0]


@click.group()
def main() -> None:
    """Distinguisher-boosting toolkit for discrete sequential models."""


@main.command()
@click.option("--config", "config_path", type=str, default=None, help="Flat key=value config file.")
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--length", type=int, default=None, help="Padded sequence length N.")
@click.option("--order", type=int, default=None, help="n-gram order (default 1).")
@click.option("--lam", type=float, default=None, help="Laplace smoothing weight (default 0).")
@click.option("--vocab", "vocab_path", type=str, default=None)
@click.option("--model-out", type=str, default=None)
def fit(config_path, corpus_path, length, order, lam, vocab_path, model_out):
    """Fit an n-gram model by (smoothed) counting and report its log-loss."""
    cfg = read_config(config_path)
    corpus_path = pick(corpus_path, cfg, "corpus")
    length = pick(length, cfg, "length", cast=int)
    order = pick(order, cfg, "order", default=1, cast=int)
    lam = pick(lam, cfg, "lambda", default=0.0, cast=float)
    vocab_path = pick(vocab_path, cfg, "vocab")
    try:
        vocab = Vocabulary.load(vocab_path) if vocab_path else None
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read vocabulary {vocab_path}: {exc}")
    corpus, _ = _load_corpus_checked(corpus_path, length, vocab)
    try:
        model = ngram_mle_fit(corpus, order, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out = Path(pick(model_out, cfg, "model_out", default=default_outdir(cfg) / "model.txt"))
    save_model(model, out)
    try:
        loss = log_loss(model, corpus).log_loss
    except ValueError as exc:
        click.echo(f"log-loss: infinite ({exc})")
        sys.exit(3)
    click.echo(f"model written to {out}")
    click.echo(f"log-loss: {loss:.6g} nats ({loss * NATS_TO_BITS:.6g} bits)")


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--length", type=int, default=None)
@click.option("--init", "init_kind", type=click.Choice(["uniform", "ngram"]), default=None)
@click.option("--order", type=int, default=None)
@click.option("--lam", type=float, default=None)
@click.option("--oracle", "oracle_kind", type=str, default=None)
@click.option("--oracle-order", type=int, default=None)
@click.option("--ref-model", type=str, default=None, help="Reference model for the log-ratio oracle.")
@click.option("--epsilon", type=float, default=None)
@click.option("--max-iters", type=int, default=None)
@click.option("--trace-out", type=str, default=None)
@click.option("--model-out", type=str, default=None)
@click.option("--timings", is_flag=True, help="Record wall times in the trace (breaks byte-reproducibility).")
def boost(config_path, corpus_path, length, init_kind, order, lam, oracle_kind,
          oracle_order, ref_model, epsilon, max_iters, trace_out, model_out, timings):
    """Boost an initial model against a distinguisher oracle."""
    cfg = read_config(config_path)
    corpus_path = pick(corpus_path, cfg, "corpus")
    length = pick(length, cfg, "length", cast=int)
    init_kind = pick(init_kind, cfg, "init", default="uniform")
    order = pick(order, cfg, "order", default=1, cast=int)
    lam = pick(lam, cfg, "lambda", default=0.0, cast=float)
    oracle_kind = pick(oracle_kind, cfg, "oracle", default="token-indicator")
    oracle_order = pick(oracle_order, cfg, "oracle_order", default=2, cast=int)
    ref_model = pick(ref_model, cfg, "ref_model")
    epsilon = pick(epsilon, cfg, "epsilon", default=0.01, cast=float)
    max_iters = pick(max_iters, cfg, "max_iters", cast=int)
    corpus, _ = _load_corpus_checked(corpus_path, length)
    outdir = default_outdir(cfg)
    trace_out = Path(pick(trace_out, cfg, "trace_out", default=outdir / "trace.csv"))
    model_out = Path(pick(model_out, cfg, "model_out", default=outdir / "boosted_model.txt"))

    reference = _load_model_checked(ref_model, corpus.vocab, corpus.length) if ref_model else None
    try:
        if init_kind == "uniform":
            q0 = UniformModel(corpus.vocab, corpus.length)
        else:
            q0 = ngram_mle_fit(corpus, order, lam)
        oracle = make_oracle(oracle_kind, order=oracle_order, reference=reference)
        config = BoostConfig(epsilon=epsilon, max_iters=max_iters)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if oracle_kind == "ngram-indicator" and oracle_order > corpus.length:
        raise click.UsageError(f"oracle order {oracle_order} exceeds the length {corpus.length}")
    try:
        model, trace = run_boost(q0, corpus, oracle, config)
    except MaxItersExceededError as exc:
        trace_out.write_text(exc.trace.to_csv_text(include_timings=timings), encoding="utf-8")
        click.echo(str(exc), err=True)
        sys.exit(3)
    trace_out.write_text(trace.to_csv_text(include_timings=timings), encoding="utf-8")
    save_model(model, model_out)
    final_loss = trace.records[-1].log_loss
    click.echo(f"trace written to {trace_out} ({len(trace.records)} iterations)")
    click.echo(f"model written to {model_out}")
    click.echo(f"initial loss {trace.initial_loss:.6g} nats, final loss {final_loss:.6g} nats")


def _parse_step_distinguisher(spec: str, vocab: Vocabulary, q_model):
    kind, _, arg = spec.partition(":")
    flip = kind.startswith("1-")
    if flip:
        kind = kind[2:]
    if kind == "token-indicator":
        return token_indicator(vocab, vocab.id_of(arg), flip)
    if kind == "ngram-indicator":
        ids = tuple(vocab.id_of(t) for t in arg.split(","))
        return ngram_indicator(vocab, ids[:-1], ids[-1], flip)
    if kind == "log-ratio":
        ref = _load_model_checked(arg, vocab, q_model.length)
        return step_log_ratio(q_model, ref, C=math.e, flip=flip)
    raise click.UsageError(f"unknown distinguisher kind {kind!r}")


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--length", type=int, default=None)
@click.option("--model", "model_path", type=str, default=None, required=False)
@click.option("--distinguisher", "dist_spec", type=str, required=True,
              help="kind:arg, e.g. token-indicator:b, ngram-indicator:a,b, log-ratio:model.txt")
@click.option("--estimator", type=click.Choice(["exact", "monte-carlo"]), default="exact")
@click.option("--samples", type=click.IntRange(min=1), default=10000)
@click.option("--seed", type=int, default=0)
def distinguish(config_path, corpus_path, length, model_path, dist_spec, estimator, samples, seed):
    """Evaluate a named distinguisher's whole-sequence and step-wise advantages."""
    cfg = read_config(config_path)
    model_path = pick(model_path, cfg, "model")
    if model_path is None:
        raise click.UsageError("a model file is required")
    model = _load_model_checked(model_path)
    corpus = _load_heldout(pick(corpus_path, cfg, "corpus"), pick(length, cfg, "length", cast=int), model)
    try:
        g = _parse_step_distinguisher(dist_spec, model.vocab, model)
    except KeyError as exc:
        raise click.UsageError(exc.args[0])
    try:
        alpha = training_advantage(g.as_whole(), corpus, model, estimator=estimator,
                                   samples=samples, seed=seed)
    except ValueError as exc:  # e.g. the exact estimator's enumeration budget
        raise click.UsageError(str(exc))
    beta = generalized_advantage(g, corpus, model)
    click.echo(f"distinguisher: {g.label}")
    suffix = f" ({alpha.sample_count} samples)" if alpha.sample_count else ""
    click.echo(f"whole-sequence advantage: {alpha.value:.6g} [{alpha.estimator}]{suffix}")
    click.echo(f"step-wise advantage: {beta.value:.6g}")
    click.echo("per-position: " + " ".join(f"{v:.6g}" for v in beta.per_position))


def _load_table_csv(path: str, vocab: Vocabulary, length: int) -> JointTable:
    """A 'sequence,prob' CSV over the model's domain; sequences it omits get 0.

    A label shorter than the length is padded, as a corpus line is.  An
    unreadable file, an unknown token, a label of no tokens or more than the
    length, a sequence listed twice, a value that is not a finite real, and
    probabilities that are not a distribution are usage errors.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise click.UsageError(f"cannot read table {path}: {exc}")
    probs = np.zeros(vocab.n**length)
    listed: set[int] = set()
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        label, _, value = raw.rpartition(",")
        tokens = label.split()
        if not 1 <= len(tokens) <= length:
            raise click.UsageError(f"table line {no}: {len(tokens)} tokens, need 1..{length}")
        try:
            ids = [vocab.id_of(t) for t in tokens]
            p = float(value)
        except (KeyError, ValueError) as exc:
            raise click.UsageError(f"table line {no}: {exc.args[0]}")
        if not math.isfinite(p):
            raise click.UsageError(f"table line {no}: probability {value!r} is not finite")
        index = sequence_index(vocab, tuple(ids + [PAD_ID] * (length - len(ids))))
        if index in listed:
            raise click.UsageError(f"table line {no}: sequence {label.strip()!r} listed twice")
        listed.add(index)
        probs[index] = p
    try:
        return JointTable(vocab, length, probs)
    except ValueError as exc:
        raise click.UsageError(f"table {path}: {exc}")


@main.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--model", "model_path", type=str, default=None)
@click.option("--corpus", "corpus_path", type=str, default=None)
@click.option("--length", type=int, default=None)
@click.option("--table", "table_path", type=str, default=None,
              help="'sequence,prob' CSV to compare the model joint against.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET)
def eval(config_path, model_path, corpus_path, length, table_path, budget):
    """Log-loss on a corpus and/or KL and TVD against an explicit table."""
    cfg = read_config(config_path)
    model_path = pick(model_path, cfg, "model")
    if model_path is None:
        raise click.UsageError("a model file is required")
    model = _load_model_checked(model_path)
    did_anything = False
    corpus_path = pick(corpus_path, cfg, "corpus")
    if corpus_path:
        corpus = _load_heldout(corpus_path, pick(length, cfg, "length", cast=int), model)
        try:
            loss = log_loss(model, corpus).log_loss
            click.echo(f"log-loss: {loss:.6g} nats ({loss * NATS_TO_BITS:.6g} bits)")
        except ValueError as exc:
            click.echo(f"log-loss: infinite ({exc})")
        did_anything = True
    table_path = pick(table_path, cfg, "table")
    if table_path:
        table = _load_table_csv(table_path, model.vocab, model.length)
        try:
            joint = enumerate_joint(model, budget=budget)
        except BudgetExceededError as exc:
            raise click.UsageError(str(exc))
        click.echo(f"kl(table||model): {kl_divergence(table, joint):.6g} nats")
        click.echo(f"tvd(table,model): {total_variation(table, joint):.6g}")
        did_anything = True
    if not did_anything:
        raise click.UsageError("nothing to evaluate: give --corpus and/or --table")


@main.command("age-experiment")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--ages", "ages_path", type=str, default=None,
              help="File with 120 probabilities, one per line (ages 0..119).")
@click.option("--report-out", type=str, default=None)
def age_experiment(config_path, ages_path, report_out):
    """Weak-family demonstration: likelihood-best vs least-distinguishable age caps."""
    cfg = read_config(config_path)
    ages_path = pick(ages_path, cfg, "ages")
    probs = None
    if ages_path is not None:
        try:
            text = Path(ages_path).read_text(encoding="utf-8")
            probs = np.array([float(v) for v in text.split()])
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot read ages {ages_path}: {exc}")
    try:
        report = age_mod.run_age_experiment(probs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out = Path(pick(report_out, cfg, "report_out", default=default_outdir(cfg) / "age_report.csv"))
    rows = [
        ("uniform_mle_m", report.uniform_mle_m),
        ("tail_over_100_strict", report.tail_over_100_strict),
        ("tail_over_100_inclusive", report.tail_over_100_inclusive),
        ("tvd_min_m", report.tvd_min_m),
        ("tvd_at_min", report.tvd_at_min),
        ("tvd_at_mle", report.tvd_at_mle),
        ("kl_at_tvd_min", report.kl_at_tvd_min),
        ("geometric_theta", report.geometric_theta),
        ("geometric_mean_gap", report.geometric_mean_gap),
        ("geometric_gradient", report.geometric_gradient),
    ]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("key,value\n")
        for key, value in rows:
            fh.write(f"{key},{value:.17g}\n" if isinstance(value, float) else f"{key},{value}\n")
    click.echo(f"report written to {out}")
    click.echo(f"likelihood-best cap m = {report.uniform_mle_m}")
    click.echo(
        f"tail mass over age 100 at that cap: {report.tail_over_100_strict:.6g} strict, "
        f"{report.tail_over_100_inclusive:.6g} inclusive"
    )
    click.echo(f"least-distinguishable cap m = {report.tvd_min_m} "
               f"(tvd {report.tvd_at_min:.6g} vs {report.tvd_at_mle:.6g} at the likelihood cap)")
    click.echo(f"geometric fit theta = {report.geometric_theta:.6g}, "
               f"mean gap {report.geometric_mean_gap:.3g}")


@main.command("oracle-check")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--report-out", type=str, default=None)
@click.option("--fault-z-scale", type=float, default=1.0,
              help="Deliberately mis-scale the step-wise partition (fault-injection demo).")
def oracle_check(config_path, report_out, fault_z_scale):
    """Run every randomized invariant suite and report per-property margins."""
    cfg = read_config(config_path)
    results = default_suites(stepwise_partition_scale=fault_z_scale)
    out = Path(pick(report_out, cfg, "report_out", default=default_outdir(cfg) / "oracle_check.csv"))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("property,instances,min_slack,pass\n")
        for r in results:
            fh.write(f"{r.name},{r.instances},{r.min_slack:.17g},{int(r.passed)}\n")
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name}  min slack {r.min_slack:.3g} over {r.instances} instances")
    click.echo(f"report written to {out}")
    if failures:
        click.echo(f"{len(failures)} property suite(s) violated", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
