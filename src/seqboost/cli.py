"""Command-line harness: fitting, boosting, distinguishing, evaluation,
the age experiment, and the full invariant check suite.

Configuration comes from an optional flat ``key = value`` file; command-line
flags override file values.  Exit codes: 0 success, 2 configuration error,
3 runtime or property failure.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import age as age_mod
from .boost import BoostConfig, MaxItersExceededError, make_oracle, run_boost
from .checks import default_suites
from .corpus import Vocabulary, check_domain, load_corpus
from .distinguish import from_params, generalized_advantage, training_advantage
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
from .serialize import load_model, model_to_text

NATS_TO_BITS = 1.0 / math.log(2.0)


# The one config key that is not its flag's name.
CONFIG_ALIASES = {"lambda": "lam"}


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load a flat ``key = value`` file as the command's default map.

    A key is a flag's name with ``_`` for ``-`` (``lambda`` for ``--lam``), or
    ``outdir``; click casts and checks a file value as it does the flag's, and
    an explicit flag wins.  Any subcommand's key is accepted, so one file can
    serve a whole pipeline; any other key is a usage error.
    """
    if path is None:
        return
    text = _read(path, "config file")
    known = {p.name for cmd in main.commands.values() for p in cmd.params} - {"config"}
    cfg: dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = CONFIG_ALIASES.get(key.strip(), key.strip())
        if key not in known and key != "outdir":
            raise click.UsageError(f"config line {no}: unknown key {key!r}")
        if key in cfg:
            raise click.UsageError(f"config line {no}: {key!r} already set")
        cfg[key] = value.strip()
    ctx.default_map = cfg


config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_read_config,
    help="Flat key = value file of flag defaults.",
)


def in_outdir(name: str):
    """An output flag's default: ``name`` in the config's ``outdir``, else in
    ``$SEQBOOST_OUTDIR``, else in the working directory."""
    def default() -> Path:
        ctx = click.get_current_context()
        return Path(ctx.lookup_default("outdir") or os.environ.get("SEQBOOST_OUTDIR") or ".") / name
    return default


def _read(path, what: str) -> str:
    """A file's text; one that cannot be read or is not UTF-8 is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {what} {path}: {exc}")


def _write(path: Path, text: str) -> None:
    """Write a file, making its directory first; a path that cannot be
    written is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _writable(*paths: Path) -> None:
    """``_write``'s usage error, before any work, for an output path that
    cannot be written; a file made to find out is removed again."""
    for path in paths:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            made = not path.exists()
            path.open("a").close()
            if made:
                path.unlink()
        except OSError as exc:
            raise click.UsageError(f"cannot write {path}: {exc}")


def _load_corpus_checked(path, length, vocab=None):
    try:
        return load_corpus(path, length, vocab=vocab)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load corpus {path}: {exc}")


def _load_model_checked(path, corpus=None):
    """A model file; a missing or malformed file, or a reference for a given
    corpus outside its domain, is a usage error."""
    try:
        model = load_model(path)
        if corpus is not None:
            check_domain(model, corpus, ("the reference", "the corpus"))
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load model {path}: {exc}")
    return model


def _load_heldout(path, length, model):
    """A corpus read in the model's vocabulary and at its length, which a
    given ``length`` must match."""
    if length is not None and length != model.length:
        raise click.UsageError(f"length {length} does not match the model's length {model.length}")
    return _load_corpus_checked(path, model.length, model.vocab)[0]


@click.group()
def main() -> None:
    """Distinguisher-boosting toolkit for discrete sequential models."""


@main.command()
@config_option
@click.option("--corpus", type=str, required=True)
@click.option("--length", type=int, required=True, help="Padded sequence length N.")
@click.option("--order", type=int, default=1, help="n-gram order (default 1).")
@click.option("--lam", type=float, default=0.0, help="Laplace smoothing weight (default 0).")
@click.option("--vocab", type=str, default=None)
@click.option("--model-out", type=Path, default=in_outdir("model.txt"))
def fit(corpus, length, order, lam, vocab, model_out):
    """Fit an n-gram model by (smoothed) counting and report its log-loss."""
    try:
        vocabulary = Vocabulary.load(vocab) if vocab else None
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read vocabulary {vocab}: {exc}")
    corpus, _ = _load_corpus_checked(corpus, length, vocabulary)
    try:
        model = ngram_mle_fit(corpus, order, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(model_out, model_to_text(model) + "\n")
    try:
        loss = log_loss(model, corpus).log_loss
    except ValueError as exc:
        click.echo(f"log-loss: infinite ({exc})")
        sys.exit(3)
    click.echo(f"model written to {model_out}")
    click.echo(f"log-loss: {loss:.6g} nats ({loss * NATS_TO_BITS:.6g} bits)")


@main.command()
@config_option
@click.option("--corpus", type=str, required=True)
@click.option("--length", type=int, required=True)
@click.option("--init", type=click.Choice(["uniform", "ngram"]), default="uniform")
@click.option("--order", type=int, default=1)
@click.option("--lam", type=float, default=0.0)
@click.option("--oracle", type=str, default="token-indicator")
@click.option("--oracle-order", type=int, default=2)
@click.option("--ref-model", type=str, default=None, help="Reference model for the log-ratio oracle.")
@click.option("--epsilon", type=float, default=0.01)
@click.option("--max-iters", type=int, default=None)
@click.option("--trace-out", type=Path, default=in_outdir("trace.csv"))
@click.option("--model-out", type=Path, default=in_outdir("boosted_model.txt"))
@click.option("--timings", is_flag=True, help="Record wall times in the trace (breaks byte-reproducibility).")
def boost(corpus, length, init, order, lam, oracle, oracle_order, ref_model, epsilon,
          max_iters, trace_out, model_out, timings):
    """Boost an initial model against a distinguisher oracle."""
    corpus, _ = _load_corpus_checked(corpus, length)
    if oracle == "ngram-indicator" and oracle_order > corpus.length:
        raise click.UsageError(f"oracle order {oracle_order} exceeds the length {corpus.length}")
    reference = _load_model_checked(ref_model, corpus) if ref_model else None
    try:
        if init == "uniform":
            q0 = UniformModel(corpus.vocab, corpus.length)
        else:
            q0 = ngram_mle_fit(corpus, order, lam)
        oracle = make_oracle(oracle, order=oracle_order, reference=reference)
        config = BoostConfig(epsilon=epsilon, max_iters=max_iters)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _writable(trace_out, model_out)
    try:
        model, trace = run_boost(q0, corpus, oracle, config)
    except MaxItersExceededError as exc:
        _write(trace_out, exc.trace.to_csv_text(include_timings=timings))
        click.echo(str(exc), err=True)
        sys.exit(3)
    _write(trace_out, trace.to_csv_text(include_timings=timings))
    _write(model_out, model_to_text(model) + "\n")
    final_loss = trace.records[-1].log_loss
    click.echo(f"trace written to {trace_out} ({len(trace.records)} iterations)")
    click.echo(f"model written to {model_out}")
    click.echo(f"initial loss {trace.initial_loss:.6g} nats, final loss {final_loss:.6g} nats")


def _parse_step_distinguisher(spec: str, vocab: Vocabulary, q_model):
    """``[1-]kind:arg``: token names for an indicator, a reference model file for
    log-ratio (with C = e, refused outside q_model's domain); the ``1-`` prefix
    flips it."""
    kind, _, arg = spec.partition(":")
    flip = ["flip"] if kind.startswith("1-") else []
    kind = kind.removeprefix("1-")
    reference = None
    try:
        if kind == "log-ratio":
            reference, params = _load_model_checked(arg), [math.e]
        else:
            params = [vocab.id_of(t) for t in arg.split(",")]
        return from_params(kind, params + flip, vocab, q_model, reference)
    except (KeyError, ValueError) as exc:
        raise click.UsageError(exc.args[0])


@main.command()
@config_option
@click.option("--corpus", type=str, required=True)
@click.option("--length", type=int, default=None)
@click.option("--model", type=str, required=True)
@click.option("--distinguisher", type=str, required=True,
              help="kind:arg, e.g. token-indicator:b, ngram-indicator:a,b, log-ratio:model.txt")
@click.option("--estimator", type=click.Choice(["exact", "monte-carlo"]), default="exact")
@click.option("--samples", type=click.IntRange(min=1), default=10000)
@click.option("--seed", type=int, default=0)
def distinguish(corpus, length, model, distinguisher, estimator, samples, seed):
    """Evaluate a named distinguisher's whole-sequence and step-wise advantages."""
    model = _load_model_checked(model)
    corpus = _load_heldout(corpus, length, model)
    g = _parse_step_distinguisher(distinguisher, model.vocab, model)
    try:
        alpha = training_advantage(g, corpus, model, estimator, samples, seed)
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
    unreadable file, a first line other than the header, an unknown token,
    the pad token in a label, a label of no tokens or more than the length, a
    sequence listed twice, a value that is not a finite real, and
    probabilities that are not a distribution are usage errors.
    """
    lines = _read(path, "table").splitlines()
    if lines[:1] != ["sequence,prob"]:
        raise click.UsageError(f"table line 1: {(lines or [''])[0]!r} is not 'sequence,prob'")
    probs = np.zeros(vocab.n**length)
    listed: set[int] = set()
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        label, _, value = raw.rpartition(",")
        tokens = label.split()
        if not 1 <= len(tokens) <= length:
            raise click.UsageError(f"table line {no}: {len(tokens)} tokens, need 1..{length}")
        if vocab.pad_token in tokens:
            raise click.UsageError(f"table line {no}: the pad token {vocab.pad_token!r} "
                                   "may not appear in a label")
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
@config_option
@click.option("--model", type=str, required=True)
@click.option("--corpus", type=str, default=None)
@click.option("--length", type=int, default=None)
@click.option("--table", type=str, default=None,
              help="'sequence,prob' CSV to compare the model joint against.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET)
def eval(model, corpus, length, table, budget):
    """Log-loss on a corpus and/or KL and TVD against an explicit table."""
    model = _load_model_checked(model)
    if not (corpus or table):
        raise click.UsageError("nothing to evaluate: give --corpus and/or --table")
    if corpus:
        corpus = _load_heldout(corpus, length, model)
        try:
            loss = log_loss(model, corpus).log_loss
            click.echo(f"log-loss: {loss:.6g} nats ({loss * NATS_TO_BITS:.6g} bits)")
        except ValueError as exc:
            click.echo(f"log-loss: infinite ({exc})")
    if table:
        table = _load_table_csv(table, model.vocab, model.length)
        try:
            joint = enumerate_joint(model, budget=budget)
        except BudgetExceededError as exc:
            raise click.UsageError(str(exc))
        click.echo(f"kl(table||model): {kl_divergence(table, joint):.6g} nats")
        click.echo(f"tvd(table,model): {total_variation(table, joint):.6g}")


@main.command("age-experiment")
@config_option
@click.option("--ages", type=str, default=None,
              help="File with 120 probabilities, one per line (ages 0..119).")
@click.option("--report-out", type=Path, default=in_outdir("age_report.csv"))
def age_experiment(ages, report_out):
    """Weak-family demonstration: likelihood-best vs least-distinguishable age caps."""
    probs = None
    if ages is not None:
        try:
            probs = np.array([float(v) for v in _read(ages, "ages").split()])
        except ValueError as exc:
            raise click.UsageError(f"cannot read ages {ages}: {exc}")
    try:
        report = age_mod.run_age_experiment(probs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(report_out, "key,value\n" + "".join(
        f"{key},{value:.17g}\n" if isinstance(value, float) else f"{key},{value}\n"
        for key, value in dataclasses.asdict(report).items()))
    click.echo(f"report written to {report_out}")
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
@config_option
@click.option("--report-out", type=Path, default=in_outdir("oracle_check.csv"))
@click.option("--fault-z-scale", type=float, default=1.0,
              help="Deliberately mis-scale the step-wise partition (fault-injection demo); "
                   "only a scale above 1 is caught.")
def oracle_check(report_out, fault_z_scale):
    """Run every randomized invariant suite and report per-property margins."""
    if not 0 < fault_z_scale < math.inf:  # NaN too
        raise click.BadParameter("must be positive and finite", param_hint="'--fault-z-scale'")
    _writable(report_out)
    results = default_suites(stepwise_partition_scale=fault_z_scale)
    _write(report_out, "property,instances,min_slack,pass\n" + "".join(
        f"{r.name},{r.instances},{r.min_slack:.17g},{int(r.passed)}\n" for r in results))
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name}  min slack {r.min_slack:.3g} over {r.instances} instances")
    click.echo(f"report written to {report_out}")
    if failures:
        click.echo(f"{len(failures)} property suite(s) violated", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
