import itertools
import random
import re
import runpy
from pathlib import Path

import pytest
from click.testing import CliRunner

from seqboost import BoostConfig, Corpus, UniformModel, load_corpus, log_loss, run_boost
from seqboost.boost import make_oracle
from seqboost.cli import main
from seqboost.serialize import load_model


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a\na\na\nb\n")
    return str(path)


class TestFit:
    def test_reports_loss_and_writes_model(self, runner, corpus_file, tmp_path):
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(out)]
        )
        assert result.exit_code == 0
        assert "log-loss: 0.562335 nats" in result.output
        assert out.exists()

    def test_laplace_smoothing_shows_in_model_file(self, runner, corpus_file, tmp_path):
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["fit", "--corpus", corpus_file, "--length", "1", "--lam", "1", "--model-out", str(out)],
        )
        assert result.exit_code == 0
        assert "0.6666666666666666" in out.read_text()

    def test_missing_corpus_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "--corpus", str(tmp_path / "nope.txt"), "--length", "1"])
        assert result.exit_code == 2

    def test_config_file_supplies_defaults(self, runner, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus = {corpus_file}\n"
            "length = 1  # padded length\n"
            f"model_out = {tmp_path / 'm.txt'}\n"
        )
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 0
        assert "0.562335" in result.output

    def test_flag_overrides_config(self, runner, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {corpus_file}\nlength = 1\nlambda = 0\n")
        result = runner.invoke(
            main,
            ["fit", "--config", str(cfg), "--lam", "1", "--model-out", str(tmp_path / "m.txt")],
        )
        assert result.exit_code == 0
        assert "0.6666666666666666" in (tmp_path / "m.txt").read_text()

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "line 1" in result.output



class TestConfig:
    """Config values go through click's own casting and checks, as flags do."""

    @pytest.fixture
    def aab(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SEQBOOST_OUTDIR", raising=False)
        (tmp_path / "aab.txt").write_text("a a\na a\na b\n")
        return tmp_path

    def invoke(self, runner, command, text, *flags):
        Path("run.cfg").write_text(text)
        return runner.invoke(main, [command, "--config", "run.cfg", *flags])

    @pytest.mark.parametrize("command, line, message", [
        ("fit", "length = two", "'two' is not a valid integer"),
        ("boost", "max_iters = 1.5", "'1.5' is not a valid integer"),
        ("boost", "epsilon = abc", "'abc' is not a valid float"),
        ("boost", "init = unifrom", "'unifrom' is not one of"),
        ("distinguish", "samples = 0", "--samples"),
        ("boost", "epsilson = 0.5", "unknown key 'epsilson'"),
        ("fit", "config = other.cfg", "unknown key 'config'"),
        ("fit", "lambda = 0.5\nlam = 0", "'lam' already set"),
        ("boost", "epsilon = 0.5\nepsilon = 0.2", "'epsilon' already set"),
    ])
    def test_bad_value_or_key_exits_2_without_a_traceback(self, runner, aab, command, line,
                                                          message):
        fitted = runner.invoke(main, ["fit", "--corpus", "aab.txt", "--length", "2"])
        assert fitted.exit_code == 0
        base = ["corpus = aab.txt", "length = 2", "model = model.txt",
                "distinguisher = token-indicator:a", "estimator = monte-carlo"]
        # The case's line takes the place of a base line with the same key.
        text = "".join(f"{b}\n" for b in base if b.split(" = ")[0] + " =" not in line)
        result = self.invoke(runner, command, text + line + "\n")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output

    def test_one_file_serves_fit_boost_and_distinguish(self, runner, aab):
        text = ("corpus = aab.txt\nlength = 2\nlambda = 0.5\nepsilon = 0.2\n"
                "model = model.txt\ndistinguisher = token-indicator:b\n")
        assert self.invoke(runner, "fit", text).exit_code == 0
        assert (aab / "model.txt").exists()
        boosted = self.invoke(runner, "boost", text, "--init", "ngram")
        assert boosted.exit_code == 0, boosted.output
        assert "initial loss 0.915418" in boosted.output  # the lambda 0.5 unigram, not 1.79176
        # The required --distinguisher comes from the file alone.
        result = self.invoke(runner, "distinguish", text)
        assert result.exit_code == 0, result.output
        assert "whole-sequence advantage: -0.119048 " in result.output  # 1.5/7 - 1/3

    def test_comment_only_and_blank_lines_are_skipped(self, runner, aab):
        text = "# a run over aab\n\n   # indented comment\ncorpus = aab.txt\n \t\nlength = 2\n"
        result = self.invoke(runner, "fit", text)
        assert result.exit_code == 0, result.output
        assert (aab / "model.txt").exists()

    def test_flag_before_config_still_wins(self, runner, aab):
        Path("run.cfg").write_text("corpus = aab.txt\nlength = 2\nlam = 0\n")
        result = runner.invoke(main, ["fit", "--lam", "1", "--config", "run.cfg"])
        assert result.exit_code == 0
        assert "lambda=1\n" in (aab / "model.txt").read_text()

    def test_output_directory_is_config_then_environment_then_cwd(self, runner, aab, monkeypatch):
        text = "corpus = aab.txt\nlength = 2\n"
        assert self.invoke(runner, "fit", text).exit_code == 0
        assert (aab / "model.txt").exists()
        monkeypatch.setenv("SEQBOOST_OUTDIR", "from_env")
        assert self.invoke(runner, "fit", text).exit_code == 0
        assert (aab / "from_env" / "model.txt").exists()
        assert self.invoke(runner, "fit", text + "outdir = from_cfg\n").exit_code == 0
        assert (aab / "from_cfg" / "model.txt").exists()
        result = self.invoke(runner, "fit", text + "outdir = from_cfg\n", "--model-out", "flag.txt")
        assert result.exit_code == 0
        assert (aab / "flag.txt").exists()

    def test_output_directories_are_made_only_when_a_file_is_written(self, runner, aab):
        result = self.invoke(runner, "boost", "corpus = missing.txt\nlength = 2\noutdir = out\n")
        assert result.exit_code == 2
        assert not (aab / "out").exists()
        # Both paths are probed before boosting refuses the epsilon: no directory is left.
        result = runner.invoke(main, ["boost", "--corpus", "aab.txt", "--length", "2",
                                      "--epsilon", "1e-200", "--trace-out", "newdir/a/t.csv",
                                      "--model-out", "newdir/b/m.txt"])
        assert result.exit_code == 2, result.output
        assert not (aab / "newdir").exists()
        result = runner.invoke(main, ["boost", "--corpus", "aab.txt", "--length", "2",
                                      "--epsilon", "0.2", "--trace-out", "new/t.csv",
                                      "--model-out", "new/deeper/m.txt"])
        assert result.exit_code == 0, result.output
        assert (aab / "new" / "t.csv").exists()
        assert (aab / "new" / "deeper" / "m.txt").exists()

    def test_one_file_with_an_outdir_drives_fit_boost_and_eval(self, runner, aab):
        text = (f"corpus = {aab / 'aab.txt'}\nlength = 2\norder = 2\nlambda = 0.1\n"
                f"epsilon = 0.01\noutdir = {aab / 'out'}\n")
        assert self.invoke(runner, "fit", text).exit_code == 0
        assert self.invoke(runner, "boost", text, "--init", "ngram").exit_code == 0
        assert sorted(path.name for path in (aab / "out").iterdir()) == [
            "boosted_model.txt", "model.txt", "trace.csv"]
        result = self.invoke(runner, "eval", text, "--model", str(aab / "out/boosted_model.txt"))
        assert result.exit_code == 0, result.output

    def test_overflowing_lambda_exits_2_before_writing_a_model(self, runner, aab):
        result = runner.invoke(main, ["fit", "--corpus", "aab.txt", "--length", "2",
                                      "--lam", "1e308"])
        assert result.exit_code == 2
        assert "too large" in result.output
        assert not (aab / "model.txt").exists()

def run_boost_cli(runner, corpus_file, outdir, epsilon="0.01", extra=()):
    return runner.invoke(
        main,
        [
            "boost",
            "--corpus", corpus_file,
            "--length", "1",
            "--init", "uniform",
            "--oracle", "token-indicator",
            "--epsilon", epsilon,
            "--trace-out", str(outdir / "trace.csv"),
            "--model-out", str(outdir / "model.txt"),
            *extra,
        ],
    )


class TestBoost:
    def test_identical_reruns_give_identical_traces(self, runner, corpus_file, tmp_path):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            d.mkdir()
            result = run_boost_cli(runner, corpus_file, d)
            assert result.exit_code == 0
        t1 = (dirs[0] / "trace.csv").read_bytes()
        t2 = (dirs[1] / "trace.csv").read_bytes()
        assert t1 == t2

    def test_trace_loss_is_nonincreasing(self, runner, corpus_file, tmp_path):
        result = run_boost_cli(runner, corpus_file, tmp_path)
        assert result.exit_code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[2]) for r in rows]
        assert losses == sorted(losses, reverse=True)

    @pytest.mark.parametrize("epsilon", ["0.9", "1e200"])  # 1e200**2 overflows
    def test_large_epsilon_terminates_in_one_probe(self, runner, corpus_file, tmp_path, epsilon):
        result = run_boost_cli(runner, corpus_file, tmp_path, epsilon=epsilon)
        assert result.exit_code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus the single sub-threshold probe

    def test_max_iters_exceeded_exits_3_but_writes_trace(self, runner, corpus_file, tmp_path):
        result = run_boost_cli(
            runner, corpus_file, tmp_path, epsilon="1e-6", extra=["--max-iters", "1"]
        )
        assert result.exit_code == 3
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("epsilon", ["1e-200", "1e-160"])
    def test_epsilon_without_a_finite_iteration_bound_exits_2_writing_nothing(
        self, runner, corpus_file, tmp_path, epsilon
    ):
        result = run_boost_cli(runner, corpus_file, tmp_path, epsilon=epsilon)
        assert result.exit_code == 2
        assert f"epsilon {epsilon} is too small" in result.output
        assert not (tmp_path / "trace.csv").exists() and not (tmp_path / "model.txt").exists()
        # --max-iters caps the run without the bound.
        result = run_boost_cli(runner, corpus_file, tmp_path, epsilon=epsilon,
                               extra=["--max-iters", "1"])
        assert result.exit_code == 3
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2

    def test_boosted_model_beats_uniform(self, runner, corpus_file, tmp_path):
        result = run_boost_cli(runner, corpus_file, tmp_path)
        assert result.exit_code == 0
        assert "initial loss 0.693147" in result.output
        eval_result = runner.invoke(
            main,
            ["eval", "--model", str(tmp_path / "model.txt"), "--corpus", corpus_file,
             "--length", "1"],
        )
        assert eval_result.exit_code == 0
        loss = float(eval_result.output.split("log-loss: ")[1].split()[0])
        assert loss < 0.60

    def test_unknown_oracle_is_usage_error(self, runner, corpus_file, tmp_path):
        result = run_boost_cli(runner, corpus_file, tmp_path, extra=["--oracle", "psychic"])
        assert result.exit_code == 2

    def test_ngram_order_beyond_the_length_is_usage_error(self, runner, corpus_file, tmp_path):
        result = run_boost_cli(
            runner, corpus_file, tmp_path,
            extra=["--oracle", "ngram-indicator", "--oracle-order", "2"],
        )
        assert result.exit_code == 2
        assert "exceeds the length 1" in result.output


class TestDistinguish:
    def test_token_indicator_against_fitted_model(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.txt"
        runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(model)]
        )
        result = runner.invoke(
            main,
            ["distinguish", "--corpus", corpus_file, "--length", "1", "--model", str(model),
             "--distinguisher", "token-indicator:b"],
        )
        assert result.exit_code == 0
        assert "whole-sequence advantage: 0 " in result.output
        assert "step-wise advantage: 0" in result.output

    def test_monte_carlo_estimator_reports_sample_count(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.txt"
        runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(model)]
        )
        result = runner.invoke(
            main,
            ["distinguish", "--corpus", corpus_file, "--length", "1", "--model", str(model),
             "--distinguisher", "token-indicator:b", "--estimator", "monte-carlo",
             "--samples", "2000", "--seed", "1"],
        )
        assert result.exit_code == 0
        assert "(2000 samples)" in result.output

    def test_distinguisher_is_parsed_in_the_model_vocabulary(self, runner, tmp_path):
        model = fit_aab_unigram(runner, tmp_path)
        held = tmp_path / "heldout.txt"
        held.write_text("a a\n")
        args = ["distinguish", "--corpus", str(held), "--model", str(model)]
        result = runner.invoke(main, args + ["--length", "2", "--distinguisher", "token-indicator:b"])
        assert result.exit_code == 0
        assert "whole-sequence advantage: 0.214286 " in result.output  # q(last token b) = 1.5/7
        for extra in (["--length", "3", "--distinguisher", "token-indicator:b"],
                      ["--length", "2", "--distinguisher", "token-indicator:c"]):
            assert runner.invoke(main, args + extra).exit_code == 2

    def test_length_defaults_to_the_models(self, runner, tmp_path):
        model = fit_aab_unigram(runner, tmp_path)
        held = tmp_path / "heldout.txt"
        held.write_text("a a\nb\n")
        args = ["distinguish", "--corpus", str(held), "--model", str(model),
                "--distinguisher", "ngram-indicator:a,b"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == runner.invoke(main, args + ["--length", "2"]).output
        assert runner.invoke(main, args + ["--length", "1"]).exit_code == 2

    def test_unknown_kind_rejected(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.txt"
        runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(model)]
        )
        result = runner.invoke(
            main,
            ["distinguish", "--corpus", corpus_file, "--length", "1", "--model", str(model),
             "--distinguisher", "telepathy:b"],
        )
        assert result.exit_code == 2


    @pytest.mark.parametrize("spec", ["token-indicator:a,b", "telepathy:b", "token-indicator:",
                                      "1-1-token-indicator:b", "ngram-indicator:a,,b"])
    def test_malformed_spec_exits_2_without_a_traceback(self, runner, tmp_path, spec):
        model = fit_aab_unigram(runner, tmp_path)
        result = runner.invoke(main, ["distinguish", "--corpus", str(tmp_path / "aab.txt"),
                                      "--model", str(model), "--distinguisher", spec])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output


def fit_aab_unigram(runner, tmp_path):
    """A unigram fitted with lambda 0.5 on a a / a a / a b: q(a) = 5.5/7, q(b) = 1.5/7."""
    corpus = tmp_path / "aab.txt"
    corpus.write_text("a a\na a\na b\n")
    model = tmp_path / "aab_model.txt"
    result = runner.invoke(
        main,
        ["fit", "--corpus", str(corpus), "--length", "2", "--lam", "0.5", "--model-out", str(model)],
    )
    assert result.exit_code == 0
    return model


class TestEval:
    def test_table_comparison_of_exact_fit_gives_zero_divergences(
        self, runner, corpus_file, tmp_path
    ):
        model = tmp_path / "model.txt"
        runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(model)]
        )
        table = tmp_path / "table.csv"
        table.write_text("sequence,prob\na,0.75\nb,0.25\n")
        result = runner.invoke(main, ["eval", "--model", str(model), "--table", str(table)])
        assert result.exit_code == 0
        assert "kl(table||model): 0 nats" in result.output
        assert "tvd(table,model): 0" in result.output

    @pytest.mark.parametrize(
        "heldout, length, exit_code, loss",
        [
            ("b b\n", "2", 0, "3.08089"),  # -2 log(1.5/7), read in the model's vocabulary
            ("b b\n", "3", 2, None),
            ("b\n", "1", 2, None),
            ("a c\n", "2", 2, None),
        ],
    )
    def test_heldout_is_read_with_the_model_vocabulary_and_length(
        self, runner, tmp_path, heldout, length, exit_code, loss
    ):
        model = fit_aab_unigram(runner, tmp_path)
        held = tmp_path / "heldout.txt"
        held.write_text(heldout)
        result = runner.invoke(
            main, ["eval", "--model", str(model), "--corpus", str(held), "--length", length]
        )
        assert result.exit_code == exit_code
        if loss is not None:
            assert f"log-loss: {loss} nats" in result.output

    def test_length_defaults_to_the_models(self, runner, tmp_path):
        model = fit_aab_unigram(runner, tmp_path)
        held = tmp_path / "heldout.txt"
        held.write_text("b b\n")
        result = runner.invoke(main, ["eval", "--model", str(model), "--corpus", str(held)])
        assert result.exit_code == 0
        assert "log-loss: 3.08089 nats" in result.output
        held.write_text("a a a\n")  # longer than the model's length 2
        result = runner.invoke(main, ["eval", "--model", str(model), "--corpus", str(held)])
        assert result.exit_code == 2
        assert "exceeds length 2" in result.output

    def test_blank_table_lines_are_skipped(self, runner, tmp_path):
        model, table = fit_aab_unigram(runner, tmp_path), tmp_path / "table.csv"
        outputs = []
        for blank in ("", "\n", " \t\n"):
            table.write_text(f"sequence,prob\na a,0.75\n{blank}a b,0.25\n{blank}")
            result = runner.invoke(main, ["eval", "--model", str(model), "--table", str(table)])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1] == outputs[2] and "kl(table||model)" in outputs[0]

    def test_an_impossible_heldout_line_reports_an_infinite_loss(self, runner, tmp_path):
        corpus, model, held = tmp_path / "aab.txt", tmp_path / "model.txt", tmp_path / "held.txt"
        corpus.write_text("a a\na a\na b\n")
        fitted = runner.invoke(main, ["fit", "--corpus", str(corpus), "--length", "2",
                                      "--model-out", str(model)])
        assert fitted.exit_code == 0
        held.write_text("a a\na\n")  # the unsmoothed unigram never ends a line early
        result = runner.invoke(main, ["eval", "--model", str(model), "--corpus", str(held)])
        assert result.exit_code == 0, result.output
        assert result.output == ("log-loss: infinite (sequence 1 is impossible under the model "
                                 "(infinite loss))\n")

    def test_nothing_to_evaluate(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.txt"
        runner.invoke(
            main, ["fit", "--corpus", corpus_file, "--length", "1", "--model-out", str(model)]
        )
        result = runner.invoke(main, ["eval", "--model", str(model)])
        assert result.exit_code == 2


class TestAgeExperiment:
    def test_default_distribution_report(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["age-experiment", "--report-out", str(out)])
        assert result.exit_code == 0
        assert "likelihood-best cap m = 119" in result.output
        assert "0.158333" in result.output
        assert "0.166667" in result.output
        rows = dict(
            line.split(",", 1) for line in out.read_text().splitlines()[1:]
        )
        assert rows["uniform_mle_m"] == "119"
        assert int(rows["tvd_min_m"]) < 100
        assert float(rows["tvd_at_min"]) < float(rows["tvd_at_mle"])

    def test_report_rows_are_the_report_fields_in_order(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        assert runner.invoke(main, ["age-experiment", "--report-out", str(out)]).exit_code == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == [
            "key", "uniform_mle_m", "tail_over_100_strict", "tail_over_100_inclusive",
            "tvd_min_m", "tvd_at_min", "tvd_at_mle", "kl_at_tvd_min", "geometric_theta",
            "geometric_mean_gap", "geometric_gradient",
        ]

    @pytest.mark.parametrize("m", [-1, 120])
    def test_a_uniform_cap_outside_0_to_119_is_rejected(self, m):
        from seqboost.age import AGE_MAX, uniform_family_probs

        assert AGE_MAX == 119 and uniform_family_probs(AGE_MAX).sum() == pytest.approx(1.0)
        with pytest.raises(ValueError, match=r"m must be in 0\.\.119"):
            uniform_family_probs(m)

    def test_bad_length_input_rejected(self, runner, tmp_path):
        ages = tmp_path / "ages.txt"
        ages.write_text("0.5\n0.5\n")
        result = runner.invoke(main, ["age-experiment", "--ages", str(ages)])
        assert result.exit_code == 2


AAB = ["--corpus", "{aab}", "--length", "2"]
MC = ["--distinguisher", "token-indicator:a", "--estimator", "monte-carlo"]


@pytest.mark.parametrize("args, message", [
    (["fit", *AAB, "--order", "0"], "order must be >= 1"),
    (["fit", *AAB, "--lam", "-1"], "lambda must be nonnegative"),
    (["fit", *AAB, "--vocab", "{missing}"], "cannot read vocabulary"),
    (["boost", *AAB, "--epsilon", "0"], "epsilon must be positive"),
    (["boost", *AAB, "--max-iters", "0"], "max_iters must be >= 1"),
    (["boost", *AAB, "--init", "ngram", "--order", "0"], "order must be >= 1"),
    (["age-experiment", "--ages", "{missing}"], "cannot read ages"),
    (["age-experiment", "--ages", "{xy}"], "could not convert"),
    (["distinguish", "--model", "{wide_model}", "--corpus", "{wide}", "--length", "4",
      "--distinguisher", "token-indicator:t0"], "budget exceeded: 41^4 > 2000000"),
    (["distinguish", "--model", "{aab_model}", *AAB, *MC, "--samples", "0"], "--samples"),
    (["distinguish", "--model", "{aab_model}", *AAB, *MC, "--samples", "-3"], "--samples"),
    (["boost", *AAB, "--epsilon", "nan"], "epsilon must be positive"),
    # epsilon^2 underflows to 0, or 2 L0 / (N epsilon^2) to infinity.
    (["boost", *AAB, "--epsilon", "1e-200"], "epsilon 1e-200 is too small"),
    (["boost", *AAB, "--epsilon", "1e-160"], "epsilon 1e-160 is too small"),
    (["fit", *AAB, "--lam", "nan"], "lambda must be nonnegative and finite"),
    (["fit", *AAB, "--lam", "inf"], "lambda must be nonnegative and finite"),
    (["boost", *AAB, "--init", "ngram", "--lam", "nan"], "lambda must be nonnegative and finite"),
    (["fit", "--corpus", "{empty}", "--length", "2"], "empty corpus"),
    (["fit", "--corpus", "{long}", "--length", "2"], "line 3: 3 tokens exceeds length 2"),
    (["fit", "--corpus", "{long8}", "--length", "8"], "line 3: 9 tokens exceeds length 8"),
    (["fit", "--corpus", "{padded}", "--length", "2"],
     "line 2: the pad token '<pad>' may not appear in a line"),
    (["eval", "--model", "{aab_model}", "--corpus", "{xy}"], "line 1: token 'x' not in vocabulary"),
    # Every output that cannot be written and every input that cannot be read
    # or decoded is a usage error that names the file.
    (["fit", *AAB, "--model-out", "{dir}"], "cannot write {dir}"),
    (["fit", *AAB, "--model-out", "{aab}/x"], "cannot write {aab}/x"),
    (["boost", *AAB, "--epsilon", "0.2", "--trace-out", "{dir}"], "cannot write {dir}"),
    (["boost", *AAB, "--epsilon", "1e-6", "--max-iters", "1", "--trace-out", "{dir}"],
     "cannot write {dir}"),
    (["boost", *AAB, "--epsilon", "0.2", "--model-out", "{dir}"], "cannot write {dir}"),
    (["oracle-check", "--report-out", "{dir}"], "cannot write {dir}"),
    (["age-experiment", "--report-out", "{dir}"], "cannot write {dir}"),
    (["SEQBOOST_OUTDIR={aab}", "fit", *AAB], "cannot write {aab}/model.txt"),
    (["fit", "--corpus", "{dir}", "--length", "2"], "cannot load corpus {dir}"),
    (["boost", "--corpus", "{dir}", "--length", "2"], "cannot load corpus {dir}"),
    (["eval", "--model", "{aab_model}", "--corpus", "{dir}"], "cannot load corpus {dir}"),
    (["distinguish", "--model", "{aab_model}", "--corpus", "{dir}", *MC],
     "cannot load corpus {dir}"),
    (["fit", "--config", "{latin1}"], "cannot read config file {latin1}"),
    (["eval", "--model", "{aab_model}", "--table", "{latin1}"], "cannot read table {latin1}"),
    (["distinguish", "--model", "{aab_model}", *MC], "Missing option '--corpus'"),
    (["fit", *AAB, "--vocab", "{void}"], "empty vocabulary file: {void}"),
    (["boost", *AAB, "--oracle", "ngram-indicator", "--oracle-order", "0"], "order must be >= 1"),
    (["age-experiment", "--ages", "{age_zero}"], "target mean 0.0 out of reachable range"),
    (["age-experiment", "--ages", "{age_negative}"],
     "age probabilities must be nonnegative and sum to 1"),
])
def test_argument_errors_exit_2_without_a_traceback(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    files = {"aab": tmp_path / "aab.txt", "missing": tmp_path / "missing.txt",
             "xy": tmp_path / "xy_ages.txt", "wide": tmp_path / "wide.txt",
             "wide_model": tmp_path / "wide_model.txt", "aab_model": tmp_path / "aab_model.txt",
             "empty": tmp_path / "empty.txt", "long": tmp_path / "long.txt",
             "long8": tmp_path / "long8.txt",
             "padded": tmp_path / "padded.txt", "dir": tmp_path / "dir",
             "latin1": tmp_path / "latin1.txt", "void": tmp_path / "void.txt",
             "age_zero": tmp_path / "age_zero.txt", "age_negative": tmp_path / "age_negative.txt"}
    files["aab"].write_text("a a\na a\na b\n")
    files["empty"].write_text("\n \t\n")
    files["long"].write_text("a\n\na b c\nb c d\n")
    files["long8"].write_text("w1\nw2 w3\nw1 w2 w3 w4 w5 w6 w7 w8 w9\n")
    files["padded"].write_text("a b\na <pad>\n")
    files["xy"].write_text("x y\n")
    files["dir"].mkdir()
    files["latin1"].write_bytes("length = 2  # déjà\n".encode("latin-1"))
    files["void"].write_text("")
    files["age_zero"].write_text("1\n" + "0\n" * 119)  # every age 0: a mean no theta reaches
    files["age_negative"].write_text("-0.5\n1.5\n" + "0\n" * 118)
    # 40 tokens at length 4: 41^4 sequences, past the default enumeration budget.
    files["wide"].write_text("".join(f"t{i % 40} t{(i * 7) % 40}\n" for i in range(60)))
    for corpus, model, length in (("aab", "aab_model", "2"), ("wide", "wide_model", "4")):
        fitted = runner.invoke(main, ["fit", "--corpus", str(files[corpus]), "--length", length,
                                      "--model-out", str(files[model])])
        assert fitted.exit_code == 0
    # Leading NAME=value words set the environment, as on a shell line.
    line = [arg.format(**files) for arg in args]
    env = dict(arg.split("=", 1) for arg in itertools.takewhile(lambda a: "=" in a, line))
    result = runner.invoke(main, line[len(env):], env=env)
    assert result.exit_code == 2, result.output
    assert message.format(**files) in result.output
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def deep_ci_corpus(tmp_path_factory):
    """80 lines of 2-8 tokens over 3 letters at length 8, the shape of the boost-deep benchmark."""
    r = random.Random(0)
    path = tmp_path_factory.mktemp("deep") / "deep.txt"
    path.write_text("\n".join(" ".join(r.choice("abc") for _ in range(r.randint(2, 8)))
                              for _ in range(80)) + "\n")
    return path


def test_unwritable_outputs_exit_2_before_any_work(runner, tmp_path, monkeypatch, deep_ci_corpus):
    import seqboost.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_boost", lambda *args: calls.append("run_boost"))
    monkeypatch.setattr(cli, "default_suites", lambda **kwargs: calls.append("default_suites"))
    deep, trace, out = deep_ci_corpus, tmp_path / "trace.csv", tmp_path / "out"
    out.mkdir()
    boost = ["boost", "--corpus", str(deep), "--length", "8", "--oracle", "ngram-indicator",
             "--oracle-order", "3", "--epsilon", "0.001"]
    result = runner.invoke(main, boost + ["--trace-out", str(out)])
    assert result.exit_code == 2 and f"cannot write {out}" in result.output
    # A bad model path leaves no trace file, and an existing one as it was.
    result = runner.invoke(main, boost + ["--trace-out", str(trace), "--model-out", str(out)])
    assert result.exit_code == 2 and f"cannot write {out}" in result.output
    assert not trace.exists()
    trace.write_text("kept\n")
    assert runner.invoke(main, boost + ["--trace-out", str(trace), "--model-out", str(out)]).exit_code == 2
    assert trace.read_text() == "kept\n"
    result = runner.invoke(main, ["oracle-check", "--report-out", str(out)])
    assert result.exit_code == 2 and f"cannot write {out}" in result.output
    assert calls == []


# Round trips: every model file the CLI writes is read back by eval and
# distinguish, and a reloaded boosted model's loss is its trace's final loss.


def invoke_ok(*args):
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 0, result.output
    return result.output


def trace_loss(trace):
    return float(trace.read_text().splitlines()[-1].split(",")[2])


def reload_loss(model_file, corpus_file):
    """The loss of a model file on a corpus read at its length in its vocabulary."""
    model = load_model(model_file)
    corpus, _ = load_corpus(corpus_file, model.length, model.vocab)
    return log_loss(model, corpus).log_loss


@pytest.fixture(scope="module")
def aab_runs(tmp_path_factory):
    """Models fitted and boosted on a a / a a / a b at length 2, each boost with its trace."""
    d = tmp_path_factory.mktemp("aab")
    (d / "aab.txt").write_text("a a\na a\na b\n")
    # A vocabulary file fixes the ids: b before a, and c, which the corpus never uses.
    (d / "vocab.txt").write_text("<pad>\nb\na\nc\n")
    fit = ["fit", "--corpus", d / "aab.txt", "--length", "2"]
    invoke_ok(*fit, "--order", "2", "--lam", "0.1", "--model-out", d / "bigram.txt")
    invoke_ok(*fit, "--lam", "0.5", "--model-out", d / "unigram.txt")
    invoke_ok(*fit, "--order", "2", "--lam", "0.1", "--vocab", d / "vocab.txt",
              "--model-out", d / "vocab_bigram.txt")
    for name, flags in (
        ("ngram", ["--init", "ngram", "--order", "2", "--lam", "0.1", "--epsilon", "0.01"]),
        ("log_ratio", ["--oracle", "log-ratio", "--ref-model", d / "unigram.txt",
                       "--epsilon", "0.2"]),
        ("token", ["--oracle", "token-indicator", "--epsilon", "0.01"]),
    ):
        invoke_ok("boost", "--corpus", d / "aab.txt", "--length", "2", *flags,
                  "--trace-out", d / f"{name}_trace.csv", "--model-out", d / f"{name}_boosted.txt")
    return d


class TestRoundTrips:
    def test_fitted_models_evaluate(self, aab_runs):
        d = aab_runs
        assert "token=c" in (d / "vocab_bigram.txt").read_text().splitlines()
        for model in ("bigram", "vocab_bigram"):
            invoke_ok("eval", "--model", d / f"{model}.txt", "--corpus", d / "aab.txt",
                      "--length", "2")
        # The length comes from the model file.
        invoke_ok("eval", "--model", d / "bigram.txt", "--corpus", d / "aab.txt")

    @pytest.mark.parametrize("name, rounds, loss", [
        ("ngram", 7, "0.665749"), ("log_ratio", 4, "1.30262"), ("token", 99, "0.921243"),
    ])
    def test_a_boosted_model_evaluates_to_its_trace_loss(self, aab_runs, name, rounds, loss):
        d = aab_runs
        trace = d / f"{name}_trace.csv"
        model, want = d / f"{name}_boosted.txt", trace_loss(trace)
        assert len(trace.read_text().splitlines()) == 1 + rounds and f"{want:.6g}" == loss
        # boost read the trace's loss from its own conditional arrays, not
        # through the loader's rows; eval prints it, and the reload matches it
        # to all 17 digits, with ==.
        output = invoke_ok("eval", "--model", model, "--corpus", d / "aab.txt", "--length", "2")
        assert output.startswith(f"log-loss: {loss} nats ")
        assert reload_loss(model, d / "aab.txt") == want

    @pytest.mark.parametrize("name", ["ngram", "log_ratio"])
    def test_a_boosted_model_is_distinguished_and_compared_to_a_table(self, aab_runs, tmp_path,
                                                                      name):
        d = aab_runs
        model = d / f"{name}_boosted.txt"
        for estimator in ("exact", "monte-carlo"):
            invoke_ok("distinguish", "--model", model, "--corpus", d / "aab.txt", "--length", "2",
                      "--distinguisher", "token-indicator:b", "--estimator", estimator,
                      "--samples", "1000")
        table = tmp_path / "table.csv"
        table.write_text("sequence,prob\na a,0.75\na b,0.25\n")
        invoke_ok("eval", "--model", model, "--table", table)

    def test_a_boosted_factor_whose_params_are_not_a_list_exits_2(self, runner, aab_runs,
                                                                  tmp_path):
        lines = (aab_runs / "ngram_boosted.txt").read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("factor="))
        lines[i] = lines[i].partition('"params": ')[0] + '"params": 5}\n'
        bad = tmp_path / "bad_params.txt"
        bad.write_text("".join(lines))
        result = runner.invoke(main, ["eval", "--model", str(bad),
                                      "--corpus", str(aab_runs / "aab.txt"), "--length", "2"])
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output


# name, oracle, epsilon, reference model.
DEEP_BOOSTS = [
    ("token", "token-indicator", "0.001", "unigram"),
    ("ngram3", "ngram-indicator", "0.001", "unigram"),  # about 3,000 rounds
    ("log_ratio", "log-ratio", "0.01", "unigram"),
    # 54 log-ratio factors: each reads the chain it extends, so the reload is not O(T^2).
    ("log_ratio3", "log-ratio", "0.003", "unigram"),
    # About 50 log-ratio factors against the token-boosted model: a reference
    # that is itself a reweighted model, which keeps its corpus rows in its own slot.
    ("log_ratio_token", "log-ratio", "0.003", "token_boosted"),
]


@pytest.fixture(scope="module")
def deep_runs(deep_ci_corpus):
    """The deep corpus's lambda 0.5 unigram and its DEEP_BOOSTS, boosted from uniform."""
    d = deep_ci_corpus.parent
    invoke_ok("fit", "--corpus", deep_ci_corpus, "--length", "8", "--lam", "0.5",
              "--model-out", d / "unigram.txt")
    for name, oracle, epsilon, reference in DEEP_BOOSTS:
        flags = {"ngram-indicator": ["--oracle-order", "3"],
                 "log-ratio": ["--ref-model", d / f"{reference}.txt"]}.get(oracle, [])
        invoke_ok("boost", "--corpus", deep_ci_corpus, "--length", "8", "--oracle", oracle, *flags,
                  "--epsilon", epsilon, "--trace-out", d / f"{name}_trace.csv",
                  "--model-out", d / f"{name}_boosted.txt")
    return d


@pytest.mark.parametrize("name", [boost[0] for boost in DEEP_BOOSTS])
def test_a_deep_boosted_model_reloads_to_its_trace_loss(deep_runs, name):
    d = deep_runs
    model, deep = d / f"{name}_boosted.txt", d / "deep.txt"
    assert reload_loss(model, deep) == trace_loss(d / f"{name}_trace.csv")  # all 17 digits
    invoke_ok("eval", "--model", model, "--corpus", deep)
    mc = ["--corpus", deep, "--length", "8", "--estimator", "monte-carlo", "--samples", "1000"]
    invoke_ok("distinguish", "--model", model, *mc, "--distinguisher", "token-indicator:b")
    # The step-wise log-ratio of the model against a reference read from a model file.
    invoke_ok("distinguish", "--model", model, *mc,
              "--distinguisher", f"log-ratio:{d / 'unigram.txt'}")


@pytest.mark.parametrize("name, oracle, epsilon, reference",
                         [boost for boost in DEEP_BOOSTS if boost[0] != "log_ratio3"])
def test_python_boost_writes_the_cli_trace_and_scores_as_its_reload(deep_runs, tmp_path, name,
                                                                    oracle, epsilon, reference):
    """run_boost on the loaded corpus, and on a Corpus built from a copy of
    its ids (another prefix index), writes the CLI's trace byte for byte; each
    round reads g on the corpus's distinct prefixes.  The boosted model then
    scores a held-out corpus (the first 40 lines), the training corpus and the
    held-out one again, each time with the loss of a reloaded copy (==), and
    refuses a corpus of the training ids' first 7 columns."""
    d = deep_runs
    corpus, vocab = load_corpus(d / "deep.txt", 8)
    want = (d / f"{name}_trace.csv").read_text()
    ref_model = load_model(d / f"{reference}.txt")
    for c in (corpus, Corpus(vocab, 8, corpus.ids.copy())):
        model, trace = run_boost(UniformModel(vocab, 8), c,
                                 make_oracle(oracle, order=3, reference=ref_model),
                                 BoostConfig(epsilon=float(epsilon)))
        assert trace.to_csv_text() == want
    heldout_file = tmp_path / "heldout.txt"
    heldout_file.write_text("".join((d / "deep.txt").read_text().splitlines(keepends=True)[:40]))
    heldout, _ = load_corpus(heldout_file, 8, vocab)
    reloaded = load_model(d / f"{name}_boosted.txt")
    for c in (heldout, corpus, heldout):
        assert log_loss(model, c).log_loss == log_loss(reloaded, c).log_loss
    with pytest.raises(ValueError, match="is not the model"):
        log_loss(model, Corpus(vocab, 7, corpus.ids[:, :7]))


def test_a_model_of_several_row_blocks_round_trips(tmp_path):
    """5,000 lines over 600 tokens: a bigram of 601 rows, written and read in several blocks."""
    r = random.Random(0)
    big, model = tmp_path / "big.txt", tmp_path / "m.txt"
    big.write_text("\n".join(" ".join(f"w{r.randrange(600)}" for _ in range(r.randint(1, 8)))
                             for _ in range(5000)) + "\n")
    fitted = invoke_ok("fit", "--corpus", big, "--length", "8", "--order", "2", "--lam", "0.1",
                       "--model-out", model)
    assert fitted.endswith(invoke_ok("eval", "--model", model, "--corpus", big))


def test_the_demo_script_boosts_to_the_count_based_fit(capsys):
    runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "boost_unigram_demo.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "terminated: indistinguishable" in out
    # The run stops once no token indicator, flipped or not, has an advantage
    # |q(t) - p(t)| of epsilon = 0.01.
    q_a, q_b = map(float, re.search(r"boosted q\(a\) = (\S+), q\(b\) = (\S+)\n", out).groups())
    assert q_a == pytest.approx(0.75, abs=0.01) and q_b == pytest.approx(0.25, abs=0.01)


def fit_xy_unigram(runner, tmp_path):
    """A unigram fitted on x y / y x at length 3: another vocabulary and length than aab."""
    corpus = tmp_path / "xy.txt"
    corpus.write_text("x y\ny x\n")
    model = tmp_path / "xy_model.txt"
    result = runner.invoke(
        main, ["fit", "--corpus", str(corpus), "--length", "3", "--model-out", str(model)]
    )
    assert result.exit_code == 0
    return model


class TestModelFiles:
    """Every path that reads a model file exits 2 on a missing or malformed one."""

    @pytest.fixture(params=["missing", "not-a-model", "truncated", "one-token-uniform"])
    def bad_model(self, request, tmp_path):
        path = tmp_path / "bad_model.txt"
        if request.param == "not-a-model":
            path.write_text("a\nb\n")
        elif request.param == "truncated":
            path.write_text("seqboost-model v1\nkind=ngram\n")
        elif request.param == "one-token-uniform":  # no content token: nothing to be uniform over
            path.write_text("seqboost-model v2\nkind=uniform\nn=1\nlength=2\ntoken=<pad>\n")
        return str(path)

    def test_eval_model(self, runner, tmp_path, bad_model):
        held = tmp_path / "held.txt"
        held.write_text("a a\n")
        result = runner.invoke(
            main, ["eval", "--model", bad_model, "--corpus", str(held), "--length", "2"]
        )
        assert result.exit_code == 2
        assert "cannot load model" in result.output

    def test_distinguish_model(self, runner, tmp_path, bad_model):
        held = tmp_path / "held.txt"
        held.write_text("a a\n")
        result = runner.invoke(
            main,
            ["distinguish", "--model", bad_model, "--corpus", str(held), "--length", "2",
             "--distinguisher", "token-indicator:a"],
        )
        assert result.exit_code == 2
        assert "cannot load model" in result.output

    def test_distinguish_log_ratio_reference(self, runner, tmp_path, bad_model):
        model = fit_aab_unigram(runner, tmp_path)
        held = tmp_path / "held.txt"
        held.write_text("a a\n")
        result = runner.invoke(
            main,
            ["distinguish", "--model", str(model), "--corpus", str(held), "--length", "2",
             "--distinguisher", f"log-ratio:{bad_model}"],
        )
        assert result.exit_code == 2
        assert "cannot load model" in result.output

    def test_boost_ref_model(self, runner, tmp_path, bad_model):
        corpus = tmp_path / "aab.txt"
        corpus.write_text("a a\na a\na b\n")
        result = runner.invoke(
            main,
            ["boost", "--corpus", str(corpus), "--length", "2", "--oracle", "log-ratio",
             "--ref-model", bad_model, "--trace-out", str(tmp_path / "trace.csv"),
             "--model-out", str(tmp_path / "boosted.txt")],
        )
        assert result.exit_code == 2
        assert "cannot load model" in result.output

    def test_boost_ref_model_of_another_vocabulary_and_length(self, runner, tmp_path):
        reference = fit_xy_unigram(runner, tmp_path)
        corpus = tmp_path / "aab.txt"
        corpus.write_text("a a\na a\na b\n")
        result = runner.invoke(
            main,
            ["boost", "--corpus", str(corpus), "--length", "2", "--oracle", "log-ratio",
             "--ref-model", str(reference), "--trace-out", str(tmp_path / "trace.csv"),
             "--model-out", str(tmp_path / "boosted.txt")],
        )
        assert result.exit_code == 2
        assert ("the reference's domain (3 tokens, length 3) is not the corpus's (3 tokens, "
                "length 2): its token 1 is 'x' where the corpus's is 'a'") in result.output
        assert not (tmp_path / "boosted.txt").exists()

    def test_distinguish_log_ratio_reference_of_another_vocabulary(self, runner, tmp_path):
        model = fit_aab_unigram(runner, tmp_path)
        reference = fit_xy_unigram(runner, tmp_path)
        held = tmp_path / "held.txt"
        held.write_text("a a\n")
        result = runner.invoke(
            main,
            ["distinguish", "--model", str(model), "--corpus", str(held), "--length", "2",
             "--distinguisher", f"log-ratio:{reference}"],
        )
        assert result.exit_code == 2
        assert ("the reference's domain (3 tokens, length 3) is not the model's (3 tokens, "
                "length 2): its token 1 is 'x' where the model's is 'a'") in result.output


def fit_abb_bigram(runner, tmp_path):
    """A bigram fitted with lambda 0.5 on a a / a b / b at length 2."""
    corpus = tmp_path / "abb.txt"
    corpus.write_text("a a\na b\nb\n")
    model = tmp_path / "abb_model.txt"
    result = runner.invoke(
        main,
        ["fit", "--corpus", str(corpus), "--length", "2", "--order", "2", "--lam", "0.5",
         "--model-out", str(model)],
    )
    assert result.exit_code == 0
    return model


class TestNGramRows:
    """A malformed n-gram row is a usage error, not a crash or a wrong number."""

    def test_fitted_rows(self, runner, tmp_path):
        model = fit_abb_bigram(runner, tmp_path)
        # The fill is the row's most frequent value, the smallest on a tie.
        assert model.read_text().splitlines()[-3:] == [
            "context=|0.1111111111111111|1:0.55555555555555558 2:0.33333333333333331",
            "context=1|0.42857142857142855|0:0.14285714285714285",
            "context=2|0.20000000000000001|0:0.59999999999999998",
        ]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("context=1|0.42857142857142855|0:0.14285714285714285",
             "context=1|0.14285714285714285 0.42857142857142855"),  # a short dense row
            ("context=1|", "context=7|"),  # a context id outside 0..n-1
            ("context=1|", "context=1,1|"),  # a context longer than order - 1
            ("0:0.59999999999999998", "0:0.59999999999999998 3:0.1"),  # a token id outside 0..n-1
            ("0:0.59999999999999998", "-1:0.59999999999999998"),  # a negative token id
            ("1:0.55555555555555558 2:0.33333333333333331",
             "2:0.33333333333333331 1:0.55555555555555558"),  # token ids out of order
            ("0:0.14285714285714285", "0=0.14285714285714285"),  # a pair without its id
            ("context=1|0.42857142857142855|0:0.14285714285714285",
             "context=1|-0.5 1.0 0.5"),  # a negative entry
            ("0:0.59999999999999998", "0:0.5"),  # a row summing to 0.9
            ("n=3", "n=4"),  # n differs from the token lines
        ],
    )
    def test_malformed_row_exits_2(self, runner, tmp_path, old, new):
        model = fit_abb_bigram(runner, tmp_path)
        text = model.read_text()
        assert old in text
        model.write_text(text.replace(old, new, 1))
        held = tmp_path / "held.txt"
        held.write_text("a b\n")
        result = runner.invoke(
            main, ["eval", "--model", str(model), "--corpus", str(held), "--length", "2"]
        )
        assert result.exit_code == 2
        assert "cannot load model" in result.output


    @pytest.mark.parametrize("context", ["context=|", "context=1|"])
    def test_context_listed_twice_exits_2(self, runner, tmp_path, context):
        model = fit_abb_bigram(runner, tmp_path)
        lines = model.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(context))
        model.write_text("".join(lines[: i + 1] + lines[i:]))
        held = tmp_path / "held.txt"
        held.write_text("a b\n")
        result = runner.invoke(main, ["eval", "--model", str(model), "--corpus", str(held)])
        assert result.exit_code == 2, result.output
        label = context[len("context="):-1]
        assert "cannot load model" in result.output
        assert f"context {label!r} is listed twice" in result.output


REWEIGHTED_FILE = """seqboost-model v2
kind=reweighted
n=3
length=2
factors=1
factor=0.5|{"kind": "token-indicator", "params": [1]}
base:
seqboost-model v2
kind=uniform
n=3
length=2
token=<pad>
token=a
token=b
"""


UNIFORM_SECTION = REWEIGHTED_FILE.split("base:\n")[1]
TOKEN_FACTOR = '{"kind": "token-indicator", "params": [1]}'
# A log-ratio factor against a uniform reference; its base is uniform too.
LOG_RATIO_FILE = REWEIGHTED_FILE.replace(
    TOKEN_FACTOR, '{"kind": "log-ratio", "params": [2.0]}'
).replace("base:\n", f"reference:\n{UNIFORM_SECTION}base:\n")


class TestFactorPayloads:
    """A factor whose kind and params no built-in distinguisher writes is a
    usage error when the file is loaded, never a traceback or a silent load."""

    def eval(self, runner, tmp_path, text):
        model, held = tmp_path / "model.txt", tmp_path / "held.txt"
        model.write_text(text)
        held.write_text("a b\nb a\n")
        return runner.invoke(main, ["eval", "--model", str(model), "--corpus", str(held)])

    @pytest.mark.parametrize("text", [REWEIGHTED_FILE, LOG_RATIO_FILE])
    def test_written_files_evaluate(self, runner, tmp_path, text):
        result = self.eval(runner, tmp_path, text)
        assert result.exit_code == 0, result.output
        assert "infinite" not in result.output

    @pytest.mark.parametrize("payload", [
        '{"kind": "token-indicator", "params": 5}',
        '{"kind": "token-indicator", "params": [-1]}',
        '{"kind": "token-indicator", "params": [3]}',
        '{"kind": "token-indicator", "params": [1.5]}',
        '{"kind": "token-indicator", "params": [1, 2]}',
        '{"kind": "token-indicator", "params": ["1"]}',
        '{"kind": "token-indicator", "params": [true]}',
        '{"kind": "token-indicator", "params": []}',
        '{"kind": "ngram-indicator", "params": [1, null]}',
        '{"kind": "token-indicator"}',
        '{"kind": "telepathy", "params": [1]}',
        '{"kind": ["token-indicator"], "params": [1]}',
        '{"kind": "log-ratio", "params": [2.0]}',  # no reference section
        '5',
        '[1]',
        '{"kind": "token-indicator", "params": [1]',
    ])
    def test_bad_payload_exits_2(self, runner, tmp_path, payload):
        result = self.eval(runner, tmp_path, REWEIGHTED_FILE.replace(TOKEN_FACTOR, payload))
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and "Traceback" not in result.output

    @pytest.mark.parametrize("params", ["[NaN]", "[Infinity]", "[-Infinity]", "[0.5]", "[1.0]",
                                        "[]", "[2.0, 3.0]", '["2"]', "[true]", "2.0"])
    def test_bad_log_ratio_params_exit_2(self, runner, tmp_path, params):
        text = LOG_RATIO_FILE.replace('"params": [2.0]', f'"params": {params}')
        result = self.eval(runner, tmp_path, text)
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and "Traceback" not in result.output


class TestModelHeaders:
    """A model file whose weights or header cannot mean anything exits 2 when
    it is loaded; ``eval --table`` does not print NaN divergences or crash."""

    def eval_table(self, runner, tmp_path, text):
        model = tmp_path / "model.txt"
        model.write_text(text)
        table = tmp_path / "table.csv"
        table.write_text("sequence,prob\na a,0.75\na b,0.25\n")
        return runner.invoke(main, ["eval", "--model", str(model), "--table", str(table)])

    def test_written_file_evaluates(self, runner, tmp_path):
        result = self.eval_table(runner, tmp_path, REWEIGHTED_FILE)
        assert result.exit_code == 0, result.output
        assert "nan" not in result.output

    @pytest.mark.parametrize("old, new, message", [
        ("factor=0.5|", "factor=nan|", "weight must be finite"),
        ("factor=0.5|", "factor=inf|", "weight must be finite"),
        ("kind=reweighted\nn=3", "kind=reweighted\nn=4", "header n=4, length=2, factors=1"),
        ("n=3\nlength=2\nfactors", "n=3\nlength=3\nfactors", "header n=3, length=3"),
        ("factors=1", "factors=2", "factors=2 does not match"),
        pytest.param("n=3\nlength=2\ntoken=<pad>\ntoken=a\ntoken=b\n",
                     "n=1\nlength=2\ntoken=<pad>\n", "needs a content token", id="one-token-base"),
        ("base:\n", "bass:\n", "reweighted model file missing base section"),
        ("kind=uniform", "kind=zipf", "unknown model kind 'zipf'"),
        ("token=b\n", "token=b\n\n\njunk\n", "malformed model file: unexpected line 'junk'"),
    ])
    def test_reweighted_file_exits_2(self, runner, tmp_path, old, new, message):
        assert old in REWEIGHTED_FILE
        result = self.eval_table(runner, tmp_path, REWEIGHTED_FILE.replace(old, new, 1))
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and message in result.output

    @pytest.mark.parametrize("b, base", [
        ("1e308", UNIFORM_SECTION),
        # The base's rows are [0, 1/3, 2/3]; the reweighted rows would read
        # [0, 0.3208, 0.6792], an eval loss that is silently wrong.
        ("1e15", UNIFORM_SECTION.replace("kind=uniform\n", "kind=ngram\norder=1\nlambda=0\n")
         + "context=|0|1:0.33333333333333331 2:0.66666666666666663\n"),
    ], ids=["uniform-1e308", "unigram-1e15"])
    def test_weights_whose_total_exceeds_2_to_the_23_exit_2(self, runner, tmp_path, b, base):
        # Every token takes the same two penalties, b each: the true conditionals
        # are the base's, but the running total of the weights exceeds 2**23.
        flip = TOKEN_FACTOR.replace("[1]", '[1, "flip"]')
        factors = "".join(f"factor={b}|{g}\n" for g in (TOKEN_FACTOR, flip))
        text = REWEIGHTED_FILE.replace("factors=1\n", "factors=2\n").replace(
            f"factor=0.5|{TOKEN_FACTOR}\n", factors).replace(UNIFORM_SECTION, base)
        assert text.count(f"factor={b}|") == 2 and text.endswith(base)
        corpus = tmp_path / "aab.txt"
        corpus.write_text("a a\na a\na b\n")
        by_table = self.eval_table(runner, tmp_path, text)
        by_corpus = runner.invoke(main, ["eval", "--model", str(tmp_path / "model.txt"),
                                         "--corpus", str(corpus)])
        for result in (by_table, by_corpus):
            assert result.exit_code == 2, result.output
            assert "cannot load model" in result.output and "exceeds 2**23" in result.output

    @pytest.mark.parametrize("order", ["-1", "0"])
    def test_order_below_1_exits_2(self, runner, tmp_path, order):
        # No context rows, whose own check would speak first.
        text = "".join(line for line in fit_abb_bigram(runner, tmp_path).read_text()
                       .splitlines(keepends=True) if not line.startswith("context="))
        assert "order=2\n" in text
        result = self.eval_table(runner, tmp_path, text.replace("order=2\n", f"order={order}\n"))
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and "order must be >= 1" in result.output

    @pytest.mark.parametrize("kind", ["uniform", "ngram"])
    @pytest.mark.parametrize("length", ["-1", "0"])
    def test_length_below_1_exits_2(self, runner, tmp_path, kind, length):
        if kind == "ngram":
            text = fit_abb_bigram(runner, tmp_path).read_text()
        else:
            text = REWEIGHTED_FILE.split("base:\n")[1]
        assert "length=2\n" in text
        result = self.eval_table(runner, tmp_path, text.replace("length=2\n", f"length={length}\n"))
        assert result.exit_code == 2, result.output
        assert f"length={length} is below 1" in result.output


class TestLogRatioModel:
    @pytest.mark.parametrize("old, new, message", [
        ("length=2\n", "length=3\n",
         "the reference's domain (3 tokens, length 3) is not its base's (3 tokens, length 2)"),
        ("token=b\n", "token=c\n",
         "the reference's domain (3 tokens, length 2) is not its base's (3 tokens, length 2): "
         "its token 2 is 'c' where its base's is 'b'"),
        ("token=b\n", "token=b\ntoken=c\n",
         "the reference's domain (4 tokens, length 2) is not its base's (3 tokens, length 2)"),
    ])
    def test_reference_unlike_its_base_exits_2(self, runner, tmp_path, old, new, message):
        reference = fit_aab_unigram(runner, tmp_path)
        corpus, boosted = tmp_path / "aab.txt", tmp_path / "boosted.txt"
        result = runner.invoke(
            main,
            ["boost", "--corpus", str(corpus), "--length", "2", "--oracle", "log-ratio",
             "--ref-model", str(reference), "--epsilon", "0.2",
             "--trace-out", str(tmp_path / "trace.csv"), "--model-out", str(boosted)],
        )
        assert result.exit_code == 0, result.output
        head, rest = boosted.read_text().split("reference:\n")
        section, base = rest.split("base:\n")
        assert old in section and old in base
        if "(4 tokens" in message:
            section = section.replace("n=3\n", "n=4\n", 1)
        boosted.write_text(f"{head}reference:\n{section.replace(old, new, 1)}base:\n{base}")
        result = runner.invoke(main, ["eval", "--model", str(boosted), "--corpus", str(corpus)])
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and message in result.output


class TestOracleCheck:
    def test_all_suites_pass(self, runner, tmp_path):
        out = tmp_path / "check.csv"
        result = runner.invoke(main, ["oracle-check", "--report-out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "property,instances,min_slack,pass"
        assert all(line.endswith(",1") for line in lines[1:])
        # The nine suites, in order and at their stated sizes: the benchmark's
        # exact-audit checks this set, so a tenth suite must be added there too.
        assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
            ("whole-sequence-reweight-bound", "200"),
            ("stepwise-reweight-bound", "200"),
            ("log-ratio-advantage-bound", "200"),
            ("kl-gradient-finite-difference", "50"),
            ("pinsker", "500"),
            ("advantage-below-tvd", "500"),
            ("bayes-optimal-equals-tvd", "100"),
            ("exhaustive-indicators-equal-tvd", "20"),
            ("boost-termination", "20"),
        ]
        assert "FAIL" not in result.output

    def test_fault_injection_is_detected(self, runner, tmp_path):
        out = tmp_path / "check.csv"
        result = runner.invoke(
            main, ["oracle-check", "--report-out", str(out), "--fault-z-scale", "1.01"]
        )
        assert result.exit_code == 3
        assert "FAIL  stepwise-reweight-bound" in result.output

    @pytest.mark.parametrize("scale", ["0", "nan", "-1", "inf"])
    def test_fault_scale_must_be_positive_and_finite(self, runner, tmp_path, scale):
        out = tmp_path / "check.csv"
        result = runner.invoke(
            main, ["oracle-check", "--report-out", str(out), "--fault-z-scale", scale]
        )
        assert result.exit_code == 2, result.output
        assert "must be positive and finite" in result.output
        assert not out.exists()
