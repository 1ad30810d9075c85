"""Command line surface: subcommands, config file, and precedence rules."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morphsplit import cli
from morphsplit.corpus import (
    SyntheticSpec,
    generate_synthetic_corpus,
    parse_corpus,
    write_corpus,
)
from morphsplit.errors import ConfigError, ParseError
from morphsplit.runner import OUTPUT_DIR_ENV, RECORD_COLUMNS, RunConfig


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demo.tsv"
    assert cli.main(
        ["synth", "--output", str(path), "--words", "60", "--seed", "3"]
    ) == 0
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSynth:
    def test_writes_parseable_corpus(self, corpus_file, capsys):
        corpus = parse_corpus(corpus_file)
        assert len(corpus) == 60

    def test_deterministic(self, tmp_path, corpus_file):
        other = tmp_path / "again.tsv"
        run_cli("synth", "--output", other, "--words", 60, "--seed", 3)
        assert other.read_bytes() == Path(corpus_file).read_bytes()

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        out, expected = tmp_path / "cli.tsv", tmp_path / "spec.tsv"
        assert run_cli("synth", "--words", 50, "--output", out) == 0
        write_corpus(generate_synthetic_corpus(SyntheticSpec(50)), expected)
        assert out.read_bytes() == expected.read_bytes()


class TestSplit:
    def test_random_with_manifest(self, corpus_file, tmp_path, capsys):
        manifest = tmp_path / "man.json"
        code = run_cli(
            "split", "--corpus", corpus_file, "--strategy", "random",
            "--ratio", "9:1", "--seed", 1, "--output", manifest,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=random" in out and "distance=" in out
        data = json.loads(manifest.read_text())
        assert data["strategy"] == "random"

    def test_adversarial_beats_random_distance(self, corpus_file, capsys):
        run_cli("split", "--corpus", corpus_file, "--strategy", "random",
                "--seed", 1)
        random_out = capsys.readouterr().out
        run_cli("split", "--corpus", corpus_file, "--strategy", "adversarial",
                "--seed", 1, "--budget", 300)
        adv_out = capsys.readouterr().out
        dist = lambda s: float(s.rsplit("distance=", 1)[1].split()[0])
        assert dist(adv_out) >= dist(random_out)

    def test_heuristic_miss_is_not_an_error(self, corpus_file, capsys):
        code = run_cli(
            "split", "--corpus", corpus_file, "--strategy", "heuristic",
            "--ratio", "1:1", "--tolerance", "1/1000",
        )
        assert code == 0
        assert "no morpheme-count threshold" in capsys.readouterr().out

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        code = run_cli("split", "--corpus", tmp_path / "nope.tsv",
                       "--strategy", "random")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_bad_tolerance_is_usage_error(self, corpus_file, capsys, text):
        with pytest.raises(SystemExit) as exc:
            run_cli("split", "--corpus", corpus_file, "--strategy", "heuristic",
                    "--tolerance", text)
        assert exc.value.code == 2
        assert f"argument --tolerance: bad value {text!r}" in capsys.readouterr().err


class TestTrainSegmentEvaluate:
    def test_round_trip(self, corpus_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--corpus", corpus_file, "--model", "unigram_viterbi",
            "--output", model,
        ) == 0
        words = tmp_path / "words.txt"
        gold = tmp_path / "gold.tsv"
        lines = Path(corpus_file).read_text().splitlines()[:10]
        gold.write_text("\n".join(lines) + "\n")
        words.write_text(
            "\n".join(ln.split("\t")[0] for ln in lines) + "\n"
        )
        pred = tmp_path / "pred.tsv"
        assert run_cli(
            "segment", "--model", model, "--input", words, "--output", pred,
        ) == 0
        predicted = parse_corpus(pred)
        assert [w.surface for w in predicted] == [
            ln.split("\t")[0] for ln in lines
        ]
        capsys.readouterr()
        assert run_cli("evaluate", "--gold", gold, "--pred", pred) == 0
        out = capsys.readouterr().out
        assert out.count("precision=") == 2
        assert out.splitlines()[0].startswith("boundary ")
        assert out.splitlines()[1].startswith("morpheme ")

    def test_segment_to_stdout(self, corpus_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        run_cli("train", "--corpus", corpus_file, "--model", "longest_match",
                "--output", model)
        words = tmp_path / "words.txt"
        words.write_text("dedno\n")
        capsys.readouterr()
        assert run_cli("segment", "--model", model, "--input", words) == 0
        out = capsys.readouterr().out.strip()
        surface, morphemes = out.split("\t")
        assert surface == "dedno"
        assert "".join(morphemes.split(" ")) == "dedno"

    def test_boundary_logistic_model_is_the_experiments(self, corpus_file, tmp_path):
        """``train`` and the experiment train the boundary classifier alike,
        by gradient descent whatever ``--optimizer`` says."""
        from morphsplit.models import FeatureTable, SegmenterId, save_model, train_segmenter

        cli_model = tmp_path / "cli.json"
        assert run_cli("train", "--corpus", corpus_file, "--model", "boundary_logistic",
                       "--output", cli_model) == 0
        cfg = RunConfig(corpus_paths=(str(corpus_file),), output_dir=str(tmp_path / "run"))
        corpus = parse_corpus(corpus_file)
        model = train_segmenter(
            SegmenterId("boundary_logistic"),
            corpus,
            template=cfg.template(),
            config=cfg.train_config(seed=0),
            table=FeatureTable((w.surface for w in corpus), cfg.template()),
        )
        save_model(model, tmp_path / "experiment.json")
        assert cli_model.read_bytes() == (tmp_path / "experiment.json").read_bytes()

    @pytest.mark.parametrize("damage", ["no_features", "truncated"])
    def test_damaged_model_exits_2_with_a_clean_error(self, corpus_file, tmp_path, capsys, damage):
        model = tmp_path / "model.json"
        if damage == "no_features":
            model.write_text('{"kind": "crf"}\n')
        else:
            run_cli("train", "--corpus", corpus_file, "--model", "crf",
                    "--max-iterations", 2, "--output", model)
            model.write_bytes(model.read_bytes()[:100])
        words = tmp_path / "words.txt"
        words.write_text("dedno\n")
        capsys.readouterr()
        assert run_cli("segment", "--model", model, "--input", words) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: damaged model file") and str(model) in err
        assert "Traceback" not in err

    def test_single_variant_flag(self, corpus_file, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("ab\ta b\n")
        capsys.readouterr()
        assert run_cli("evaluate", "--gold", gold, "--pred", gold,
                       "--variant", "boundary") == 0
        out = capsys.readouterr().out
        assert out.count("precision=") == 1
        assert "f1=1.000000" in out

    def test_length_mismatch_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("ab\ta b\n")
        b.write_text("ab\ta b\ncd\tc d\n")
        assert run_cli("evaluate", "--gold", a, "--pred", b) == 2


CONFIG_TEMPLATE = """\
# smoke config
corpus_paths = {corpus}
output_dir = {out}
fractions = 3/10
samples_per_fraction = 1
residual_splits = 1
new_test_generations = random
residual_strategies = random,adversarial
models = longest_match,unigram_viterbi
seeds_per_model = 1
adversarial_budget = 200
"""


def write_config(tmp_path, corpus_file, out_name="run"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(corpus=corpus_file, out=tmp_path / out_name)
    )
    return cfg, tmp_path / out_name


class TestConfigFile:
    def test_parse_types(self, tmp_path, corpus_file):
        cfg_path, out = write_config(tmp_path, corpus_file)
        kwargs = cli.parse_config_file(cfg_path)
        assert kwargs["corpus_paths"] == (str(corpus_file),)
        assert kwargs["samples_per_fraction"] == 1
        assert kwargs["models"] == ("longest_match", "unigram_viterbi")
        assert str(kwargs["fractions"][0]) == "3/10"

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("turbo = yes\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.parse_config_file(bad)

    def test_line_without_equals_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("models\n")
        with pytest.raises(ParseError, match="key = value"):
            cli.parse_config_file(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cli.parse_config_file(tmp_path / "ghost.cfg")


# Every experiment flag and the config key it sets; six spellings differ.
FLAG_VALUES = (
    ("--corpus", "corpus_paths", "a.tsv"),
    ("--output-dir", "output_dir", "out"),
    ("--fractions", "fractions", "1/5,3/10"),
    ("--samples-per-fraction", "samples_per_fraction", "2"),
    ("--residual-splits", "residual_splits", "1"),
    ("--residual-ratio", "residual_ratio", "4:1"),
    ("--generations", "new_test_generations", "random"),
    ("--strategies", "residual_strategies", "adversarial,random"),
    ("--models", "models", "crf,longest_match"),
    ("--seeds-per-model", "seeds_per_model", "2"),
    ("--f1-variant", "f1_variant", "morpheme"),
    ("--average", "f1_average", "macro"),
    ("--collapse-epsilon", "collapse_epsilon", "0.05"),
    ("--master-seed", "master_seed", "7"),
    ("--budget", "adversarial_budget", "300"),
    ("--parallelism", "parallelism", "2"),
    ("--max-ngram", "max_ngram", "2"),
    ("--window", "window", "1"),
    ("--optimizer", "optimizer", "gradient_descent"),
    ("--max-iterations", "max_iterations", "50"),
    ("--convergence-tol", "convergence_tol", "1e-05"),
    ("--l2-lambda", "l2_lambda", "0.25"),
    ("--smoothing", "unigram_smoothing", "0.5"),
)
EXPECTED = RunConfig(
    corpus_paths=("a.tsv",), output_dir="out",
    fractions=(Fraction(1, 5), Fraction(3, 10)), samples_per_fraction=2,
    residual_splits=1, residual_ratio=Fraction(4, 1),
    new_test_generations=("random",), residual_strategies=("adversarial", "random"),
    models=("crf", "longest_match"), seeds_per_model=2, f1_variant="morpheme",
    f1_average="macro", collapse_epsilon=0.05, master_seed=7,
    adversarial_budget=300, parallelism=2, max_ngram=2, window=1,
    optimizer="gradient_descent", max_iterations=50, convergence_tol=1e-5,
    l2_lambda=0.25, unigram_smoothing=0.5,
)


class TestConfigSchema:
    def test_keys_fields_and_flags_agree(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        args = cli.build_parser().parse_args(["experiment"])
        dests = set(vars(args)) - {"command", "func", "config"}
        assert set(cli._CONFIG_KEYS) == fields
        assert dests == fields
        assert {key for _, key, _ in FLAG_VALUES} == fields

    def test_every_flag_spelling_parses(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        argv = ["experiment"]
        for flag, _, value in FLAG_VALUES:
            argv += [flag, value]
        args = cli.build_parser().parse_args(argv)
        assert cli._experiment_config(args) == EXPECTED

    def test_every_config_key_parses(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {value}\n" for _, key, value in FLAG_VALUES))
        assert RunConfig(**cli.parse_config_file(path)) == EXPECTED

    @pytest.mark.parametrize(
        "flag, value",
        [("--residual-ratio", "9-1"), ("--fractions", "1/0"),
         ("--samples-per-fraction", "two")],
    )
    def test_bad_flag_value_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["experiment", flag, value])
        assert exc.value.code == 2


class TestExperimentPrecedence:
    def test_config_file_run(self, tmp_path, corpus_file, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        cfg_path, out = write_config(tmp_path, corpus_file)
        assert run_cli("experiment", "--config", cfg_path) == 0
        assert (out / "ledger.json").exists()
        assert (out / "aggregate.csv").exists()

    def test_env_overrides_file(self, tmp_path, corpus_file, monkeypatch):
        cfg_path, file_out = write_config(tmp_path, corpus_file)
        env_out = tmp_path / "env-run"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_out))
        assert run_cli("experiment", "--config", cfg_path) == 0
        assert (env_out / "ledger.json").exists()
        assert not file_out.exists()

    def test_flag_overrides_env(self, tmp_path, corpus_file, monkeypatch):
        cfg_path, _ = write_config(tmp_path, corpus_file)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-run"))
        flag_out = tmp_path / "flag-run"
        assert run_cli(
            "experiment", "--config", cfg_path, "--output-dir", flag_out
        ) == 0
        assert (flag_out / "ledger.json").exists()
        assert not (tmp_path / "env-run").exists()

    def test_flags_without_file(self, tmp_path, corpus_file, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        out = tmp_path / "flags-only"
        assert run_cli(
            "experiment", "--corpus", corpus_file, "--output-dir", out,
            "--fractions", "3/10", "--samples-per-fraction", 1,
            "--residual-splits", 1, "--generations", "random",
            "--strategies", "random", "--models", "longest_match",
            "--seeds-per-model", 1,
        ) == 0
        assert (out / "ledger.json").exists()

    def test_missing_corpus_reports_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert run_cli("experiment", "--output-dir", tmp_path / "x") == 2
        assert "no corpus given" in capsys.readouterr().err

    def test_missing_output_dir_reports_error(
        self, tmp_path, corpus_file, capsys, monkeypatch
    ):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert run_cli("experiment", "--corpus", corpus_file) == 2
        assert "no output directory" in capsys.readouterr().err


class TestExperimentExitCodes:
    def test_failed_cells_exit_nonzero(self, tmp_path, corpus_file, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        script = tmp_path / "broken.py"
        script.write_text("import sys; sys.exit(9)\n")
        out = tmp_path / "run"
        code = run_cli(
            "experiment", "--corpus", corpus_file, "--output-dir", out,
            "--fractions", "3/10", "--samples-per-fraction", 1,
            "--residual-splits", 1, "--generations", "random",
            "--strategies", "random",
            "--models", f"external:python3 {script}",
            "--seeds-per-model", 1,
        )
        assert code == 1
        assert (out / "ledger.json").exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, corpus_file):
    tmp = tmp_path_factory.mktemp("finished")
    cfg_path, out = write_config(tmp, corpus_file)
    import os

    old = os.environ.pop(OUTPUT_DIR_ENV, None)
    try:
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    finally:
        if old is not None:
            os.environ[OUTPUT_DIR_ENV] = old
    return out


class TestResumeReportCli:
    def test_resume_noop(self, finished_run, capsys):
        assert run_cli("resume", "--ledger", finished_run) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_report_kinds(self, finished_run, capsys):
        for kind in ("tables", "plots-data"):
            assert run_cli("report", "--ledger", finished_run,
                           "--kind", kind) == 0
            assert ".csv" in capsys.readouterr().out

    def test_damaged_ledger_exits_2_with_a_clean_error(self, finished_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        ledger = run / "ledger.json"
        ledger.write_bytes(ledger.read_bytes()[:50])
        for argv in (("resume",), ("report", "--kind", "tables")):
            assert run_cli(*argv, "--ledger", run) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: damaged ledger") and str(ledger) in err
            assert "Traceback" not in err

    def test_report_invalid_kind_usage_error(self, finished_run):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--ledger", finished_run, "--kind", "pictures")
        assert exc.value.code == 2


class TestRegress:
    def test_fits_records_csv(self, tmp_path_factory, corpus_file, capsys,
                              tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        out = tmp_path / "run"
        assert run_cli(
            "experiment", "--corpus", corpus_file, "--output-dir", out,
            "--fractions", "1/5,3/10", "--samples-per-fraction", 2,
            "--residual-splits", 2, "--generations", "random,adversarial",
            "--strategies", "random,adversarial",
            "--models", "longest_match,unigram_viterbi",
            "--seeds-per-model", 1, "--budget", 200,
        ) == 0
        capsys.readouterr()
        records = out / "languages" / "demo" / "records.csv"
        assert run_cli("regress", "--records", records) == 0
        text = capsys.readouterr().out
        assert "r_squared=" in text
        assert "model[unigram_viterbi]" in text

    def test_non_numeric_cell_names_file_and_line(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text(
            "# f1_variant=boundary average=micro languages=equal-weight\n"
            + ",".join(RECORD_COLUMNS) + "\n"
            + "c0,crf,eval,zero,1,1,0.5,2,1,1\n"
        )
        assert run_cli("regress", "--records", records) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records}:3: ")
        assert "'zero'" in err


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "c.tsv"
        proc = subprocess.run(
            ["morphsplit", "synth", "--output", str(out), "--words", "10"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_module_invocation(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "c.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "morphsplit.cli", "synth",
             "--output", str(out), "--words", "10"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_package_runs_as_module(self, tmp_path):
        # a checkout works without an installed console script: the package
        # directory goes on the child's import path, nothing is looked up on PATH
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "c.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "morphsplit", "synth",
             "--output", str(out), "--words", "10"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert len(parse_corpus(out)) == 10
