"""End-to-end experiment orchestration: determinism, resume, reports."""

import contextlib
import csv
import hashlib
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import pytest

from morphsplit import cli
from morphsplit import corpus as C
from morphsplit import runner as R
from morphsplit import splitter as S
from morphsplit.errors import CapacityError, ConfigError, DomainError, LedgerError
from morphsplit.evaluation import DEFAULT_COLLAPSE_EPSILON, CellResult, aggregate_rows
from morphsplit.models import FeatureTable, FeatureTemplate, TrainConfig


def write_synthetic(path, n=60, seed=3):
    spec = C.SyntheticSpec(num_words=n, seed=seed)
    C.write_corpus(C.generate_synthetic_corpus(spec), path)
    return str(path)


# three languages of different sizes and inventories
THREE_LANGUAGES = {
    "aaa": C.SyntheticSpec(120, 12, 6, 1, 2, seed=1),
    "bbb": C.SyntheticSpec(80, 30, 10, 0, 1, seed=2),
    "ccc": C.SyntheticSpec(150, 8, 4, 1, 3, seed=3),
}


# small but non-degenerate: 2 gens x 2 strategies x 1 fraction x 1 sample
# x 1 split = 4 cells, two cheap models
def make_config(corpus_path, out_dir, **overrides):
    base = dict(
        corpus_paths=(str(corpus_path),),
        output_dir=str(out_dir),
        fractions=(Fraction(3, 10),),
        samples_per_fraction=1,
        residual_splits=1,
        new_test_generations=("random", "adversarial"),
        residual_strategies=("random", "adversarial"),
        models=("longest_match", "unigram_viterbi"),
        seeds_per_model=1,
        adversarial_budget=200,
    )
    base.update(overrides)
    return R.RunConfig(**base)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return write_synthetic(tmp_path_factory.mktemp("corpus") / "synA.tsv")


@pytest.fixture(scope="module")
def smoke_run(corpus_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = make_config(corpus_file, out)
    return cfg, R.run_experiment(cfg)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def csv_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in Path(root).rglob("*")
        if p.is_file() and p.name != "ledger.json"
    }


class TestRunConfig:
    def test_defaults_round_trip(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path)
        again = R.RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_ignores_location_and_parallelism(self, corpus_file, tmp_path):
        a = make_config(corpus_file, tmp_path / "a", parallelism=1)
        b = make_config(corpus_file, tmp_path / "b", parallelism=8)
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_science_knobs(self, corpus_file, tmp_path):
        base = make_config(corpus_file, tmp_path)
        for override in (
            dict(master_seed=1),
            dict(models=("longest_match",)),
            dict(fractions=(Fraction(1, 5),)),
            dict(seeds_per_model=2),
            dict(l2_lambda=0.2),
        ):
            other = make_config(corpus_file, tmp_path, **override)
            assert other.config_hash() != base.config_hash()

    @pytest.mark.parametrize(
        "override",
        [
            dict(corpus_paths=()),
            dict(models=()),
            dict(models=("nope",)),
            dict(models=("crf", "crf")),
            dict(new_test_generations=()),
            dict(new_test_generations=("heuristic",)),
            dict(residual_strategies=("random", "random")),
            dict(seeds_per_model=0),
            dict(parallelism=0),
            dict(f1_variant="chars"),
            dict(f1_average="median"),
            dict(collapse_epsilon=-0.1),
            dict(output_dir=""),
            # training and grid settings, caught before any grid or cell work
            dict(optimizer="adam"),
            dict(max_iterations=0),
            dict(window=-1),
            dict(l2_lambda=-1),
            dict(unigram_smoothing=-1),
            dict(samples_per_fraction=0),
            dict(adversarial_budget=-5),
        ],
    )
    def test_rejects(self, corpus_file, tmp_path, override):
        with pytest.raises(ConfigError):
            make_config(corpus_file, tmp_path, **override)

    def test_defaults_are_the_owning_classes(self):
        # each default that a grid, feature or training class also has is
        # that class's, so the two cannot drift apart
        cfg = R.RunConfig(corpus_paths=("corpus.tsv",), output_dir="run")
        assert cfg.template() == FeatureTemplate()
        for seed in (0, 5):
            assert cfg.train_config(seed) == TrainConfig(seed=seed)
        for generation in S.GRID_STRATEGIES:
            assert cfg.plan(generation) == S.ExperimentPlan(new_test_generation=generation)
        assert cfg.collapse_epsilon == DEFAULT_COLLAPSE_EPSILON

    def test_hash_pinned(self):
        # the ledger format is the contract a saved run is resumed against
        default = R.RunConfig(corpus_paths=("corpus.tsv",), output_dir="run")
        assert default.config_hash() == (
            "90398906d07a7ab08da03f9286c98eebe24ef5f8094ce48398a9d33ac78f101b"
        )
        other = R.RunConfig(
            corpus_paths=("a.tsv", "b.tsv"),
            output_dir="run",
            fractions=(Fraction(1, 5), Fraction(3, 10)),
            residual_ratio=Fraction(4, 1),
            models=("crf", "longest_match"),
            collapse_epsilon=0.05,
            l2_lambda=0.25,
            convergence_tol=1e-5,
            unigram_smoothing=0.5,
            samples_per_fraction=2,
            new_test_generations=("random",),
            seeds_per_model=2,
            master_seed=7,
        )
        assert other.config_hash() == (
            "d395a1eec23459a2062c09e81b3027129f6f71f26e463767460eec26c2fcf31f"
        )
        assert other.to_dict()["fractions"] == ["1/5", "3/10"]
        assert other.to_dict()["residual_ratio"] == "4:1"

    def test_float_fields_given_ints_reload_with_the_same_hash(self, corpus_file, tmp_path):
        floats = [name for name, kind in get_type_hints(R.RunConfig).items() if kind is float]
        assert len(floats) == 4
        for name in floats:
            cfg = make_config(corpus_file, tmp_path / name, **{name: 1})
            assert type(getattr(cfg, name)) is float
            again = R.RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert again == cfg
            assert again.config_hash() == cfg.config_hash()
            R.RunLedger(config=cfg, config_hash=cfg.config_hash()).save()
            assert R.RunLedger.load(cfg.output_dir).config == cfg

    def test_boundary_logistic_trains_by_gradient_descent(
        self, corpus_file, tmp_path, monkeypatch
    ):
        """The run's optimizer setting governs the CRF; the boundary
        classifier is gradient-descent trained whatever it says."""
        from morphsplit.models import baselines, crf

        seen = {}
        for module, name in ((baselines, "boundary_logistic"), (crf, "crf")):
            def spy(fun, x0, config, *args, _minimize=module.minimize, _name=name, **kwargs):
                seen[_name] = config.optimizer
                return _minimize(fun, x0, config, *args, **kwargs)
            monkeypatch.setattr(module, "minimize", spy)
        cfg = make_config(corpus_file, tmp_path, optimizer="lbfgs", max_iterations=3)
        corpus = C.parse_corpus(corpus_file)
        for name in ("boundary_logistic", "crf"):
            R.train_segmenter(name, corpus, template=cfg.template(), config=cfg.train_config(seed=7))
        assert seen == {"boundary_logistic": "gradient_descent", "crf": "lbfgs"}


class TestGridEnumeration:
    def test_cardinality(self, corpus_file, tmp_path):
        cfg = make_config(
            corpus_file,
            tmp_path,
            fractions=(Fraction(1, 5), Fraction(3, 10)),
            samples_per_fraction=2,
            residual_splits=2,
        )
        corpora = R._load_corpora(cfg)
        tasks = R.enumerate_cells(cfg, corpora)
        # gens x strategies x fractions x samples x splits
        assert len(tasks) == 2 * 2 * 2 * 2 * 2
        keys = [f"{lang}/{cell.cell_id}" for _, lang, cell in tasks]
        assert len(set(keys)) == len(keys)

    def test_duplicate_language_tags_rejected(self, corpus_file, tmp_path):
        cfg = make_config(
            corpus_file, tmp_path, corpus_paths=(corpus_file, corpus_file)
        )
        with pytest.raises(ConfigError, match="language tag"):
            R._load_corpora(cfg)


class TestComputeCell:
    def test_deterministic_payload(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path)
        corpora = R._load_corpora(cfg)
        _, lang, cell = R.enumerate_cells(cfg, corpora)[0]
        corpus = corpora[0][1]
        a = R.compute_cell(corpus, cell, cfg)
        b = R.compute_cell(corpus, cell, cfg)
        assert a == b

    def test_model_scores_ignore_listing_order(self, corpus_file, tmp_path):
        cfg1 = make_config(
            corpus_file, tmp_path, models=("longest_match", "unigram_viterbi")
        )
        cfg2 = make_config(
            corpus_file, tmp_path, models=("unigram_viterbi", "longest_match")
        )
        corpora = R._load_corpora(cfg1)
        _, _, cell = R.enumerate_cells(cfg1, corpora)[0]
        corpus = corpora[0][1]
        r1 = R.compute_cell(corpus, cell, cfg1)["result"]
        r2 = R.compute_cell(corpus, cell, cfg2)["result"]
        assert r1 == r2

    def test_two_records_per_model(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path)
        corpora = R._load_corpora(cfg)
        _, _, cell = R.enumerate_cells(cfg, corpora)[0]
        payload = R.compute_cell(corpora[0][1], cell, cfg)
        records = payload["records"]
        assert len(records) == 2 * len(cfg.models)
        assert {r["score_on"] for r in records} == {"eval", "new"}
        strategy_bit = 1 if cell.residual_strategy == "random" else 0
        assert all(r["strategy"] == strategy_bit for r in records)


ALL_MODELS = ("boundary_logistic", "crf", "longest_match", "unigram_viterbi")


class TestTrainOnce:
    """Models that ignore their seed train once per cell; scores count k times."""

    def test_only_seeded_models_retrain_per_seed(self, corpus_file, tmp_path, monkeypatch):
        adapter = tmp_path / "echo.py"
        adapter.write_text(
            "import sys\n"
            "train, inp, out = sys.argv[1:4]\n"
            "open(out, 'w').write(open(inp).read())\n"
        )
        calls = []

        def counted(segmenter, corpus, *args, _train=R.train_segmenter, **kwargs):
            calls.append((segmenter.name, kwargs["config"].seed))
            return _train(segmenter, corpus, *args, **kwargs)

        monkeypatch.setattr(R, "train_segmenter", counted)
        cfg = make_config(
            corpus_file, tmp_path / "run",
            models=(*ALL_MODELS, f"external:python3 {adapter}"),
            seeds_per_model=3,
        )
        corpora = R._load_corpora(cfg)
        _, _, cell = R.enumerate_cells(cfg, corpora)[0]
        R.compute_cell(corpora[0][1], cell, cfg)
        assert Counter(name for name, _ in calls) == {
            "boundary_logistic": 1, "crf": 1, "longest_match": 1, "unigram_viterbi": 1,
            "external": 3,
        }
        assert len({seed for name, seed in calls if name == "external"}) == 3

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_artifacts_match_pinned_digests(self, tmp_path, parallelism):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "four_models_seeds3_v1.json").read_text()
        )["files"]
        cfg = make_config(
            write_synthetic(tmp_path / "synA.tsv"), tmp_path / "run",
            models=ALL_MODELS, seeds_per_model=3, parallelism=parallelism,
        )
        R.run_experiment(cfg)
        got = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in csv_bytes(cfg.output_dir).items()
        }
        assert got == pinned


@pytest.fixture()
def tables_built(monkeypatch):
    """The surfaces of every FeatureTable constructed, anywhere."""
    built = []

    def counted(self, surfaces, template, _init=FeatureTable.__init__):
        _init(self, surfaces, template)
        built.append(self.surfaces)

    monkeypatch.setattr(FeatureTable, "__init__", counted)
    return built


class TestSharedFeatures:
    """Each run featurizes a corpus once, and only for feature models."""

    def test_inline_run_builds_one_table_per_language(self, tmp_path, tables_built):
        paths = [
            write_synthetic(tmp_path / "synA.tsv", seed=3),
            write_synthetic(tmp_path / "synB.tsv", seed=4),
        ]
        cfg = make_config(paths[0], tmp_path / "run", corpus_paths=tuple(paths), models=ALL_MODELS)
        ledger = R.run_experiment(cfg)
        assert ledger.failed_keys() == [] and len(ledger.cells) == 8
        corpora = [C.parse_corpus(p) for p in paths]
        assert sorted(tables_built) == sorted(tuple(w.surface for w in c) for c in corpora)
        tables_built.clear()
        R.resume(cfg.output_dir)
        assert tables_built == []

    def test_cheap_models_build_no_table(self, corpus_file, tmp_path, tables_built):
        R.run_experiment(make_config(corpus_file, tmp_path / "run"))
        assert tables_built == []

    def test_builtin_models_make_no_temporary_directory(
        self, corpus_file, tmp_path, monkeypatch
    ):
        made = []

        def counted(*args, _make=R.TemporaryDirectory, **kwargs):
            made.append(args or kwargs)
            return _make(*args, **kwargs)

        monkeypatch.setattr(R, "TemporaryDirectory", counted)
        ledger = R.run_experiment(make_config(corpus_file, tmp_path / "run", models=ALL_MODELS))
        assert ledger.failed_keys() == []
        assert made == []


class TestSharedMorphemeRows:
    """Each process counts a language's morphemes once, for all its splits."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_run_counts_each_language_once_per_process(self, tmp_path, monkeypatch, parallelism):
        # a log file, since pool workers count in processes of their own
        log = tmp_path / "counted.log"

        def counted(words, _count=C.count_morphemes):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {words[0].surface}\n")
            return _count(words)

        monkeypatch.setattr(C, "count_morphemes", counted)
        paths = [
            write_synthetic(tmp_path / "synA.tsv", seed=3),
            write_synthetic(tmp_path / "synB.tsv", seed=4),
        ]
        cfg = make_config(
            paths[0], tmp_path / "run", corpus_paths=tuple(paths), samples_per_fraction=2,
            parallelism=parallelism,
        )
        ledger = R.run_experiment(cfg)
        assert ledger.failed_keys() == [] and len(ledger.cells) == 16
        counts = Counter(tuple(line.split(" ", 1)) for line in log.read_text().splitlines())
        # only whole corpora are counted, each at most once per process
        assert set(counts.values()) == {1}
        assert {word for _, word in counts} == {C.parse_corpus(p)[0].surface for p in paths}
        processes = {pid for pid, _ in counts}
        if parallelism == 1:
            assert processes == {str(os.getpid())} and len(counts) == 2
        else:
            assert str(os.getpid()) not in processes


class TestComputedResults:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_run_reports_the_results_it_computed_without_decoding_them(
        self, corpus_file, smoke_run, tmp_path, monkeypatch, parallelism
    ):
        with monkeypatch.context() as patched:
            patched.setattr(CellResult, "from_dict", no_compute)
            cfg = make_config(
                corpus_file, tmp_path / "run", samples_per_fraction=2, parallelism=parallelism
            )
            ledger = R.run_experiment(cfg)
        assert ledger.failed_keys() == [] and len(ledger.cells) == 8
        before = csv_bytes(cfg.output_dir)
        # a resume that recomputes nothing decodes every artifact instead
        for name in ("aggregate.csv", "best_rankings.csv", "plots_data.csv"):
            (Path(cfg.output_dir) / name).unlink()
        R.resume(cfg.output_dir)
        assert csv_bytes(cfg.output_dir) == before


class TestSmokeRun:
    def test_all_cells_done_with_artifacts(self, smoke_run):
        cfg, ledger = smoke_run
        assert len(ledger.cells) == 4
        assert ledger.failed_keys() == []
        for key, status in ledger.cells.items():
            assert status.status == "done"
            assert ledger.artifact(key).exists()
        out = Path(cfg.output_dir)
        assert (out / "ledger.json").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "best_rankings.csv").exists()
        assert (out / "plots_data.csv").exists()
        lang_dir = out / "languages" / "synA"
        assert (lang_dir / "report_rows.csv").exists()
        assert (lang_dir / "records.csv").exists()

    def test_report_rows_match_artifacts(self, smoke_run):
        cfg, ledger = smoke_run
        out = Path(cfg.output_dir)
        rows = read_csv(out / "languages" / "synA" / "report_rows.csv")
        by_key = {}
        for key in ledger.cells:
            payload = json.loads(ledger.artifact(key).read_text())
            result = CellResult.from_dict(payload["result"])
            for m in result.models():
                by_key[(result.cell_id, m)] = result
        assert len(rows) == len(by_key)
        for row in rows:
            result = by_key[(row["cell_id"], row["model"])]
            m = row["model"]
            assert row["f1_boundary_eval"] == f"{result.boundary_eval[m].f1:.6f}"
            assert row["f1_boundary_new"] == f"{result.boundary_new[m].f1:.6f}"
            assert row["f1_morpheme_eval"] == f"{result.morpheme_eval[m].f1:.6f}"
            assert row["morpheme_overlap"] == f"{result.overlap:.6f}"
            assert int(row["train_size"]) == result.train_size
            assert int(row["eval_size"]) == result.eval_size
            assert int(row["new_test_size"]) == result.new_test_size

    def test_aggregate_matches_recount(self, smoke_run):
        cfg, ledger = smoke_run
        out = Path(cfg.output_dir)
        results = [
            CellResult.from_dict(
                json.loads(ledger.artifact(key).read_text())["result"]
            )
            for key in ledger.cells
        ]
        expected = {
            (r["model"], r["residual_strategy"]): r
            for r in aggregate_rows(results, cfg.f1_variant)
        }
        rows = read_csv(out / "aggregate.csv")
        assert len(rows) == len(expected)
        for row in rows:
            want = expected[(row["model"], row["residual_strategy"])]
            assert row["mean_eval_f1"] == f"{want['mean_eval_f1']:.6f}"
            assert row["mean_new_f1"] == f"{want['mean_new_f1']:.6f}"
            assert row["mean_abs_gap"] == f"{want['mean_abs_gap']:.6f}"
            assert row["consistency"] == f"{want['consistency']:.6f}"
            assert row["sigma"] == f"{want['sigma']:.6f}"

    def test_plots_data_matches_recount(self, smoke_run):
        cfg, ledger = smoke_run
        out = Path(cfg.output_dir)
        results = [
            CellResult.from_dict(
                json.loads(ledger.artifact(key).read_text())["result"]
            )
            for key in ledger.cells
        ]
        rows = read_csv(out / "plots_data.csv")
        assert rows and list(rows[0].keys()) == [
            "fraction", "strategy", "model", "sigma",
        ]
        for row in rows:
            pool = [
                r.scores(cfg.f1_variant, "new")[row["model"]].f1
                for r in results
                if r.residual_strategy == row["strategy"]
                and f"{float(r.fraction):.6g}" == row["fraction"]
            ]
            mean = sum(pool) / len(pool)
            sigma = (sum((v - mean) ** 2 for v in pool) / len(pool)) ** 0.5
            assert row["sigma"] == f"{sigma:.6f}"

    def test_best_rankings_shares_sum_to_one(self, smoke_run):
        cfg, _ = smoke_run
        rows = read_csv(Path(cfg.output_dir) / "best_rankings.csv")
        groups = {}
        for row in rows:
            key = (row["residual_strategy"], row["side"])
            groups.setdefault(key, []).append(float(row["share"]))
        assert groups
        for shares in groups.values():
            assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_provenance_comment_present(self, smoke_run):
        cfg, _ = smoke_run
        reports = sorted(Path(cfg.output_dir).rglob("*.csv"))
        assert {p.name for p in reports} >= {
            "aggregate.csv", "plots_data.csv", "best_rankings.csv",
            "report_rows.csv", "records.csv",
        }
        for path in reports:
            first = path.read_text().splitlines()[0]
            assert first == "# f1_variant=boundary average=micro languages=equal-weight"

    def test_records_header_is_record_columns(self, smoke_run):
        cfg, _ = smoke_run
        records = Path(cfg.output_dir) / "languages" / "synA" / "records.csv"
        header = records.read_text().splitlines()[1]
        assert tuple(header.split(",")) == R.RECORD_COLUMNS


class TestMinimalRun:
    def test_single_model_single_cell(self, corpus_file, tmp_path):
        cfg = make_config(
            corpus_file,
            tmp_path / "run",
            new_test_generations=("random",),
            residual_strategies=("random",),
            models=("longest_match",),
        )
        ledger = R.run_experiment(cfg)
        assert len(ledger.done_keys()) == 1
        assert ledger.failed_keys() == []
        payload = json.loads(ledger.artifact(ledger.done_keys()[0]).read_text())
        result = CellResult.from_dict(payload["result"])
        assert tuple(result.models()) == ("longest_match",)
        assert result.ranking_eval.groups == (("longest_match",),)
        out = Path(cfg.output_dir)
        assert (out / "aggregate.csv").exists()
        assert (out / "best_rankings.csv").exists()
        # a stratum of one cell has no spread
        assert [row["sigma"] for row in read_csv(out / "plots_data.csv")] == [
            "0.000000"
        ]


class TestCorpusChanges:
    def test_second_run_reads_the_new_corpus_at_the_same_path(self, tmp_path):
        path = tmp_path / "synA.tsv"
        write_synthetic(path, seed=1)
        R.run_experiment(make_config(path, tmp_path / "first"))
        write_synthetic(path, seed=2)
        R.run_experiment(make_config(path, tmp_path / "second"))
        # same content and language tag, at a path no earlier run has seen
        fresh = tmp_path / "fresh" / "synA.tsv"
        fresh.parent.mkdir()
        write_synthetic(fresh, seed=2)
        R.run_experiment(make_config(fresh, tmp_path / "third"))
        assert csv_bytes(tmp_path / "second") == csv_bytes(tmp_path / "third")

    def test_grid_too_large_for_a_corpus_is_refused_before_the_ledger(self, tmp_path):
        path = write_synthetic(tmp_path / "c.tsv", n=50)
        cfg = make_config(
            path, tmp_path / "run", fractions=(Fraction(1, 2),), models=("longest_match",),
            residual_ratio="60:1",
        )
        with pytest.raises(CapacityError, match="fraction 1/2 on 50 words"):
            R.run_experiment(cfg)
        assert not (tmp_path / "run" / "ledger.json").exists()

    def test_resume_and_report_refuse_a_changed_corpus(self, tmp_path):
        # the corpus file is rewritten under a finished run and one cell is
        # lost: resuming would score that cell on the new words and report
        # it beside cells scored on the old ones
        path = tmp_path / "synA.tsv"
        write_synthetic(path, seed=1)
        cfg = make_config(path, tmp_path / "run")
        R.run_experiment(cfg)
        write_synthetic(path, seed=2)
        next((tmp_path / "run" / "cells").rglob("*.json")).unlink()
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            R.resume(cfg.output_dir)
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            R.report(cfg.output_dir, "tables")
        # the same bytes again: the run is whole once more
        write_synthetic(path, seed=1)
        assert R.resume(cfg.output_dir).failed_keys() == []

    def test_noop_resume_refuses_a_changed_corpus(self, tmp_path, parsed):
        path = tmp_path / "synA.tsv"
        write_synthetic(path, seed=1)
        cfg = make_config(path, tmp_path / "run")
        R.run_experiment(cfg)
        write_synthetic(path, seed=2)
        parsed.clear()
        with pytest.raises(LedgerError, match=re.escape(str(path))):
            R.resume(cfg.output_dir)
        assert parsed == []

    def test_noop_resume_fails_on_a_missing_corpus(self, tmp_path, capsys):
        path = tmp_path / "synA.tsv"
        write_synthetic(path)
        cfg = make_config(path, tmp_path / "run")
        R.run_experiment(cfg)
        path.unlink()
        with pytest.raises(OSError, match=re.escape(str(path))):
            R.resume(cfg.output_dir)
        assert cli.main(["resume", "--ledger", cfg.output_dir]) == 2
        assert str(path) in capsys.readouterr().err


@pytest.fixture()
def split_calls(monkeypatch):
    """(strategy, stage, seed) of every split the splitter makes."""
    calls = []
    for name in ("random_split", "adversarial_split"):
        def counted(corpus, ratio, seed, *args, _split=getattr(S, name), **kwargs):
            manifest = _split(corpus, ratio, seed, *args, **kwargs)
            calls.append((manifest.strategy, manifest.stage, seed))
            return manifest
        monkeypatch.setattr(S, name, counted)
    return calls


@pytest.fixture()
def parsed(monkeypatch):
    """The path of every corpus file the runner parses."""
    paths = []

    def counted(path, *args, _parse=R.parse_corpus, **kwargs):
        paths.append(Path(path))
        return _parse(path, *args, **kwargs)

    monkeypatch.setattr(R, "parse_corpus", counted)
    return paths


class TestDeterminism:
    def test_rerun_is_byte_identical(self, corpus_file, smoke_run, tmp_path):
        cfg, _ = smoke_run
        again = make_config(corpus_file, tmp_path / "again")
        R.run_experiment(again)
        left = csv_bytes(cfg.output_dir)
        right = csv_bytes(again.output_dir)
        assert left.keys() == right.keys()
        assert left == right

    def test_parallel_schedules_agree(self, corpus_file, tmp_path):
        serial = make_config(corpus_file, tmp_path / "p1", parallelism=1)
        pooled = make_config(corpus_file, tmp_path / "p4", parallelism=4)
        R.run_experiment(serial)
        R.run_experiment(pooled)
        assert csv_bytes(serial.output_dir) == csv_bytes(pooled.output_dir)

    def test_three_languages_agree_across_schedules_and_a_resume(self, tmp_path, parsed):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "three_languages_v1.json").read_text()
        )["files"]
        paths = []
        for name, spec in THREE_LANGUAGES.items():
            paths.append(tmp_path / f"{name}.tsv")
            C.write_corpus(C.generate_synthetic_corpus(spec), paths[-1])
        runs = []
        for parallelism in (1, 2):
            cfg = make_config(
                paths[0], tmp_path / f"p{parallelism}", corpus_paths=tuple(map(str, paths)),
                fractions=(Fraction(1, 5),), samples_per_fraction=2, parallelism=parallelism,
            )
            R.run_experiment(cfg)
            runs.append(csv_bytes(cfg.output_dir))
        shutil.rmtree(Path(cfg.output_dir) / "cells" / "bbb")
        parsed.clear()
        assert R.resume(cfg.output_dir).failed_keys() == []
        assert parsed == [paths[1]]
        runs.append(csv_bytes(cfg.output_dir))
        assert len(runs[0]) == 33
        assert runs[0] == runs[1] == runs[2]
        assert {name: hashlib.sha256(data).hexdigest() for name, data in runs[0].items()} == pinned


class TestResume:
    def test_noop_resume_leaves_artifacts_untouched(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        cells = sorted((out / "cells").rglob("*.json"))
        stamps = {p: p.stat().st_mtime_ns for p in cells}
        before = csv_bytes(out)
        ledger = R.resume(out)
        assert ledger.failed_keys() == []
        assert {p: p.stat().st_mtime_ns for p in cells} == stamps
        assert csv_bytes(out) == before

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_damaged_cell_is_recomputed_alone(self, corpus_file, tmp_path, damage):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        before = csv_bytes(out)
        cells = sorted((out / "cells").rglob("*.json"))
        victim, survivors = cells[0], cells[1:]
        stamps = {p: p.stat().st_mtime_ns for p in survivors}
        if damage == "deleted":
            victim.unlink()
        else:
            victim.write_bytes(victim.read_bytes()[:100])
        ledger = R.resume(out)
        assert json.loads(victim.read_text())["key"]
        assert ledger.failed_keys() == []
        assert {p: p.stat().st_mtime_ns for p in survivors} == stamps
        assert csv_bytes(out) == before

    def test_finished_run_resumes_without_splitting(self, corpus_file, tmp_path, split_calls):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        # one carve per (generation, fraction, sample), shared by the strategies
        carves = [c for c in split_calls if c[1] == "new_test_carving"]
        assert len(carves) == len(set(carves)) == 2
        split_calls.clear()
        R.resume(cfg.output_dir)
        assert split_calls == []

    def test_finished_run_resumes_without_parsing(self, corpus_file, tmp_path, parsed, monkeypatch):
        hashed = []

        def counted(path, _sha256=R._sha256):
            hashed.append(Path(path))
            return _sha256(path)

        monkeypatch.setattr(R, "_sha256", counted)
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        assert parsed == [Path(corpus_file)]
        parsed.clear()
        hashed.clear()
        assert R.resume(cfg.output_dir).failed_keys() == []
        assert parsed == []
        assert hashed == [Path(corpus_file)]

    def test_finished_run_resumes_without_a_word_table(self, corpus_file, tmp_path, monkeypatch):
        built = []

        def counted(self, words, _init=C.WordTable.__init__):
            _init(self, words)
            built.append(self.surfaces)

        monkeypatch.setattr(C.WordTable, "__init__", counted)
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        # one table per corpus, for every cell of the inline run
        assert len(built) == 1
        built.clear()
        R.resume(cfg.output_dir)
        assert built == []

    def test_deleted_cell_rebuilds_only_its_carve_and_split(
        self, corpus_file, tmp_path, split_calls
    ):
        cfg = make_config(
            corpus_file, tmp_path / "run", samples_per_fraction=2, residual_splits=2
        )
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        before = csv_bytes(out)
        (out / "cells" / "synA" / "nt30pct-adversarial-s01-adversarial-r1.json").unlink()
        split_calls.clear()
        ledger = R.resume(out)
        frac = str(Fraction(3, 10))
        assert sorted(split_calls) == [
            ("adversarial", "new_test_carving", S.derive_seed(0, "carve", "adversarial", frac, 1)),
            ("adversarial", "residual_split",
             S.derive_seed(0, "residual", "adversarial", frac, 1, 1)),
        ]
        assert ledger.failed_keys() == []
        assert csv_bytes(out) == before

    def test_failed_status_is_recomputed(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        data = json.loads((out / "ledger.json").read_text())
        key = sorted(data["cells"])[0]
        data["cells"][key] = {"status": "failed", "seconds": 0.0, "error": "boom"}
        (out / "ledger.json").write_text(json.dumps(data, indent=2))
        # a failed cell has no artifact
        (out / "cells" / f"{key}.json").unlink()
        ledger = R.resume(out)
        assert ledger.cells[key].status == "done"
        assert ledger.artifact(key).exists()

    @pytest.mark.parametrize("entry", ["failed", "missing"])
    def test_cell_with_an_artifact_is_done_whatever_the_ledger_says(
        self, corpus_file, tmp_path, monkeypatch, entry
    ):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        before = csv_bytes(out)
        data = json.loads((out / "ledger.json").read_text())
        key = sorted(data["cells"])[0]
        if entry == "failed":
            data["cells"][key] = {"status": "failed", "seconds": 0.0, "error": "boom"}
        else:
            del data["cells"][key]
        (out / "ledger.json").write_text(json.dumps(data, indent=2))

        monkeypatch.setattr(R, "compute_cell", no_compute)
        ledger = R.resume(out)
        assert ledger.cells[key].status == "done"
        assert len(ledger.done_keys()) == 4
        assert csv_bytes(out) == before

    def test_edited_config_refused(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        data = json.loads((out / "ledger.json").read_text())
        data["config"]["master_seed"] = 123
        (out / "ledger.json").write_text(json.dumps(data))
        with pytest.raises(LedgerError, match="hash mismatch"):
            R.resume(out)

    def test_ledger_v1_resumes_without_recompute(self, tmp_path, monkeypatch):
        # tests/data/ledger_v1.json was saved by the field-by-field
        # RunConfig.to_dict for this very run, with paths relative to the
        # run's working directory
        saved = Path(__file__).parent / "data" / "ledger_v1.json"
        monkeypatch.chdir(tmp_path)
        write_synthetic(tmp_path / "synA.tsv")
        R.run_experiment(make_config("synA.tsv", "run"))
        shutil.copy(saved, tmp_path / "run" / "ledger.json")
        stamps = {p: p.stat().st_mtime_ns for p in Path("run/cells").rglob("*.json")}

        monkeypatch.setattr(R, "compute_cell", no_compute)
        ledger = R.resume("run")
        expected = json.loads(saved.read_text())
        assert ledger.failed_keys() == []
        assert ledger.done_keys() == sorted(expected["cells"])
        assert ledger.config_hash == expected["config_hash"]
        assert ledger.config.to_dict() == expected["config"]
        assert {p: p.stat().st_mtime_ns for p in stamps} == stamps

    def test_missing_ledger(self, tmp_path):
        with pytest.raises(LedgerError, match="no ledger"):
            R.resume(tmp_path)


def no_compute(*args):
    raise AssertionError("a cell was recomputed")


class TestRunLifecycle:
    """A run is its directory: it can be moved, and interrupted and resumed."""

    def test_moved_run_reports_and_resumes_where_it_is(self, corpus_file, tmp_path, monkeypatch):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        before = csv_bytes(cfg.output_dir)
        moved = tmp_path / "elsewhere"
        shutil.move(cfg.output_dir, moved)
        monkeypatch.setattr(R, "compute_cell", no_compute)
        written = [path for kind in R.REPORT_KINDS for path in R.report(moved, kind)]
        assert written and all(moved in path.parents for path in written)
        ledger = R.resume(moved)
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 4
        assert ledger.path() == moved / "ledger.json"
        assert csv_bytes(moved) == before
        assert not Path(cfg.output_dir).exists()

    def test_interrupted_run_keeps_its_cells_and_resumes_the_rest(
        self, corpus_file, smoke_run, tmp_path, monkeypatch
    ):
        computed = []

        def compute(corpus, cell, config, _compute=R.compute_cell):
            computed.append(cell.cell_id)
            return _compute(corpus, cell, config)

        def interrupted(*args):
            if len(computed) == 2:
                raise KeyboardInterrupt
            return compute(*args)

        monkeypatch.setattr(R, "compute_cell", interrupted)
        cfg = make_config(corpus_file, tmp_path / "run")
        with pytest.raises(KeyboardInterrupt):
            R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        assert (out / "ledger.json").exists()
        assert sorted(p.stem for p in (out / "cells").rglob("*.json")) == sorted(computed)
        assert len(computed) == 2
        # report takes the finished cells as resume does
        R.report(out, "tables")
        rankings = read_csv(out / "best_rankings.csv")
        assert sum(int(r["count"]) for r in rankings if r["side"] == "eval") == 2

        monkeypatch.setattr(R, "compute_cell", compute)
        ledger = R.resume(out)
        assert len(computed) == 4 and len(set(computed)) == 4
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 4
        assert csv_bytes(out) == csv_bytes(smoke_run[0].output_dir)
        assert list(out.rglob("*.tmp")) == []

    def test_run_interrupted_in_its_second_carve_keeps_the_first_units_cells(
        self, corpus_file, smoke_run, tmp_path, monkeypatch
    ):
        # two work units, one carve per generation, of two cells each: a
        # unit's splits are built right before its cells, so the first unit's
        # cells are written before the second carve is begun
        carves = []
        for name in ("random_split", "adversarial_split"):
            def split(corpus, ratio, seed, *args, _split=getattr(S, name), **kwargs):
                if kwargs.get("stage") == "new_test_carving":
                    carves.append(seed)
                    if len(carves) == 2:
                        raise KeyboardInterrupt
                return _split(corpus, ratio, seed, *args, **kwargs)
            monkeypatch.setattr(S, name, split)
        cfg = make_config(corpus_file, tmp_path / "run")
        with pytest.raises(KeyboardInterrupt):
            R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        first = ["nt30pct-random-s00-adversarial-r0", "nt30pct-random-s00-random-r0"]
        assert sorted(p.stem for p in (out / "cells").rglob("*.json")) == first

        computed = []

        def compute(corpus, cell, config, _compute=R.compute_cell):
            computed.append(cell.cell_id)
            return _compute(corpus, cell, config)

        monkeypatch.setattr(R, "compute_cell", compute)
        ledger = R.resume(out)
        assert sorted(computed) == [
            "nt30pct-adversarial-s00-adversarial-r0", "nt30pct-adversarial-s00-random-r0",
        ]
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 4
        assert csv_bytes(out) == csv_bytes(smoke_run[0].output_dir)

    def test_relative_corpus_path_is_read_from_the_launch_directory(
        self, smoke_run, tmp_path, monkeypatch
    ):
        launch, elsewhere, out = tmp_path / "launch", tmp_path / "elsewhere", tmp_path / "run"
        launch.mkdir()
        elsewhere.mkdir()
        write_synthetic(launch / "synA.tsv")
        monkeypatch.chdir(launch)
        assert cli.main([
            "experiment", "--corpus", "synA.tsv", "--output-dir", str(out),
            "--fractions", "3/10", "--samples-per-fraction", "1", "--residual-splits", "1",
            "--models", "longest_match,unigram_viterbi", "--seeds-per-model", "1",
            "--budget", "200",
        ]) == 0
        before = csv_bytes(out)
        assert before == csv_bytes(smoke_run[0].output_dir)

        monkeypatch.chdir(elsewhere)
        with monkeypatch.context() as patched:
            patched.setattr(R, "compute_cell", no_compute)
            assert R.resume(out).failed_keys() == []
        assert csv_bytes(out) == before
        # a file of the same name in the working directory is not the corpus
        write_synthetic(elsewhere / "synA.tsv", seed=4)
        next((out / "cells").rglob("*.json")).unlink()
        ledger = R.resume(out)
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 4
        assert ledger.launch_dir == str(launch)
        assert csv_bytes(out) == before

    @pytest.mark.parametrize("fault", [None, KeyboardInterrupt, RuntimeError])
    def test_new_run_keeps_no_artifact_of_an_earlier_run(
        self, corpus_file, smoke_run, tmp_path, monkeypatch, fault
    ):
        # same cell keys, other models; the second run's first cell may raise
        out = tmp_path / "run"
        R.run_experiment(make_config(corpus_file, out, models=("longest_match",)))
        computed = []

        def compute(corpus, cell, config, _compute=R.compute_cell):
            computed.append(cell.cell_id)
            if len(computed) == 1 and fault is not None:
                raise fault
            return _compute(corpus, cell, config)

        monkeypatch.setattr(R, "compute_cell", compute)
        try:
            ledger = R.run_experiment(make_config(corpus_file, out))
        except KeyboardInterrupt:
            assert len(computed) == 1
            pending = 4
        else:
            pending = len(ledger.failed_keys())
            assert pending == (fault is not None) and len(computed) == 4
        assert len(list((out / "cells").rglob("*.json"))) == 4 - pending

        fault = None
        computed.clear()
        ledger = R.resume(out)
        assert len(computed) == pending
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 4
        assert csv_bytes(out) == csv_bytes(smoke_run[0].output_dir)

    def test_killed_pooled_run_resumes_only_its_missing_cells(self, corpus_file, tmp_path):
        # four units of two cells on two workers; each adapter call sleeps and
        # logs itself, so the third and fourth units are still running when
        # the first unit's artifacts appear
        log = tmp_path / "calls.log"
        adapter = tmp_path / "adapter.py"
        adapter.write_text(
            "import sys, time\n"
            "train, inp, out = sys.argv[1:4]\n"
            "time.sleep(0.1)\n"
            f"open({str(log)!r}, 'a').write('call\\n')\n"
            "with open(inp) as f, open(out, 'w') as g:\n"
            "    for line in f:\n"
            "        toks = line.split()\n"
            "        g.write(' '.join(toks[:-1] + ['!'] * (len(toks) > 1) + toks[-1:]) + '\\n')\n"
        )
        models = ("longest_match", f"external:{sys.executable} {adapter}")
        clean = make_config(corpus_file, tmp_path / "clean", samples_per_fraction=2, models=models)
        R.run_experiment(clean)
        out = tmp_path / "run"
        argv = [
            sys.executable, "-m", "morphsplit", "experiment", "--corpus", corpus_file,
            "--output-dir", str(out), "--fractions", "3/10", "--samples-per-fraction", "2",
            "--residual-splits", "1", "--models", ",".join(models), "--seeds-per-model", "1",
            "--budget", "200", "--parallelism", "2",
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(R.__file__).parents[1])}
        stderr = tmp_path / "stderr.log"
        with stderr.open("wb") as err:
            proc = subprocess.Popen(
                argv, env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=err
            )
        try:
            deadline = time.monotonic() + 120
            while not list(out.glob("cells/**/*.json")):
                assert proc.poll() is None, stderr.read_text()
                assert time.monotonic() < deadline, "no artifact within 120 s"
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            # the pool workers share the CLI's process group
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

        kept = {p: p.stat().st_ino for p in out.glob("cells/**/*.json")}
        missing = sorted(
            p.relative_to(tmp_path / "clean")
            for p in (tmp_path / "clean").glob("cells/**/*.json")
            if out / p.relative_to(tmp_path / "clean") not in kept
        )
        assert 0 < len(kept) < 8 and len(kept) + len(missing) == 8
        # a kill between an artifact's temporary write and its rename
        (out / missing[0]).parent.mkdir(parents=True, exist_ok=True)
        (out / f"{missing[0]}.tmp").write_text("{")
        log.write_text("")
        ledger = R.resume(out)
        assert ledger.failed_keys() == [] and len(ledger.done_keys()) == 8
        # two adapter calls (eval and new-test side) per recomputed cell
        assert len(log.read_text().splitlines()) == 2 * len(missing)
        assert {p: p.stat().st_ino for p in kept} == kept
        assert list(out.rglob("*.tmp")) == []
        assert csv_bytes(out) == csv_bytes(clean.output_dir)

    def test_broken_pool_fails_the_pending_cells(self, corpus_file, tmp_path):
        # the adapter kills the pool worker that runs it
        cfg = make_config(
            corpus_file, tmp_path / "run", parallelism=2,
            models=("longest_match", "external:sh -c 'kill -9 $PPID'"),
        )
        assert len(R._grid_units(cfg, R._corpus_tags(cfg))) == 2
        ledger = R.run_experiment(cfg)
        assert len(ledger.failed_keys()) == 4 and ledger.done_keys() == []
        assert all("BrokenProcessPool" in s.error for s in ledger.cells.values())
        assert R.RunLedger.load(cfg.output_dir).cells == ledger.cells

    def test_broken_pool_keeps_every_unit_that_returned(self, corpus_file, tmp_path):
        # three one-cell units on two workers; the adapter kills the worker
        # of the first unit once the run has written the second unit's artifact
        script, log, switch = tmp_path / "adapter.py", tmp_path / "seeds.log", tmp_path / "kill"
        cfg = make_config(
            corpus_file, tmp_path / "run", parallelism=2,
            fractions=(Fraction(1, 5),), samples_per_fraction=3,
            new_test_generations=("random",), residual_strategies=("random",),
            models=(f"external:{sys.executable} {script}",),
        )
        units = R._grid_units(cfg, R._corpus_tags(cfg))
        keys = [f"{lang}/{ids[0]}" for lang, _, ids in units]
        seeds = {
            key: str(S.derive_seed(cfg.master_seed, key.split("/")[1], cfg.models[0], 0))
            for key in keys
        }
        returned = Path(cfg.output_dir) / "cells" / f"{keys[1]}.json"
        script.write_text(
            "import os, signal, sys, time\n"
            "train, inp, out = sys.argv[1:4]\n"
            "seed = os.environ['MORPHSPLIT_SEED']\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            "    fh.write(seed + '\\n')\n"
            f"if seed == {seeds[keys[0]]!r} and os.path.exists({str(switch)!r}):\n"
            "    deadline = time.time() + 30\n"
            f"    while not os.path.exists({str(returned)!r}):\n"
            "        assert time.time() < deadline\n"
            "        time.sleep(0.02)\n"
            "    os.kill(os.getppid(), signal.SIGKILL)\n"
            "lines = open(inp).read().splitlines()\n"
            "open(out, 'w').write(''.join(ln + '\\n' for ln in lines))\n"
        )
        switch.touch()
        assert len(units) == 3 and all(len(ids) == 1 for _, _, ids in units)
        ledger = R.run_experiment(cfg)
        assert ledger.cells[keys[1]].status == "done" and returned.exists()
        assert ledger.cells[keys[0]].status == "failed"
        assert "BrokenProcessPool" in ledger.cells[keys[0]].error
        for key in keys:
            assert (ledger.cells[key].status == "done") == ledger.artifact(key).exists()
        failed = ledger.failed_keys()
        switch.unlink()
        before = log.read_text().split()
        resumed = R.resume(cfg.output_dir)
        assert resumed.failed_keys() == [] and sorted(resumed.done_keys()) == sorted(keys)
        recomputed = set(log.read_text().split()[len(before):])
        assert recomputed == {seeds[key] for key in failed}


# Runs two units through the runner's process pool with a probe in place of
# the unit runner. The probe trains a CRF in its worker, then returns the
# thread count of each OpenBLAS the worker has loaded, read from its memory
# map. The runner's warnings are kept. The parent loads no scipy module, so
# scipy's OpenBLAS is first loaded in a worker, by the training.
BLAS_PROBE = """
import ctypes, json, logging, sys
from pathlib import Path

from morphsplit import SyntheticSpec, generate_synthetic_corpus
from morphsplit import runner
from morphsplit.models import TrainConfig, train_segmenter

WARNINGS = []


class Keep(logging.Handler):
    def emit(self, record):
        WARNINGS.append(record.getMessage())


def probe(unit):
    corpus = generate_synthetic_corpus(SyntheticSpec(40, seed=1))
    train_segmenter("crf", corpus, config=TrainConfig(max_iterations=3))
    threads = {}
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" not in Path(path).name or path in threads:
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads[path] = getter()
                break
        else:
            threads[path] = None
    return [(unit[0], "done", threads, 0.0)]


if __name__ == "__main__":
    assert "scipy.optimize" not in sys.modules
    logging.getLogger("morphsplit.runner").addHandler(Keep())
    runner._run_pooled = probe
    config = runner.RunConfig(corpus_paths=("a.tsv",), output_dir="out", parallelism=2)
    outcomes = runner._execute(config, [], [("a", "random", []), ("b", "random", [])])
    print(json.dumps([[o[2] for o in outcomes], WARNINGS]))
"""


class TestPoolWorkers:
    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="needs /proc/self/maps")
    def test_workers_run_each_loaded_openblas_on_one_thread(self, tmp_path):
        script = tmp_path / "probe.py"
        script.write_text(BLAS_PROBE)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        per_worker, warnings = json.loads(proc.stdout.splitlines()[-1])
        assert len(per_worker) == 2
        for threads in per_worker:
            # numpy's, loaded before the pool started, and scipy's, loaded after
            assert {Path(p).parent.name for p in threads} >= {"numpy.libs", "scipy.libs"}
            for path, count in threads.items():
                assert count == 1 or any(path in w for w in warnings), (path, count, warnings)


class TestFailureIsolation:
    @pytest.fixture()
    def flaky_script(self, tmp_path):
        script = tmp_path / "adapter.py"
        script.write_text("import sys; sys.exit(3)\n")
        return script

    def test_failures_recorded_not_raised(self, corpus_file, tmp_path, flaky_script):
        cfg = make_config(
            corpus_file,
            tmp_path / "run",
            models=("longest_match", f"external:python3 {flaky_script}"),
        )
        ledger = R.run_experiment(cfg)
        assert len(ledger.failed_keys()) == 4
        for key in ledger.failed_keys():
            assert "exited 3" in ledger.cells[key].error

    def test_resume_after_fixing_adapter(self, corpus_file, tmp_path, flaky_script):
        cfg = make_config(
            corpus_file,
            tmp_path / "run",
            models=("longest_match", f"external:python3 {flaky_script}"),
        )
        R.run_experiment(cfg)
        # same command string, so the config hash is unchanged
        flaky_script.write_text(
            "import sys\n"
            "train, inp, out = sys.argv[1:4]\n"
            "lines = open(inp).read().splitlines()\n"
            "open(out, 'w').write(''.join(ln + '\\n' for ln in lines))\n"
        )
        ledger = R.resume(Path(cfg.output_dir))
        assert ledger.failed_keys() == []
        assert len(ledger.done_keys()) == 4


@pytest.fixture(scope="module")
def fitted_run(corpus_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitted")
    cfg = make_config(
        corpus_file,
        out,
        fractions=(Fraction(1, 5), Fraction(3, 10)),
        samples_per_fraction=2,
        residual_splits=2,
    )
    return cfg, R.run_experiment(cfg)


class TestRegressionOutputs:
    def test_regression_files_written(self, fitted_run):
        cfg, ledger = fitted_run
        assert ledger.notes == []
        lang_dir = Path(cfg.output_dir) / "languages" / "synA"
        terms = read_csv(lang_dir / "regression.csv")
        names = [row["term"] for row in terms]
        assert names[0] == "intercept"
        assert names[1] == "strategy"
        assert "model[unigram_viterbi]" in names
        assert all(row["stars"] in ("", "*", "**", "***") for row in terms)
        summary = read_csv(lang_dir / "regression_summary.csv")[0]
        assert summary["language"] == "synA"
        assert 0.0 <= float(summary["r_squared"]) <= 1.0
        cells = 2 * 2 * len(cfg.fractions) * cfg.samples_per_fraction * cfg.residual_splits
        assert int(summary["n"]) == cells * len(cfg.models) * 2

    def test_single_strategy_run_notes_skip(self, corpus_file, tmp_path):
        cfg = make_config(
            corpus_file, tmp_path / "run", residual_strategies=("random",)
        )
        ledger = R.run_experiment(cfg)
        assert ledger.notes == [
            "synA: regression skipped "
            "(records must include both residual strategy levels)"
        ]
        lang_dir = Path(cfg.output_dir) / "languages" / "synA"
        assert not (lang_dir / "regression.csv").exists()

    def test_rerun_keeps_no_report_of_an_earlier_run(self, corpus_file, fitted_run, tmp_path):
        """A run into the directory of a fitted run leaves what a run into a
        fresh directory leaves, and no regression files."""
        out = tmp_path / "again"
        shutil.copytree(fitted_run[0].output_dir, out)
        assert (out / "languages" / "synA" / "regression.csv").exists()
        R.run_experiment(make_config(corpus_file, out, residual_strategies=("random",)))
        fresh = tmp_path / "fresh"
        R.run_experiment(make_config(corpus_file, fresh, residual_strategies=("random",)))
        assert sorted(csv_bytes(out)) == sorted(csv_bytes(fresh))
        assert csv_bytes(out) == csv_bytes(fresh)

    def test_skipped_fit_removes_the_regression_files(self, fitted_run, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(fitted_run[0].output_dir, out)
        for path in (out / "cells").rglob("*.json"):
            if json.loads(path.read_text())["result"]["residual_strategy"] == "adversarial":
                path.unlink()
        assert R.report(out, "regression") == []
        lang_dir = out / "languages" / "synA"
        assert not (lang_dir / "regression.csv").exists()
        assert not (lang_dir / "regression_summary.csv").exists()


class TestReport:
    def test_kinds_and_contents(self, smoke_run):
        cfg, _ = smoke_run
        out = Path(cfg.output_dir)
        tables = R.report(out, "tables")
        assert sorted(p.name for p in tables) == [
            "aggregate.csv", "best_rankings.csv",
        ]
        plots = R.report(out, "plots-data")
        assert [p.name for p in plots] == ["plots_data.csv"]

    def test_bad_kind(self, smoke_run):
        cfg, _ = smoke_run
        with pytest.raises(DomainError, match="kind"):
            R.report(Path(cfg.output_dir), "pictures")

    def test_empty_ledger_rejected(self, corpus_file, tmp_path):
        cfg = make_config(corpus_file, tmp_path / "run")
        ledger = R.RunLedger(config=cfg, config_hash=cfg.config_hash())
        ledger.save()
        with pytest.raises(DomainError, match="no completed cells"):
            R.report(Path(cfg.output_dir), "tables")

    def test_damaged_artifact_skipped_like_a_deleted_one(self, corpus_file, tmp_path, caplog):
        cfg = make_config(corpus_file, tmp_path / "run")
        R.run_experiment(cfg)
        out = Path(cfg.output_dir)
        victim = sorted((out / "cells").rglob("*.json"))[0]
        victim.write_text("{", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="morphsplit.runner"):
            R.report(out, "tables")
        assert str(victim) in caplog.text

        def tables():
            return {k: v for k, v in csv_bytes(out).items() if k.endswith(".csv")}

        damaged = tables()
        victim.unlink()
        R.report(out, "tables")
        assert tables() == damaged

    def test_report_rewrites_identical_tables(self, smoke_run):
        cfg, _ = smoke_run
        out = Path(cfg.output_dir)
        before = (out / "aggregate.csv").read_bytes()
        R.report(out, "tables")
        assert (out / "aggregate.csv").read_bytes() == before
