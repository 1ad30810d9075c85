"""Experiment orchestration over the split grid.

A run expands every (language, generation mode, residual strategy)
combination into grid cells, trains each configured model per cell
(``seeds_per_model`` times if it reads its seed, else once with its scores
counted that many times), scores eval and new-test sets, writes each
cell's JSON artifact as soon as the cell finishes, and emits per-language
and pooled CSVs plus a resumable ledger. There is one run path: ``resume``
completes the grid cells that have no readable artifact, and
``run_experiment`` is the same step from an empty ledger and ``cells/``.
``report`` rewrites one report family through the same CSV writers. Cell
computation is deterministic for a fixed master seed, so parallel
schedules and reruns produce byte-identical CSVs; only the ledger's
timing fields vary.

The run directory is wherever ``ledger.json`` is, so a run can be moved,
and an interrupted run keeps every cell it finished. Layout:

    ledger.json
    cells/{language}/{cell_id}.json
    languages/{language}/report_rows.csv
    languages/{language}/records.csv
    languages/{language}/regression.csv
    languages/{language}/regression_summary.csv
    aggregate.csv
    best_rankings.csv
    plots_data.csv

Languages are pooled with equal weight (every language runs the identical
grid). The chosen F1 variant and averaging mode are flagged as a comment
line above each report header.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import shutil
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, WordTable, corpus_stats, parse_corpus
from .errors import ConfigError, DomainError, LedgerError, SingularityError, ValidationError
from .evaluation import (
    AVERAGES,
    DEFAULT_COLLAPSE_EPSILON,
    F1_VARIANTS,
    CellResult,
    ModelRanking,
    ScoreTriple,
    aggregate_rows,
    corpus_f1,
    mean_triple,
    morpheme_overlap,
    population_sigma,
    rank_models,
)
from .models import (
    BUILTIN_SEGMENTERS,
    UNIGRAM_SMOOTHING,
    FeatureTable,
    FeatureTemplate,
    SegmenterId,
    TrainConfig,
    segment_corpus,
    train_segmenter,
)
from .records import DECODE_ERRORS, Ratio, Record, decode_field, write_json
from .splitter import (
    GRID_STRATEGIES,
    ExperimentPlan,
    GridCell,
    build_grid,
    check_capacity,
    derive_seed,
    grid_units,
)
from .stats import COVARIATES, RegressionRecord, fit_regression

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "MORPHSPLIT_OUTPUT_DIR"
LEDGER_NAME = "ledger.json"
LEDGER_VERSION = 1
REPORT_KINDS = ("tables", "regression", "plots-data")


@dataclass(frozen=True)
class RunConfig(Record):
    """Everything one experiment run depends on, plus execution knobs.

    ``output_dir`` and ``parallelism`` affect where and how fast results
    land but never their values, so they are excluded from the config hash
    that guards resumption. A default that a grid, feature or training
    class also has is that class's default.
    """

    corpus_paths: tuple[str, ...]
    output_dir: str
    fractions: tuple[Fraction, ...] = ExperimentPlan.new_test_fractions
    samples_per_fraction: int = ExperimentPlan.samples_per_fraction
    residual_splits: int = ExperimentPlan.residual_splits
    residual_ratio: Ratio = ExperimentPlan.residual_ratio
    new_test_generations: tuple[str, ...] = GRID_STRATEGIES
    residual_strategies: tuple[str, ...] = GRID_STRATEGIES
    models: tuple[str, ...] = BUILTIN_SEGMENTERS
    seeds_per_model: int = 3
    f1_variant: str = "boundary"
    f1_average: str = "micro"
    collapse_epsilon: float = DEFAULT_COLLAPSE_EPSILON
    master_seed: int = ExperimentPlan.master_seed
    adversarial_budget: int = ExperimentPlan.adversarial_budget
    parallelism: int = 1
    max_ngram: int = FeatureTemplate.max_ngram
    window: int = FeatureTemplate.window
    optimizer: str = TrainConfig.optimizer
    max_iterations: int = TrainConfig.max_iterations
    convergence_tol: float = TrainConfig.convergence_tol
    l2_lambda: float = TrainConfig.l2_lambda
    unigram_smoothing: float = UNIGRAM_SMOOTHING

    def __post_init__(self) -> None:
        for f in fields(self):
            value = decode_field(RunConfig, f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        if not self.corpus_paths:
            raise ConfigError("need at least one corpus path")
        if not self.output_dir:
            raise ConfigError("output_dir must be set")
        if not self.models:
            raise ConfigError("need at least one model")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model specs")
        for name, values in (
            ("new_test_generations", self.new_test_generations),
            ("residual_strategies", self.residual_strategies),
        ):
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            bad = [v for v in values if v not in GRID_STRATEGIES]
            if bad or len(set(values)) != len(values):
                raise ConfigError(
                    f"{name} must be distinct members of {GRID_STRATEGIES}"
                )
        if self.seeds_per_model < 1:
            raise ConfigError("seeds_per_model must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.f1_variant not in F1_VARIANTS:
            raise ConfigError(f"f1_variant must be one of {F1_VARIANTS}")
        if self.f1_average not in AVERAGES:
            raise ConfigError(f"f1_average must be one of {AVERAGES}")
        if self.collapse_epsilon < 0:
            raise ConfigError("collapse_epsilon must be >= 0")
        if self.unigram_smoothing <= 0:
            raise ConfigError("unigram_smoothing must be > 0")
        # build what every cell builds, so a bad setting (or an unknown
        # model spec) fails here, once
        try:
            self.template()
            self.train_config(seed=0)
            for spec in self.models:
                SegmenterId.parse(spec)
            for generation in self.new_test_generations:
                self.plan(generation)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def template(self) -> FeatureTemplate:
        return FeatureTemplate(max_ngram=self.max_ngram, window=self.window)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            optimizer=self.optimizer,
            max_iterations=self.max_iterations,
            convergence_tol=self.convergence_tol,
            l2_lambda=self.l2_lambda,
            seed=seed,
        )

    def plan(self, generation: str) -> ExperimentPlan:
        return ExperimentPlan(
            new_test_fractions=self.fractions,
            samples_per_fraction=self.samples_per_fraction,
            residual_splits=self.residual_splits,
            residual_ratio=self.residual_ratio,
            new_test_generation=generation,
            master_seed=self.master_seed,
            adversarial_budget=self.adversarial_budget,
        )

    @staticmethod
    def parse_field(name: str, text: str):
        """A field's value from its flag or config-file text; lists are comma separated."""
        return decode_field(RunConfig, name, text)

    def config_hash(self) -> str:
        payload = {
            k: v
            for k, v in self.to_dict().items()
            if k not in ("output_dir", "parallelism")
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class CellStatus(Record):
    status: str
    seconds: float = 0.0
    error: str = ""


@dataclass
class RunLedger(Record):
    """Run manifest: the config, its hash, per-cell completion state, the
    sha256 of each corpus file's bytes when the run last read it, and the
    directory the run was launched from, which a relative corpus path is
    read from (the working directory, for a ledger that did not record
    it). ``root``, the run directory, is not stored: it is
    ``config.output_dir`` for a new run and the ledger file's directory for
    a loaded one."""

    config: RunConfig
    config_hash: str
    cells: dict[str, CellStatus] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    corpus_sha256: dict[str, str] = field(default_factory=dict)
    launch_dir: str = ""

    def __post_init__(self) -> None:
        self.root = Path(self.config.output_dir)

    def done_keys(self) -> list[str]:
        return sorted(k for k, s in self.cells.items() if s.status == "done")

    def failed_keys(self) -> list[str]:
        return sorted(k for k, s in self.cells.items() if s.status != "done")

    def path(self) -> Path:
        return self.root / LEDGER_NAME

    def artifact(self, key: str) -> Path:
        """Where the cell with this ``language/cell_id`` key is stored."""
        return self.root / "cells" / f"{key}.json"

    def save(self) -> None:
        write_json(self.path(), {"version": LEDGER_VERSION, **self.to_dict()})

    @classmethod
    def load(cls, ledger_path: str | Path) -> "RunLedger":
        ledger_path = Path(ledger_path)
        if ledger_path.is_dir():
            ledger_path = ledger_path / LEDGER_NAME
        if not ledger_path.exists():
            raise LedgerError(f"no ledger at {ledger_path}")
        try:
            ledger = cls.from_dict(json.loads(ledger_path.read_text(encoding="utf-8")))
        except DECODE_ERRORS as exc:
            raise LedgerError(f"damaged ledger {ledger_path}: {exc}") from None
        ledger.root = ledger_path.parent
        stored = ledger.config_hash
        actual = ledger.config.config_hash()
        if stored != actual:
            raise LedgerError(
                "config hash mismatch: the ledger's embedded config no longer "
                f"matches its recorded hash ({actual[:12]} vs {stored[:12]}); "
                "refusing to resume an edited run"
            )
        return ledger

    def check_corpora(self) -> None:
        """Refuse a run whose corpus files changed since it last read them.

        Only recorded digests of files that exist are compared: a ledger
        written before digests were kept has none, and ``report`` needs no
        corpus file, only the artifacts.
        """
        for path, recorded in sorted(self.corpus_sha256.items()):
            file = Path(self.launch_dir, path)
            if not file.is_file():
                continue
            actual = _sha256(file)
            if actual != recorded:
                raise LedgerError(
                    f"corpus {file} changed since the run read it (sha256 "
                    f"{actual[:12]} vs {recorded[:12]}); its cells were scored "
                    "on the old content, so start a new run"
                )


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class _Job:
    """What the cells one process computes share: the run's corpora by
    language, its config, and each corpus's word table, built on its first
    cell (a feature table when the run has a feature model)."""

    corpora: dict[str, Corpus]
    config: RunConfig
    tables: dict[str, WordTable] = field(default_factory=dict)


# This process's job: set by `_execute` around an inline run and by a pool
# worker's initializer for the worker's life. Outside both (compute_cell
# called on its own) there is none, and each call builds a table of its own.
# Tables are not an argument because compute_cell keeps the (corpus, cell,
# config) signature that perfbench/tracing.py wraps.
_JOB: _Job | None = None


def _set_job(job: _Job | None) -> None:
    global _JOB
    _JOB = job


def _word_table(corpus: Corpus, template: FeatureTemplate, featurized: bool) -> WordTable:
    tables = _JOB.tables if _JOB is not None else {}
    table = tables.get(corpus.language_tag)
    if table is None:
        table = FeatureTable(corpus, template) if featurized else WordTable(corpus)
        tables[corpus.language_tag] = table
    return table


def compute_cell(corpus: Corpus, cell: GridCell, config: RunConfig) -> dict:
    """Train, segment, and score every model on one grid cell.

    Returns the persistable payload: the cell, its CellResult, and the
    regression record rows (two per model, one per scored side). Models
    share the run's word table of ``corpus``, and scoring reads its gold
    cuts; a temporary directory is made only for ``external:`` models.
    """
    template = config.template()
    sids = [SegmenterId.parse(spec) for spec in sorted(config.models)]
    shared = _word_table(corpus, template, any(s.featurized for s in sids))
    train = corpus.subset(cell.train_indices)
    eval_gold = [corpus[i] for i in cell.eval_indices]
    eval_cuts, new_cuts = shared.gold(cell.eval_indices), shared.gold(cell.new_test_indices)
    overlap = morpheme_overlap(train, eval_gold)

    tables: dict[str, dict[str, ScoreTriple]] = {
        "boundary_eval": {}, "boundary_new": {},
        "morpheme_eval": {}, "morpheme_new": {},
    }
    external = any(s.name == "external" for s in sids)
    with TemporaryDirectory(prefix="morphsplit-cell-") if external else nullcontext() as tmp:
        for mi, sid in enumerate(sids):
            key = sid.key()
            per_seed: dict[str, list[ScoreTriple]] = {t: [] for t in tables}
            # A model that ignores its seed is trained once; its triple is
            # averaged k times, since (p + p + p) / 3 need not be p in floats.
            copies = 1 if sid.seeded else config.seeds_per_model
            for k in range(config.seeds_per_model // copies):
                seed = derive_seed(config.master_seed, cell.cell_id, key, k)
                model = train_segmenter(
                    sid,
                    train,
                    template=template,
                    config=config.train_config(seed),
                    unigram_smoothing=config.unigram_smoothing,
                    workdir=None if tmp is None else Path(tmp) / f"m{mi}k{k}",
                    table=shared,
                )
                pred_eval = segment_corpus(model, eval_cuts.surfaces)
                pred_new = segment_corpus(model, new_cuts.surfaces)
                for variant in F1_VARIANTS:
                    per_seed[f"{variant}_eval"].append(
                        corpus_f1(eval_cuts, pred_eval, variant, config.f1_average)
                    )
                    per_seed[f"{variant}_new"].append(
                        corpus_f1(new_cuts, pred_new, variant, config.f1_average)
                    )
            for table, triples in per_seed.items():
                tables[table][key] = mean_triple(triples * copies)

    def ranked(side: str) -> ModelRanking:
        scores = {m: t.f1 for m, t in tables[f"{config.f1_variant}_{side}"].items()}
        if len(scores) == 1:
            only = next(iter(scores))
            return ModelRanking(
                models=(only,), groups=((only,),),
                collapse_epsilon=config.collapse_epsilon,
            )
        return rank_models(scores, config.collapse_epsilon)

    rank_eval = ranked("eval")
    rank_new = ranked("new")
    result = CellResult(
        cell_id=cell.cell_id,
        language_tag=corpus.language_tag,
        fraction=cell.fraction,
        new_test_strategy=cell.new_test_strategy,
        residual_strategy=cell.residual_strategy,
        seed_group="+".join(str(k) for k in range(config.seeds_per_model)),
        boundary_eval=tables["boundary_eval"],
        boundary_new=tables["boundary_new"],
        morpheme_eval=tables["morpheme_eval"],
        morpheme_new=tables["morpheme_new"],
        ranking_eval=rank_eval,
        ranking_new=rank_new,
        overlap=overlap,
        train_size=len(cell.train_indices),
        eval_size=len(cell.eval_indices),
        new_test_size=len(cell.new_test_indices),
    )

    train_stats = corpus_stats(train)
    eval_stats = corpus_stats(eval_gold)
    covariates = {
        "new_test_gen": 1 if cell.new_test_strategy == "random" else 0,
        "morpheme_overlap": overlap,
        "word_count_ratio": train_stats.word_type_count / eval_stats.word_type_count,
        "morph_per_word_ratio": train_stats.avg_morphemes_per_word
        / eval_stats.avg_morphemes_per_word,
        "morph_type_per_word_ratio": train_stats.avg_morpheme_types_per_word
        / eval_stats.avg_morpheme_types_per_word,
    }
    records = [
        {
            "cell_id": cell.cell_id,
            "model_arch": key,
            "score_on": side,
            "f1": tables[f"{config.f1_variant}_{side}"][key].f1,
            "strategy": 1 if cell.residual_strategy == "random" else 0,
            **covariates,
        }
        for key in sorted(tables["boundary_eval"])
        for side in ("eval", "new")
    ]
    return {
        "key": f"{corpus.language_tag}/{cell.cell_id}",
        "language_tag": corpus.language_tag,
        "cell": cell.to_dict(),
        "result": result.to_dict(),
        "records": records,
    }


_Outcome = tuple[str, str, dict | str, float]

# A work unit: (language, generation, the ids of the cells of one carve).
_Unit = tuple[str, str, list[str]]


def _run_cell(corpus: Corpus, cell: GridCell, config: RunConfig) -> _Outcome:
    """Compute one cell; returns (key, status, payload-or-error, s)."""
    key = f"{corpus.language_tag}/{cell.cell_id}"
    start = time.perf_counter()
    try:
        payload = compute_cell(corpus, cell, config)
    except Exception:
        return key, "failed", traceback.format_exc(limit=20), time.perf_counter() - start
    return key, "done", payload, time.perf_counter() - start


def _run_unit(unit: _Unit) -> Iterator[_Outcome]:
    """Build one unit's carve and the residual splits of its cells, then
    compute the cells one by one, with this process's job."""
    language, generation, cell_ids = unit
    corpus, config = _JOB.corpora[language], _JOB.config
    for cell in build_grid(corpus, config.plan(generation), config.residual_strategies, cell_ids):
        yield _run_cell(corpus, cell, config)


def _run_pooled(unit: _Unit) -> list[_Outcome]:
    """Process-pool entry point for one work unit."""
    return list(_run_unit(unit))


def _load_corpora(config: RunConfig, launch_dir: str = "") -> list[tuple[str, Corpus]]:
    """(config path, corpus) of each corpus, a relative path read from
    ``launch_dir``. Raises :class:`CapacityError` for a corpus too small
    for the grid, before any cell is computed."""
    out = []
    seen = set()
    for path in config.corpus_paths:
        corpus = parse_corpus(Path(launch_dir, path))
        if corpus.language_tag in seen:
            raise ConfigError(
                f"duplicate language tag {corpus.language_tag!r} across corpora"
            )
        check_capacity(len(corpus), config.fractions, config.residual_ratio)
        seen.add(corpus.language_tag)
        out.append((path, corpus))
    return out


def enumerate_cells(
    config: RunConfig, corpora: Sequence[tuple[str, Corpus]]
) -> list[tuple[str, str, GridCell]]:
    """All (corpus path, language, cell) of the grid in deterministic order.

    Each carve is made once and shared by the residual strategies.
    """
    return [
        (path, corpus.language_tag, cell)
        for path, corpus in corpora
        for generation in config.new_test_generations
        for cell in build_grid(corpus, config.plan(generation), config.residual_strategies)
    ]


def _grid_units(config: RunConfig, corpora: Sequence[tuple[str, Corpus]]) -> list[_Unit]:
    """Every work unit of the grid in order, one per (language,
    generation, fraction, sample), i.e. per carve. Cell ids follow from the
    coordinates alone; nothing is split here."""
    return [
        (corpus.language_tag, generation, [cell_id for _, _, cell_id in cells])
        for _, corpus in corpora
        for generation in config.new_test_generations
        for _, _, cells in grid_units(config.plan(generation), config.residual_strategies)
    ]


def _execute(
    config: RunConfig, corpora: Sequence[tuple[str, Corpus]], units: Sequence[_Unit]
) -> Iterator[_Outcome]:
    """Run the given work units, inline or in a process pool; yields (key,
    status, payload, s) as each cell (inline) or unit (pool) finishes. A
    unit lost to a broken pool yields each of its cells as failed, naming
    the break; units that returned before it keep their outcomes.

    Either way a unit's splits are built right before its cells, in the
    process that computes them, so no grid is built up front. A pool hands
    the corpora this run parsed to each worker once, when the worker
    starts. Each process builds a corpus's word table at most once, on its
    first cell of that corpus.
    """
    job = _Job({corpus.language_tag: corpus for _, corpus in corpora}, config)
    if config.parallelism > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=config.parallelism, initializer=_set_job, initargs=(job,)
        )
        try:
            futures = {pool.submit(_run_pooled, unit): unit for unit in units}
            for future in as_completed(futures):
                try:
                    outcomes = future.result()
                except BrokenProcessPool as exc:
                    language, _, cell_ids = futures[future]
                    error = f"BrokenProcessPool: {exc}"
                    outcomes = [(f"{language}/{c}", "failed", error, 0.0) for c in cell_ids]
                yield from outcomes
        finally:
            # a run that stops early, as on an error, starts no further unit
            pool.shutdown(cancel_futures=True)
        return
    _set_job(job)
    try:
        for unit in units:
            yield from _run_unit(unit)
    finally:
        _set_job(None)


def _f(v: float) -> str:
    return f"{v:.6f}"


def _g(v: float) -> str:
    return f"{v:.6g}"


def _write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence], config: RunConfig
) -> Path:
    """Write one report CSV under a comment line naming the F1 variant and
    averaging that produced it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# f1_variant={config.f1_variant} average={config.f1_average} "
            "languages=equal-weight\n"
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


REPORT_ROW_COLUMNS = (
    "cell_id", "language_tag", "fraction", "new_test_strategy",
    "residual_strategy", "model", "seed_group", "f1_boundary_eval",
    "f1_boundary_new", "f1_morpheme_eval", "f1_morpheme_new",
    "morpheme_overlap", "train_size", "eval_size", "new_test_size",
)

RECORD_COLUMNS = ("cell_id", "model_arch", "score_on", "f1", "strategy", *COVARIATES)


def _report_rows_csv(out: Path, language: str, results: list[CellResult], config: RunConfig) -> Path:
    rows = []
    for r in sorted(results, key=lambda c: c.cell_id):
        for m in r.models():
            rows.append(
                (
                    r.cell_id, r.language_tag, _g(float(r.fraction)),
                    r.new_test_strategy, r.residual_strategy, m, r.seed_group,
                    _f(r.boundary_eval[m].f1), _f(r.boundary_new[m].f1),
                    _f(r.morpheme_eval[m].f1), _f(r.morpheme_new[m].f1),
                    _f(r.overlap), r.train_size, r.eval_size, r.new_test_size,
                )
            )
    return _write_csv(
        out / "languages" / language / "report_rows.csv",
        REPORT_ROW_COLUMNS, rows, config,
    )


def _record_format(column: str):
    """F1 and overlap to six decimals, a ratio to six significant digits."""
    if column in ("f1", "morpheme_overlap"):
        return _f
    return _g if column.endswith("_ratio") else str


def _records_csv(out: Path, language: str, records: list[dict], config: RunConfig) -> Path:
    formats = [(column, _record_format(column)) for column in RECORD_COLUMNS]
    rows = [
        [fmt(rec[column]) for column, fmt in formats]
        for rec in sorted(
            records, key=lambda r: (r["cell_id"], r["model_arch"], r["score_on"])
        )
    ]
    return _write_csv(
        out / "languages" / language / "records.csv", RECORD_COLUMNS, rows, config
    )


def regression_records(records: Iterable[dict]) -> list[RegressionRecord]:
    """Validated regression inputs from record rows, persisted or read as
    CSV text."""
    return [RegressionRecord.from_dict(rec) for rec in records]


def _regression_csvs(
    out: Path, language: str, records: list[dict], config: RunConfig
) -> tuple[list[Path], str | None]:
    """Fit the language's regression and write its two files; a skipped fit
    removes them, so none is left from an earlier fit."""
    directory = out / "languages" / language
    try:
        result = fit_regression(regression_records(records))
    except (DomainError, SingularityError) as exc:
        for name in ("regression.csv", "regression_summary.csv"):
            (directory / name).unlink(missing_ok=True)
        return [], f"{language}: regression skipped ({exc})"
    term_rows = [
        (row["term"], _g(row["beta"]), _g(row["se"]), _g(row["t"]),
         _g(row["p"]), row["stars"])
        for row in result.rows()
    ]
    paths = [
        _write_csv(
            directory / "regression.csv",
            ("term", "beta", "se", "t", "p", "stars"),
            term_rows, config,
        ),
        _write_csv(
            directory / "regression_summary.csv",
            ("language", "r_squared", "n", "dof"),
            [(language, _g(result.r_squared), result.n, result.dof)],
            config,
        ),
    ]
    return paths, None


def _aggregate_csv(out: Path, results: list[CellResult], config: RunConfig) -> Path:
    rows = [
        (
            row["model"], row["residual_strategy"], _f(row["mean_eval_f1"]),
            _f(row["mean_new_f1"]), _f(row["mean_abs_gap"]),
            _f(row["consistency"]), _f(row["sigma"]),
        )
        for row in aggregate_rows(results, config.f1_variant)
    ]
    return _write_csv(
        out / "aggregate.csv",
        ("model", "residual_strategy", "mean_eval_f1", "mean_new_f1",
         "mean_abs_gap", "consistency", "sigma"),
        rows, config,
    )


def ranking_label(ranking: ModelRanking) -> str:
    """Human-readable group chain, e.g. ``crf > lstm = trm > unigram``."""
    return " > ".join(" = ".join(group) for group in ranking.groups)


def _best_rankings_csv(out: Path, results: list[CellResult], config: RunConfig) -> Path:
    rows = []
    by_strategy: dict[str, list[CellResult]] = {}
    for r in results:
        by_strategy.setdefault(r.residual_strategy, []).append(r)
    for strategy in sorted(by_strategy):
        cells = by_strategy[strategy]
        for side in ("eval", "new"):
            counts = Counter(ranking_label(getattr(c, f"ranking_{side}")) for c in cells)
            for label in sorted(counts, key=lambda l: (-counts[l], l)):
                rows.append(
                    (strategy, side, label, counts[label],
                     _f(counts[label] / len(cells)))
                )
    return _write_csv(
        out / "best_rankings.csv",
        ("residual_strategy", "side", "ranking", "count", "share"),
        rows, config,
    )


def _plots_data_csv(out: Path, results: list[CellResult], config: RunConfig) -> Path:
    """Per-fraction new-test F1 sigma, pooled over languages and modes."""
    groups: dict[tuple[Fraction, str], list[CellResult]] = {}
    for r in results:
        groups.setdefault((r.fraction, r.residual_strategy), []).append(r)
    rows = []
    for stratum in sorted(groups):
        cells = groups[stratum]
        for m in cells[0].models():
            sigma = population_sigma([c.scores(config.f1_variant, "new")[m].f1 for c in cells])
            rows.append((_g(float(stratum[0])), stratum[1], m, _f(sigma)))
    return _write_csv(
        out / "plots_data.csv",
        ("fraction", "strategy", "model", "sigma"),
        rows, config,
    )


# A done cell as the reports read it: its result and its record rows.
_Scored = tuple[CellResult, list[dict]]


def _scored(payload: dict) -> _Scored:
    return CellResult.from_dict(payload["result"]), payload["records"]


def _read_done(ledger: RunLedger, keys: Iterable[str]) -> dict[str, _Scored]:
    """The cells of ``keys`` that have an artifact, each decoded, by key.

    A cell whose artifact is missing is left out, and so is one whose
    artifact is damaged (not JSON, or JSON that does not decode to a cell
    payload), with a warning that names the file.
    """
    done = {}
    for key in keys:
        path = ledger.artifact(key)
        if not path.is_file():
            continue
        try:
            done[key] = _scored(json.loads(path.read_text(encoding="utf-8")))
        except DECODE_ERRORS as exc:
            logger.warning(
                "ignoring damaged cell artifact %s (%s: %s)", path, type(exc).__name__, exc
            )
    return done


_OUTPUT_KINDS = ("rows",) + REPORT_KINDS


def _write_outputs(
    ledger: RunLedger, done: dict[str, _Scored], kinds: Sequence[str] = _OUTPUT_KINDS
) -> tuple[list[Path], list[str]]:
    """Emit the CSVs of ``kinds`` from the done cells; returns (paths, notes).

    ``rows`` is the per-language report rows and records; the other kinds
    are those of :func:`report`.
    """
    config, out = ledger.config, ledger.root
    written: list[Path] = []
    notes: list[str] = []
    by_lang: dict[str, tuple[list[CellResult], list[dict]]] = {}
    for key in sorted(done):
        result, rows = done[key]
        results, records = by_lang.setdefault(result.language_tag, ([], []))
        results.append(result)
        records.extend(rows)
    for language, (results, records) in sorted(by_lang.items()):
        if "rows" in kinds:
            written.append(_report_rows_csv(out, language, results, config))
            written.append(_records_csv(out, language, records, config))
        if "regression" in kinds:
            paths, note = _regression_csvs(out, language, records, config)
            written.extend(paths)
            if note:
                notes.append(note)
                logger.warning(note)
    all_results = sorted(
        (r for results, _ in by_lang.values() for r in results),
        key=lambda r: (r.language_tag, r.cell_id),
    )
    if all_results and "tables" in kinds:
        written.append(_aggregate_csv(out, all_results, config))
        written.append(_best_rankings_csv(out, all_results, config))
    if all_results and "plots-data" in kinds:
        written.append(_plots_data_csv(out, all_results, config))
    return written, notes


def _complete(ledger: RunLedger) -> RunLedger:
    """Compute every grid cell that has no artifact, then rewrite the reports.

    A cell is done when its artifact decodes, whatever the ledger says: an
    artifact follows from the config (hash checked on load), the corpus
    (digest checked here) and the cell key. Keys follow from the grid
    coordinates, so splits are built only for the carves with a pending
    cell, and only those cells' residual splits. Each computed artifact is
    written as it arrives, between a ledger save listing the pending cells
    and one after the last. Refuses with :class:`LedgerError` when a corpus
    file's content no longer matches the digest the ledger recorded for it.
    """
    config = ledger.config
    ledger.check_corpora()
    corpora = _load_corpora(config, ledger.launch_dir)
    ledger.corpus_sha256 = {
        path: _sha256(Path(ledger.launch_dir, path)) for path in config.corpus_paths
    }

    units = _grid_units(config, corpora)
    done = _read_done(ledger, (f"{lang}/{c}" for lang, _, ids in units for c in ids))
    for key in done.keys() - set(ledger.done_keys()):
        ledger.cells[key] = CellStatus("done")
    pending = [
        (lang, gen, [c for c in ids if f"{lang}/{c}" not in done]) for lang, gen, ids in units
    ]
    todo = [unit for unit in pending if unit[2]]
    if todo:
        ledger.cells.update(
            (f"{lang}/{c}", CellStatus("pending")) for lang, _, ids in todo for c in ids
        )
        ledger.save()
        for key, status, payload, seconds in _execute(config, corpora, todo):
            if status == "done":
                write_json(ledger.artifact(key), payload)
                done[key] = _scored(payload)
                ledger.cells[key] = CellStatus("done", seconds)
            else:
                logger.error("cell %s failed:\n%s", key, payload)
                ledger.cells[key] = CellStatus("failed", seconds, str(payload))
    _, ledger.notes = _write_outputs(ledger, done)
    ledger.save()
    return ledger


def run_experiment(config: RunConfig) -> RunLedger:
    """Execute the full grid, then write the reports and the ledger, into a
    directory holding no artifact or report of an earlier run. Cell failures
    are recorded and skipped; the caller decides exit status from them.
    """
    ledger = RunLedger(config=config, config_hash=config.config_hash(), launch_dir=os.getcwd())
    for name in ("cells", "languages"):
        shutil.rmtree(ledger.root / name, ignore_errors=True)
    for name in ("aggregate.csv", "best_rankings.csv", "plots_data.csv"):
        (ledger.root / name).unlink(missing_ok=True)
    return _complete(ledger)


def resume(ledger_path: str | Path) -> RunLedger:
    """Recompute only the pending/failed/missing cells of a saved run.

    Refuses (with :class:`LedgerError`) when the ledger's embedded config
    no longer matches its recorded hash.
    """
    return _complete(RunLedger.load(ledger_path))


def report(ledger_path: str | Path, kind: str) -> list[Path]:
    """Rewrite one report family from the ledger's cells whose artifacts decode."""
    if kind not in REPORT_KINDS:
        raise DomainError(f"kind must be one of {REPORT_KINDS}, got {kind!r}")
    ledger = RunLedger.load(ledger_path)
    ledger.check_corpora()
    done = _read_done(ledger, ledger.cells)
    if not done:
        raise DomainError("ledger has no completed cells to report on")
    return _write_outputs(ledger, done, (kind,))[0]
