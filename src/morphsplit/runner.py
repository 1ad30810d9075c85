"""Experiment orchestration over the split grid.

A run expands every (language, generation mode, residual strategy)
combination into grid cells, trains each configured model per cell
(``seeds_per_model`` times if it reads its seed, else once with its scores
counted that many times), scores eval and new-test sets, persists
one JSON artifact per cell, and emits per-language and pooled CSVs plus a
resumable ledger. There is one run path: ``resume`` completes the cells a
saved ledger lacks, and ``run_experiment`` is the same step from an empty
ledger. ``report`` rewrites one report family through the same CSV
writers. Cell computation is deterministic for a fixed master seed, so
parallel schedules and reruns produce byte-identical CSVs; only the
ledger's timing fields vary.

Output layout under the run directory:

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
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Collection, Iterable, Sequence, get_type_hints

from .corpus import Corpus, corpus_stats, parse_corpus
from .errors import ConfigError, DomainError, LedgerError, SingularityError, ValidationError
from .evaluation import (
    AVERAGES,
    F1_VARIANTS,
    CellResult,
    ModelRanking,
    ScoreTriple,
    aggregate_rows,
    corpus_f1,
    mean_triple,
    morpheme_overlap,
    rank_models,
    score_variability,
)
from .models import SegmenterId, TrainConfig, FeatureTemplate, segment_corpus, train_segmenter
from .splitter import (
    DEFAULT_ADVERSARIAL_BUDGET,
    GRID_STRATEGIES,
    ExperimentPlan,
    GridCell,
    as_fraction,
    build_grid,
    derive_seed,
    format_ratio,
    grid_units,
    parse_ratio,
)
from .stats import RegressionRecord, fit_regression

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "MORPHSPLIT_OUTPUT_DIR"
LEDGER_NAME = "ledger.json"
LEDGER_VERSION = 1
REPORT_KINDS = ("tables", "regression", "plots-data")
DEFAULT_MODELS = ("boundary_logistic", "crf", "longest_match", "unigram_viterbi")

_DEFAULT_FRACTIONS = ExperimentPlan().new_test_fractions


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on, plus execution knobs.

    ``output_dir`` and ``parallelism`` affect where and how fast results
    land but never their values, so they are excluded from the config hash
    that guards resumption.
    """

    corpus_paths: tuple[str, ...]
    output_dir: str
    fractions: tuple[Fraction, ...] = _DEFAULT_FRACTIONS
    samples_per_fraction: int = 10
    residual_splits: int = 3
    residual_ratio: Fraction = Fraction(9, 1)
    new_test_generations: tuple[str, ...] = GRID_STRATEGIES
    residual_strategies: tuple[str, ...] = GRID_STRATEGIES
    models: tuple[str, ...] = DEFAULT_MODELS
    seeds_per_model: int = 3
    f1_variant: str = "boundary"
    f1_average: str = "micro"
    collapse_epsilon: float = 0.02
    master_seed: int = 0
    adversarial_budget: int = DEFAULT_ADVERSARIAL_BUDGET
    parallelism: int = 1
    max_ngram: int = 3
    window: int = 2
    optimizer: str = "lbfgs"
    max_iterations: int = 200
    convergence_tol: float = 1e-6
    l2_lambda: float = 0.1
    unigram_smoothing: float = 0.1

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            if kind in _ITEM_TYPES or kind is float:
                object.__setattr__(self, name, _decode(kind, getattr(self, name)))
        object.__setattr__(self, "residual_ratio", as_fraction(self.residual_ratio))
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
            for spec in self.models:
                self.train_config(SegmenterId.parse(spec), seed=0)
            for generation in self.new_test_generations:
                self.plan(generation)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def template(self) -> FeatureTemplate:
        return FeatureTemplate(max_ngram=self.max_ngram, window=self.window)

    def train_config(self, segmenter: SegmenterId, seed: int) -> TrainConfig:
        # the boundary classifier is defined as gradient-descent trained;
        # the optimizer knob governs the CRF
        optimizer = (
            "gradient_descent" if segmenter.name == "boundary_logistic" else self.optimizer
        )
        return TrainConfig(
            optimizer=optimizer,
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

    def to_dict(self) -> dict:
        return {name: _encode(kind, getattr(self, name)) for name, kind in _FIELD_TYPES.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**{name: _decode(kind, data[name]) for name, kind in _FIELD_TYPES.items()})

    @staticmethod
    def parse_field(name: str, text: str):
        """A field's value from its flag or config-file text; lists are comma separated."""
        return _decode(_FIELD_TYPES[name], text)

    def config_hash(self) -> str:
        payload = {
            k: v
            for k, v in self.to_dict().items()
            if k not in ("output_dir", "parallelism")
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_FIELD_TYPES = get_type_hints(RunConfig)
# the tuple field types, each with the parser of its items
_ITEM_TYPES = {tuple[str, ...]: str, tuple[Fraction, ...]: as_fraction}


def _encode(kind, value):
    """A RunConfig field value as the ledger stores it."""
    if kind is Fraction:
        return format_ratio(value)
    if kind in _ITEM_TYPES:
        return [str(v) for v in value]
    return value


def _decode(kind, value):
    """A RunConfig field value from its ledger form or from its text.

    Tuple fields take a JSON list or comma-separated text; the one
    Fraction field is the ``9:1`` residual ratio.
    """
    if kind is Fraction:
        return parse_ratio(value)
    if kind in _ITEM_TYPES:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        return tuple(_ITEM_TYPES[kind](v) for v in value)
    return kind(value)


@dataclass
class CellStatus:
    status: str
    seconds: float = 0.0
    path: str = ""
    error: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "CellStatus":
        return cls(
            status=data["status"],
            seconds=float(data.get("seconds", 0.0)),
            path=data.get("path", ""),
            error=data.get("error", ""),
        )


@dataclass
class RunLedger:
    """Run manifest: the config, its hash, per-cell completion state, and
    the sha256 of each corpus file's bytes when the run last read it."""

    config: RunConfig
    config_hash: str
    cells: dict[str, CellStatus] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    corpus_sha256: dict[str, str] = field(default_factory=dict)

    def done_keys(self) -> list[str]:
        return sorted(k for k, s in self.cells.items() if s.status == "done")

    def failed_keys(self) -> list[str]:
        return sorted(k for k, s in self.cells.items() if s.status != "done")

    def path(self) -> Path:
        return Path(self.config.output_dir) / LEDGER_NAME

    def save(self) -> None:
        data = {
            "version": LEDGER_VERSION,
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "cells": {k: asdict(s) for k, s in sorted(self.cells.items())},
            "notes": self.notes,
            "corpus_sha256": self.corpus_sha256,
        }
        path = self.path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, ledger_path: str | Path) -> "RunLedger":
        ledger_path = Path(ledger_path)
        if ledger_path.is_dir():
            ledger_path = ledger_path / LEDGER_NAME
        if not ledger_path.exists():
            raise LedgerError(f"no ledger at {ledger_path}")
        data = json.loads(ledger_path.read_text(encoding="utf-8"))
        config = RunConfig.from_dict(data["config"])
        stored = data["config_hash"]
        actual = config.config_hash()
        if stored != actual:
            raise LedgerError(
                "config hash mismatch: the ledger's embedded config no longer "
                f"matches its recorded hash ({actual[:12]} vs {stored[:12]}); "
                "refusing to resume an edited run"
            )
        return cls(
            config=config,
            config_hash=stored,
            cells={k: CellStatus.from_dict(v) for k, v in data.get("cells", {}).items()},
            notes=list(data.get("notes", [])),
            corpus_sha256=dict(data.get("corpus_sha256", {})),
        )

    def check_corpora(self) -> None:
        """Refuse a run whose corpus files changed since it last read them.

        Only recorded digests of files that exist are compared: a ledger
        written before digests were kept has none, and ``report`` needs no
        corpus file, only the artifacts.
        """
        for path, recorded in sorted(self.corpus_sha256.items()):
            if not Path(path).is_file():
                continue
            actual = _sha256(path)
            if actual != recorded:
                raise LedgerError(
                    f"corpus {path} changed since the run read it (sha256 "
                    f"{actual[:12]} vs {recorded[:12]}); its cells were scored "
                    "on the old content, so start a new run"
                )


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def compute_cell(corpus: Corpus, cell: GridCell, config: RunConfig) -> dict:
    """Train, segment, and score every model on one grid cell.

    Returns the persistable payload: the cell, its CellResult, and the
    regression record rows (two per model, one per scored side).
    """
    train = corpus.subset(cell.train_indices)
    eval_gold = [corpus[i] for i in cell.eval_indices]
    new_gold = [corpus[i] for i in cell.new_test_indices]
    eval_surfaces = [w.surface for w in eval_gold]
    new_surfaces = [w.surface for w in new_gold]
    overlap = morpheme_overlap(train, eval_gold)

    tables: dict[str, dict[str, ScoreTriple]] = {
        "boundary_eval": {}, "boundary_new": {},
        "morpheme_eval": {}, "morpheme_new": {},
    }
    template = config.template()
    with TemporaryDirectory(prefix="morphsplit-cell-") as tmp:
        for mi, spec in enumerate(sorted(config.models)):
            sid = SegmenterId.parse(spec)
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
                    config=config.train_config(sid, seed),
                    unigram_smoothing=config.unigram_smoothing,
                    workdir=Path(tmp) / f"m{mi}k{k}",
                )
                pred_eval = segment_corpus(model, eval_surfaces)
                pred_new = segment_corpus(model, new_surfaces)
                for variant in F1_VARIANTS:
                    per_seed[f"{variant}_eval"].append(
                        corpus_f1(eval_gold, pred_eval, variant, config.f1_average)
                    )
                    per_seed[f"{variant}_new"].append(
                        corpus_f1(new_gold, pred_new, variant, config.f1_average)
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
    records = []
    for key in sorted(tables["boundary_eval"]):
        for side in ("eval", "new"):
            records.append(
                {
                    "cell_id": cell.cell_id,
                    "model_arch": key,
                    "score_on": side,
                    "f1": tables[f"{config.f1_variant}_{side}"][key].f1,
                    "strategy": 1 if cell.residual_strategy == "random" else 0,
                    "new_test_gen": 1 if cell.new_test_strategy == "random" else 0,
                    "morpheme_overlap": overlap,
                    "word_count_ratio": train_stats.word_type_count
                    / eval_stats.word_type_count,
                    "morph_per_word_ratio": train_stats.avg_morphemes_per_word
                    / eval_stats.avg_morphemes_per_word,
                    "morph_type_per_word_ratio": train_stats.avg_morpheme_types_per_word
                    / eval_stats.avg_morpheme_types_per_word,
                }
            )
    return {
        "key": f"{corpus.language_tag}/{cell.cell_id}",
        "language_tag": corpus.language_tag,
        "cell": cell.to_dict(),
        "result": result.to_dict(),
        "records": records,
    }


# Set in each pool worker, once, by its initializer: the run's corpora and
# its config.
_POOL_JOB: tuple[list[tuple[str, Corpus]], RunConfig] | None = None


def _start_pool_worker(corpora: list[tuple[str, Corpus]], config: RunConfig) -> None:
    global _POOL_JOB
    _POOL_JOB = (corpora, config)


def _run_cell(
    corpus: Corpus, cell: GridCell, config: RunConfig
) -> tuple[str, str, dict | str, float]:
    """Compute one cell; returns (key, status, payload-or-error, s)."""
    key = f"{corpus.language_tag}/{cell.cell_id}"
    start = time.perf_counter()
    try:
        payload = compute_cell(corpus, cell, config)
    except Exception:
        return key, "failed", traceback.format_exc(limit=20), time.perf_counter() - start
    return key, "done", payload, time.perf_counter() - start


def _run_cells(
    config: RunConfig, corpora: Sequence[tuple[str, Corpus]], keys: Collection[str]
) -> list[tuple[str, str, dict | str, float]]:
    """Build the cells with these keys, each carve they need once, and
    compute them."""
    by_language = {corpus.language_tag: corpus for _, corpus in corpora}
    return [
        _run_cell(by_language[language], cell, config)
        for _, language, cell in enumerate_cells(config, corpora, only=keys)
    ]


def _run_pooled(keys: list[str]) -> list[tuple[str, str, dict | str, float]]:
    """Process-pool entry point for the pending cells of one work unit."""
    corpora, config = _POOL_JOB
    return _run_cells(config, corpora, keys)


def _load_corpora(config: RunConfig) -> list[tuple[str, Corpus]]:
    out = []
    seen = set()
    for path in config.corpus_paths:
        corpus = parse_corpus(path)
        if corpus.language_tag in seen:
            raise ConfigError(
                f"duplicate language tag {corpus.language_tag!r} across corpora"
            )
        seen.add(corpus.language_tag)
        out.append((path, corpus))
    return out


def enumerate_cells(
    config: RunConfig,
    corpora: Sequence[tuple[str, Corpus]],
    only: Collection[str] | None = None,
) -> list[tuple[str, str, GridCell]]:
    """All (corpus path, language, cell) work units in deterministic order.

    Each carve is made once and shared by the residual strategies. With
    ``only``, a collection of ``language/cell_id`` keys, just those cells
    are built, and just the carves they need.
    """
    tasks = []
    for path, corpus in corpora:
        language = corpus.language_tag
        ids = None if only is None else {
            key[len(language) + 1:] for key in only if key.startswith(f"{language}/")
        }
        for generation in config.new_test_generations:
            plan = config.plan(generation)
            for cell in build_grid(corpus, plan, config.residual_strategies, ids):
                tasks.append((path, language, cell))
    return tasks


def _grid_units(
    config: RunConfig, corpora: Sequence[tuple[str, Corpus]]
) -> list[list[str]]:
    """Every cell key, grouped by work unit: one unit per (language,
    generation, fraction, sample), i.e. per carve. Keys follow from the
    coordinates alone; nothing is split here."""
    return [
        [f"{corpus.language_tag}/{cell_id}" for _, _, cell_id in cells]
        for _, corpus in corpora
        for generation in config.new_test_generations
        for _, _, cells in grid_units(config.plan(generation), config.residual_strategies)
    ]


def _cell_artifact_path(out_dir: Path, key: str) -> Path:
    return out_dir / "cells" / f"{key}.json"


def _persist_payload(out_dir: Path, payload: dict) -> Path:
    path = _cell_artifact_path(out_dir, payload["key"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _execute(
    config: RunConfig,
    corpora: Sequence[tuple[str, Corpus]],
    units: Sequence[list[str]],
) -> list[tuple[str, str, dict | str, float]]:
    """Build and run the given cells, grouped by work unit, inline or in a
    process pool; (key, status, payload, s) each.

    A pool worker builds the splits of the units it is handed, so no unit's
    carve or residual splits are made anywhere else. Cells are scored on
    the corpora this run parsed; a pool hands them to each worker once,
    when the worker starts.
    """
    if config.parallelism > 1 and len(units) > 1:
        with ProcessPoolExecutor(
            max_workers=config.parallelism,
            initializer=_start_pool_worker,
            initargs=(list(corpora), config),
        ) as pool:
            return [outcome for done in pool.map(_run_pooled, units) for outcome in done]
    return _run_cells(config, corpora, {key for unit in units for key in unit})


def _f(v: float) -> str:
    return f"{v:.6f}"


def _g(v: float) -> str:
    return f"{v:.6g}"


def _write_csv(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comment: str | None = None,
) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
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

RECORD_COLUMNS = (
    "cell_id", "model_arch", "score_on", "f1", "strategy", "new_test_gen",
    "morpheme_overlap", "word_count_ratio", "morph_per_word_ratio",
    "morph_type_per_word_ratio",
)


def _provenance(config: RunConfig) -> str:
    return (
        f"f1_variant={config.f1_variant} average={config.f1_average} "
        "languages=equal-weight"
    )


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
        REPORT_ROW_COLUMNS, rows, comment=_provenance(config),
    )


def _records_csv(out: Path, language: str, records: list[dict], config: RunConfig) -> Path:
    rows = [
        (
            rec["cell_id"], rec["model_arch"], rec["score_on"], _f(rec["f1"]),
            rec["strategy"], rec["new_test_gen"], _f(rec["morpheme_overlap"]),
            _g(rec["word_count_ratio"]), _g(rec["morph_per_word_ratio"]),
            _g(rec["morph_type_per_word_ratio"]),
        )
        for rec in sorted(
            records, key=lambda r: (r["cell_id"], r["model_arch"], r["score_on"])
        )
    ]
    return _write_csv(
        out / "languages" / language / "records.csv",
        RECORD_COLUMNS, rows, comment=_provenance(config),
    )


def regression_records(records: Iterable[dict]) -> list[RegressionRecord]:
    """Validated regression inputs from record rows, persisted or read as
    CSV text; each field is converted to its declared type.

    ``cell_id`` and ``score_on`` are provenance columns; they never enter
    the design matrix.
    """
    kinds = get_type_hints(RegressionRecord)
    return [
        RegressionRecord(**{name: kind(rec[name]) for name, kind in kinds.items()})
        for rec in records
    ]


def _regression_csvs(
    out: Path, language: str, records: list[dict], config: RunConfig
) -> tuple[list[Path], str | None]:
    strategies = {rec["strategy"] for rec in records}
    if len(strategies) < 2:
        note = (
            f"{language}: regression skipped (needs both residual strategy "
            "levels, run includes one)"
        )
        return [], note
    try:
        result = fit_regression(regression_records(records))
    except (DomainError, SingularityError) as exc:
        return [], f"{language}: regression skipped ({exc})"
    term_rows = [
        (row["term"], _g(row["beta"]), _g(row["se"]), _g(row["t"]),
         _g(row["p"]), row["stars"])
        for row in result.rows()
    ]
    paths = [
        _write_csv(
            out / "languages" / language / "regression.csv",
            ("term", "beta", "se", "t", "p", "stars"),
            term_rows, comment=_provenance(config),
        ),
        _write_csv(
            out / "languages" / language / "regression_summary.csv",
            ("language", "r_squared", "n", "dof"),
            [(language, _g(result.r_squared), result.n, result.dof)],
            comment=_provenance(config),
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
        rows, comment=_provenance(config),
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
        rows, comment=_provenance(config),
    )


def _plots_data_csv(out: Path, results: list[CellResult], config: RunConfig) -> Path:
    """Per-fraction new-test F1 sigma, pooled over languages and modes."""
    groups: dict[tuple[Fraction, str], list[CellResult]] = {}
    for r in results:
        groups.setdefault((r.fraction, r.residual_strategy), []).append(r)
    rows = []
    for stratum in sorted(groups):
        cells = groups[stratum]
        # a stratum of one cell has no spread
        sigmas = (
            score_variability(cells, stratum, config.f1_variant)
            if len(cells) > 1
            else dict.fromkeys(cells[0].models(), 0.0)
        )
        for m, sigma in sigmas.items():
            rows.append((_g(float(stratum[0])), stratum[1], m, _f(sigma)))
    return _write_csv(
        out / "plots_data.csv",
        ("fraction", "strategy", "model", "sigma"),
        rows, comment=_provenance(config),
    )


def _load_payloads(
    ledger: RunLedger, fresh: dict[str, dict] | None = None
) -> dict[str, dict]:
    """Payloads of the ledger's done cells: ``fresh`` ones as given, the
    rest read from their artifacts (skipping missing files)."""
    payloads = dict(fresh or {})
    for key, status in ledger.cells.items():
        if key in payloads or status.status != "done":
            continue
        path = Path(status.path)
        if path.exists():
            payloads[key] = json.loads(path.read_text(encoding="utf-8"))
    return payloads


_OUTPUT_KINDS = ("rows",) + REPORT_KINDS


def _write_outputs(
    config: RunConfig, payloads: dict[str, dict], kinds: Sequence[str] = _OUTPUT_KINDS
) -> tuple[list[Path], list[str]]:
    """Emit the CSVs of ``kinds`` from cell payloads; returns (paths, notes).

    ``rows`` is the per-language report rows and records; the other kinds
    are those of :func:`report`.
    """
    out = Path(config.output_dir)
    written: list[Path] = []
    notes: list[str] = []
    by_lang: dict[str, tuple[list[CellResult], list[dict]]] = {}
    for key in sorted(payloads):
        payload = payloads[key]
        results, records = by_lang.setdefault(payload["language_tag"], ([], []))
        results.append(CellResult.from_dict(payload["result"]))
        records.extend(payload["records"])
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
    """Compute every cell the ledger lacks, then rewrite the reports.

    A cell is computed when the ledger has no done entry for it or its
    artifact is missing. Cell keys follow from the grid coordinates, so
    splits are built only for the work units (carves) that have such a
    cell, and only the residual splits of those cells; a run with nothing
    pending makes no split at all. Payloads computed here are reported
    from memory; only the cells left untouched are read back from disk.
    Refuses with :class:`LedgerError` when a corpus file's content no
    longer matches the digest the ledger recorded for it.
    """
    config = ledger.config
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger.check_corpora()
    corpora = _load_corpora(config)
    ledger.corpus_sha256 = {path: _sha256(path) for path in config.corpus_paths}

    def pending(key: str) -> bool:
        status = ledger.cells.get(key)
        return (
            status is None
            or status.status != "done"
            or not _cell_artifact_path(out, key).exists()
        )

    todo = [
        pending_keys
        for unit in _grid_units(config, corpora)
        if (pending_keys := [key for key in unit if pending(key)])
    ]
    fresh: dict[str, dict] = {}
    for key, status, payload, seconds in sorted(
        _execute(config, corpora, todo), key=lambda outcome: outcome[0]
    ):
        if status == "done":
            path = _persist_payload(out, payload)
            fresh[key] = payload
            ledger.cells[key] = CellStatus("done", seconds, str(path))
        else:
            logger.error("cell %s failed:\n%s", key, payload)
            ledger.cells[key] = CellStatus("failed", seconds, "", str(payload))
    _, ledger.notes = _write_outputs(config, _load_payloads(ledger, fresh))
    ledger.save()
    return ledger


def run_experiment(config: RunConfig) -> RunLedger:
    """Execute the full grid and write artifacts, reports, and the ledger.

    Cell failures are recorded in the ledger and skipped; the caller
    decides process exit status from ``ledger.failed_keys()``.
    """
    return _complete(RunLedger(config=config, config_hash=config.config_hash()))


def resume(ledger_path: str | Path) -> RunLedger:
    """Recompute only the pending/failed/missing cells of a saved run.

    Refuses (with :class:`LedgerError`) when the ledger's embedded config
    no longer matches its recorded hash.
    """
    return _complete(RunLedger.load(ledger_path))


def report(ledger_path: str | Path, kind: str) -> list[Path]:
    """Regenerate one report family from a saved run's artifacts."""
    if kind not in REPORT_KINDS:
        raise DomainError(f"kind must be one of {REPORT_KINDS}, got {kind!r}")
    ledger = RunLedger.load(ledger_path)
    ledger.check_corpora()
    payloads = _load_payloads(ledger)
    if not payloads:
        raise DomainError("ledger has no completed cells to report on")
    return _write_outputs(ledger.config, payloads, (kind,))[0]
