"""Spans and counters recorded around the library's public entry points.

Nothing here touches ``src/``: :func:`installed` rebinds each traced function
at the name its caller looks it up by (``morphsplit.runner.train_segmenter``,
``morphsplit.splitter.adversarial_split``, ``morphsplit.models.crf.minimize``
and so on) and restores the originals on exit. Spans are kept in memory as
``[name, start, end, parent, cell_id, child_s]`` lists and written out by the
caller when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children. Spans nest strictly (one thread, no pool), so the self times of all
spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import statistics
from time import perf_counter

import morphsplit.models.baselines as baselines
import morphsplit.models.crf as crf
import morphsplit.runner as runner
import morphsplit.splitter as splitter

LAYERS = (
    "corpus", "splitter", "models", "models.features", "models.optim",
    "evaluation", "stats", "runner",
)
MODELS = ("crf", "boundary_logistic", "unigram_viterbi", "longest_match")
OPTIMIZED_MODELS = ("crf", "boundary_logistic")
_MODEL_OF_CLASS = {
    "CrfModel": "crf",
    "BoundaryLogisticModel": "boundary_logistic",
    "UnigramModel": "unigram_viterbi",
    "LongestMatchModel": "longest_match",
    "ExternalModel": "external",
}


def layer_of(span_name: str) -> str:
    for prefix in ("models.features", "models.optim"):
        if span_name.startswith(prefix + "."):
            return prefix
    return span_name.split(".", 1)[0]


class Tracer:
    """Span stack plus the per-layer facts the spans alone do not carry."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.cell_id = ""
        self.carve_calls = 0
        self.carve_repeats = 0
        self._carves_seen: set = set()
        self.searches: list[tuple[int, int, float, float]] = []
        self.trainings: list[tuple[str, int, float, str]] = []
        self.segmentations: list[tuple[str, int, float]] = []
        self.extract_calls = 0
        self.extract_distinct = 0
        self._positions_seen: set = set()
        self.optim: dict[str, list[tuple[int, int, bool]]] = {m: [] for m in OPTIMIZED_MODELS}
        self.fits = 0
        self.fits_skipped = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.cell_id, 0.0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = perf_counter()
        self._open.pop()
        duration = span[2] - span[1]
        if span[3] >= 0:
            self.spans[span[3]][5] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, seconds)."""
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self.close(index)
        return result, seconds

    # -- wrappers, one per traced entry point ----------------------------------

    def _wrap_enumerate_cells(self, fn):
        def enumerate_cells(*args, **kwargs):
            # duplicate carves are counted within one grid expansion
            self._carves_seen = set()
            return self._timed("runner.enumerate_cells", fn, *args, **kwargs)[0]
        return enumerate_cells

    def _note_carve(self, bound: inspect.BoundArguments) -> None:
        args = bound.arguments
        if args["stage"] != "new_test_carving":
            return
        key = (args["stage"], args["seed"], str(args["ratio"]))
        self.carve_calls += 1
        if key in self._carves_seen:
            self.carve_repeats += 1
        self._carves_seen.add(key)

    def _wrap_split(self, fn, name: str):
        signature = inspect.signature(fn)

        def split(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._note_carve(bound)
            manifest, seconds = self._timed(name, fn, *args, **kwargs)
            if name == "splitter.adversarial_split":
                self.searches.append(
                    (manifest.budget_used, bound.arguments["budget"], manifest.achieved_distance, seconds)
                )
            return manifest
        return split

    def _wrap_compute_cell(self, fn):
        def compute_cell(corpus, cell, config):
            self.cell_id = cell.cell_id
            self._positions_seen = set()
            try:
                return self._timed("runner.compute_cell", fn, corpus, cell, config)[0]
            finally:
                self.cell_id = ""
        return compute_cell

    def _wrap_train(self, fn):
        def train_segmenter(segmenter, corpus, template=None, config=None, **kwargs):
            name = getattr(segmenter, "name", str(segmenter).split(":", 1)[0])
            model, seconds = self._timed(
                f"models.train.{name}", fn, segmenter, corpus, template, config, **kwargs
            )
            # what the model could depend on, apart from its seed
            identity = repr((
                segmenter, [w.surface for w in corpus], template,
                None if config is None else (config.optimizer, config.max_iterations,
                                             config.convergence_tol, config.l2_lambda),
                # the workdir only holds an external model's train file
                sorted((k, v) for k, v in kwargs.items() if k != "workdir"),
            ))
            self.trainings.append(
                (name, len(corpus), seconds, hashlib.sha256(identity.encode()).hexdigest())
            )
            return model
        return train_segmenter

    def _wrap_segment(self, fn):
        def segment_corpus(model, surfaces):
            surfaces = list(surfaces)
            name = _MODEL_OF_CLASS.get(type(model).__name__, type(model).__name__)
            words, seconds = self._timed(f"models.segment.{name}", fn, model, surfaces)
            self.segmentations.append((name, len(surfaces), seconds))
            return words
        return segment_corpus

    def _wrap_extract(self, fn):
        open_, close = self.open, self.close

        def extract_features(surface, position, *args, **kwargs):
            self.extract_calls += 1
            key = (surface, position)
            if key not in self._positions_seen:
                self._positions_seen.add(key)
                self.extract_distinct += 1
            index = open_("models.features.extract_features")
            try:
                return fn(surface, position, *args, **kwargs)
            finally:
                close(index)
        return extract_features

    def _wrap_minimize(self, fn, model: str):
        def minimize(fun, x0, config, *args, **kwargs):
            evals = 0

            def objective(x):
                nonlocal evals
                evals += 1
                return self._timed(f"models.objective.{model}", fun, x)[0]

            result = self._timed("models.optim.minimize", fn, objective, x0, config, *args, **kwargs)[0]
            self.optim[model].append((result.iterations, evals, result.converged))
            return result
        return minimize

    def _wrap_fit(self, fn):
        def fit_regression(records):
            index = self.open("stats.fit_regression")
            try:
                result = fn(records)
            except Exception:
                self.fits_skipped += 1
                raise
            finally:
                self.close(index)
            self.fits += 1
            return result
        return fit_regression

    def _wrap_plain(self, fn, name: str):
        def traced(*args, **kwargs):
            return self._timed(name, fn, *args, **kwargs)[0]
        return traced

    def patches(self):
        """(module, attribute, replacement) for every traced entry point."""
        out = [
            (runner, "enumerate_cells", self._wrap_enumerate_cells(runner.enumerate_cells)),
            (runner, "compute_cell", self._wrap_compute_cell(runner.compute_cell)),
            (runner, "train_segmenter", self._wrap_train(runner.train_segmenter)),
            (runner, "segment_corpus", self._wrap_segment(runner.segment_corpus)),
            (runner, "fit_regression", self._wrap_fit(runner.fit_regression)),
            (splitter, "adversarial_split",
             self._wrap_split(splitter.adversarial_split, "splitter.adversarial_split")),
            (splitter, "random_split",
             self._wrap_split(splitter.random_split, "splitter.random_split")),
            (crf, "extract_features", self._wrap_extract(crf.extract_features)),
            (baselines, "extract_features", self._wrap_extract(baselines.extract_features)),
            (crf, "minimize", self._wrap_minimize(crf.minimize, "crf")),
            (baselines, "minimize", self._wrap_minimize(baselines.minimize, "boundary_logistic")),
        ]
        for module, attr, name in (
            (runner, "build_grid", "splitter.build_grid"),
            (runner, "parse_corpus", "corpus.parse_corpus"),
            (runner, "corpus_stats", "corpus.corpus_stats"),
            (runner, "corpus_f1", "evaluation.corpus_f1"),
            (runner, "rank_models", "evaluation.rank_models"),
            (runner, "morpheme_overlap", "evaluation.morpheme_overlap"),
            (runner, "aggregate_rows", "evaluation.aggregate_rows"),
        ):
            out.append((module, attr, self._wrap_plain(getattr(module, attr), name)))
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced entry point to ``tracer``'s wrapper, then restore."""
    saved = []
    try:
        for module, attr, replacement in tracer.patches():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    spans = tracer.spans
    m: dict[str, float] = {}

    def busy(name: str) -> float:
        return _sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_of(pred) -> float:
        return _sum(s[2] - s[1] - s[5] for s in spans if pred(s[0]))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(lambda name, layer=layer: layer_of(name) == layer)
    m["trace.wall_s"] = wall_s
    m["trace.accounted_share"] = _share(_sum(m[f"{l}.self_s"] for l in LAYERS), wall_s)
    m["trace.spans"] = len(spans)

    # splitter
    m["splitter.grid_s"] = busy("splitter.build_grid")
    budget_used = sum(s[0] for s in tracer.searches)
    m["splitter.adversarial_searches"] = len(tracer.searches)
    m["splitter.swap_evals"] = budget_used
    m["splitter.us_per_swap_eval"] = _share(_sum(s[3] for s in tracer.searches) * 1e6, budget_used)
    m["splitter.duplicate_carve_share"] = _share(tracer.carve_repeats, tracer.carve_calls)
    m["splitter.budget_exhausted_share"] = _share(
        sum(1 for s in tracer.searches if s[1] is not None and s[0] >= s[1]), len(tracer.searches)
    )
    m["splitter.mean_distance"] = _share(_sum(s[2] for s in tracer.searches), len(tracer.searches))

    # models
    for name in MODELS:
        train = [t for t in tracer.trainings if t[0] == name]
        seg = [s for s in tracer.segmentations if s[0] == name]
        train_s, seg_s = _sum(t[2] for t in train), _sum(s[2] for s in seg)
        m[f"models.{name}.train_s"] = train_s
        m[f"models.{name}.segment_s"] = seg_s
        m[f"models.{name}.train_ms_per_kword"] = _share(train_s * 1e6, sum(t[1] for t in train))
        m[f"models.{name}.segment_ms_per_kword"] = _share(seg_s * 1e6, sum(s[1] for s in seg))
    distinct = len({t[3] for t in tracer.trainings})
    m["models.trainings"] = len(tracer.trainings)
    m["models.distinct_trainings"] = distinct
    m["models.duplicate_train_share"] = 1.0 - _share(distinct, len(tracer.trainings)) if tracer.trainings else 0.0
    m["models.features.extract_calls"] = tracer.extract_calls
    m["models.features.extract_s"] = busy("models.features.extract_features")
    m["models.features.distinct_share"] = _share(tracer.extract_distinct, tracer.extract_calls)
    for name in OPTIMIZED_MODELS:
        runs = tracer.optim[name]
        m[f"models.optim.{name}_iterations"] = sum(r[0] for r in runs)
        m[f"models.optim.{name}_objective_evals"] = sum(r[1] for r in runs)
        m[f"models.optim.{name}_converged_share"] = _share(sum(1 for r in runs if r[2]), len(runs))

    # evaluation, stats, corpus
    m["evaluation.corpus_f1_s"] = busy("evaluation.corpus_f1")
    m["evaluation.corpus_f1_calls"] = sum(1 for s in spans if s[0] == "evaluation.corpus_f1")
    m["evaluation.rank_s"] = busy("evaluation.rank_models")
    m["stats.fit_s"] = busy("stats.fit_regression")
    m["stats.fits"] = tracer.fits
    m["stats.skipped"] = tracer.fits_skipped
    m["corpus.parse_s"] = busy("corpus.parse_corpus")
    m["corpus.parse_calls"] = sum(1 for s in spans if s[0] == "corpus.parse_corpus")
    m["corpus.stats_s"] = busy("corpus.corpus_stats")

    # runner
    cells = [s for s in spans if s[0] == "runner.compute_cell"]
    m["runner.cell_self_s"] = _sum(s[2] - s[1] - s[5] for s in cells)
    m["runner.run_self_s"] = self_of(lambda name: name == "runner.run_experiment")
    m["runner.resume_self_s"] = self_of(lambda name: name == "runner.resume")
    m["runner.report_self_s"] = self_of(lambda name: name == "runner.report")
    return m


def cell_seconds(tracer: Tracer) -> list[float]:
    return [s[2] - s[1] for s in tracer.spans if s[0] == "runner.compute_cell"]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
