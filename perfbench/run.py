"""The morphsplit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload adversarial-grid --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload, untraced and then traced, each in a
process of its own. Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``. With ``--trace 0`` the benchmark repeats an
iteration (``run_experiment``, then no-op ``resume`` calls, then every
``report`` kind) untraced at the workload's parallelism until ``--seconds``
have passed, and reports the ``end_to_end`` metrics of ``BENCHMARK.json``
(see ``end_to_end`` for how each is taken over the run). With ``--trace 1`` it alternates untraced and traced
iterations at parallelism 1 and reports the ``per_layer`` metrics, including
the tracing overhead. Either way it checks the outputs (see ``check.py``),
prints a digest for every artifact, and prints as its last line one JSON
object: ``correct``, ``attempted`` and ``failed`` (counted in cells) and
``metrics``. It exits 1 when a check fails and 2 when the package cannot
be imported from the checkout.

Everything it writes goes under ``.perfbench/`` in the checkout: the
corpus, the run directories (removed once checked), the spans of a traced
run and a result file with the environment block and every raw sample.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
IMPORT_PACKAGE = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import morphsplit"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "SCIPY_OPENBLAS_NUM_THREADS",
)


def _openblas_runtime() -> dict:
    """OpenBLAS thread count and config, read from the loaded library.

    ``threadpoolctl`` is not available, so the library is found in this
    process's memory map and asked directly.
    """
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return {"library": path, "threads": get_threads(), "config": get_config().decode()}
    return {}


def environment() -> dict:
    """What the numbers depend on besides the code; thread settings are
    recorded, never overridden."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg": os.getloadavg(),
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Phase:
    kind: str
    seconds: float
    iteration: int | None = None


class Phases:
    """Wall times of every timed phase of a run, in order."""

    def __init__(self) -> None:
        self.all: list[Phase] = []

    def time(self, kind: str, fn, iteration: int | None = None):
        # a collection owed by earlier work is not charged to this phase
        gc.collect()
        t0 = perf_counter()
        result = fn()
        self.all.append(Phase(kind, perf_counter() - t0, iteration))
        return result

    def seconds(self, kind: str, iteration: int | None = None) -> list[float]:
        return [p.seconds for p in self.all
                if p.kind == kind and (iteration is None or p.iteration == iteration)]


class Iteration:
    """One run_experiment, its no-op resumes and report trios, then checks."""

    def __init__(self, bench: "Bench", index: int, parallelism: int, tracer=None):
        from morphsplit import report, resume, run_experiment
        from morphsplit.runner import REPORT_KINDS
        import check
        import tracing

        self.index = index
        self.tracer = tracer
        self.cells = bench.workload.expected_cells()
        self.errors: list[str] = []
        self.failed = self.cells
        self.timed = False
        phases = bench.phases
        run_dir = bench.work / f"run-{index}"
        config = bench.workload.config(bench.seed, str(bench.corpus_path), str(run_dir), parallelism)
        span = tracer.span if tracer else (lambda name: nullcontext())

        def run():
            with span("runner.run_experiment"):
                return run_experiment(config)

        def resume_once():
            with span("runner.resume"):
                return resume(run_dir)

        def report_all():
            for kind in REPORT_KINDS:
                with span("runner.report"):
                    report(run_dir, kind)

        try:
            with tracing.installed(tracer) if tracer else nullcontext():
                ledger = phases.time("run", run, index)
                after_run = check.artifact_digests(run_dir)
                for _ in range(bench.workload.resume_reps):
                    if phases.time("resume", resume_once, index).cells != ledger.cells:
                        self.errors.append("resume recomputed cells of a finished run")
                for _ in range(bench.workload.report_reps):
                    phases.time("report", report_all, index)
        except Exception as exc:  # the program failed: count the run, do not crash
            traceback.print_exc()
            self.errors.append(f"{type(exc).__name__}: {exc}")
            shutil.rmtree(run_dir, ignore_errors=True)
            return
        self.timed = True
        self.wall_s = sum(p.seconds for p in phases.all if p.iteration == index)
        self.digests = check.artifact_digests(run_dir)
        if self.digests != after_run:
            self.errors.append("resume or report changed artifact bytes")
        self.failed = len(ledger.failed_keys())
        try:
            bench.check(self, ledger, run_dir)
        except Exception as exc:  # outputs too malformed to check fail the check
            traceback.print_exc()
            self.errors.append(f"outputs could not be checked: {type(exc).__name__}: {exc}")
        shutil.rmtree(run_dir)

    @property
    def ok(self) -> bool:
        return not self.errors


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.corpus_path = self.work / "lang.tsv"
        self.corpus = None
        self.phases = Phases()
        self.first: Iteration | None = None
        self.notes: list[str] = []
        self.summary: dict = {}
        self.artifact_bytes = 0
        self.children_rss_mb = 0.0

    def setup(self) -> None:
        """Import the package, generate and write the corpus, then warm up
        with one inline cell.

        The first set-up's import is the benchmark's own, timed in ``main``;
        later ones import in a fresh interpreter.
        """
        from morphsplit import generate_synthetic_corpus, run_experiment
        from morphsplit.corpus import write_corpus

        if self.phases.seconds("setup"):
            self.phases.time(
                "import", lambda: subprocess.run([sys.executable, "-c", IMPORT_PACKAGE], check=True)
            )

        def once():
            self.corpus = generate_synthetic_corpus(self.workload.spec(self.seed))
            self.work.mkdir(parents=True, exist_ok=True)
            write_corpus(self.corpus, self.corpus_path)
            warm_dir = self.work / "warmup"
            ledger = run_experiment(
                self.workload.warmup_config(self.seed, str(self.corpus_path), str(warm_dir))
            )
            shutil.rmtree(warm_dir)
            if ledger.failed_keys():
                raise RuntimeError(f"warm-up cell failed: {ledger.failed_keys()}")

        self.phases.time("setup", once)

    def check(self, it: Iteration, ledger, run_dir: Path) -> None:
        """The first iteration is checked in full; later ones must match it."""
        import check

        if self.first is not None:
            if it.digests != self.first.digests:
                it.errors.append("artifacts differ from the first iteration's")
            return
        self.first = it
        it.errors.extend(check.invariant_errors(run_dir, ledger, self.corpus, self.workload))
        self.summary = check.summarize(run_dir)
        self.artifact_bytes = sum(
            p.stat().st_size for p in run_dir.rglob("*") if p.is_file() and p.name != check.LEDGER_NAME
        )
        pinned = check.load_reference().get(self.workload.name, {}).get(str(self.seed))
        if pinned is None:
            self.notes.append(f"no pinned reference for seed {self.seed}: invariants and determinism checked only")
            return
        errors, notes = check.reference_errors(self.summary, pinned)
        it.errors.extend(errors)
        self.notes.extend(notes)
        self.notes.append(f"pinned reference for seed {self.seed}: manifests, file count and F1 compared")

    def measure(self, traced: bool) -> tuple[list[Iteration], list[Iteration]]:
        """Iterate until ``seconds`` have passed; returns (untraced, traced).

        Untraced runs use the workload's parallelism. A traced benchmark
        alternates untraced and traced iterations, both at parallelism 1.
        """
        import tracing

        plain: list[Iteration] = []
        traced_its: list[Iteration] = []
        start = perf_counter()
        deadline = start + self.seconds
        while True:
            started = perf_counter()
            it = Iteration(self, len(plain) + len(traced_its), self.workload.parallelism(traced))
            plain.append(it)
            if traced and it.ok:
                it = Iteration(self, len(plain) + len(traced_its), 1, tracing.Tracer())
                traced_its.append(it)
            now = perf_counter()
            step = now - started
            if len(plain) == 1:
                # before any import probe, so that only pool workers count
                self.children_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
            # the set-ups after the first are spread over the run, so that
            # their median does not hang on one moment of the host's speed
            done = len(self.phases.seconds("setup"))
            if done < SETUP_REPS and now - start >= done * self.seconds / SETUP_REPS:
                self.setup()
                now = perf_counter()
            # stop before an iteration that would run past the deadline
            if not it.ok or now + step > deadline:
                return plain, traced_its

    def cells_per_s(self, its: list[Iteration]) -> float:
        """Cells over the summed ``run_experiment`` seconds of ``its``."""
        return sum(it.cells for it in its) / sum(self.phases.seconds("run", it.index)[0] for it in its)


def _steady(values):
    """A value every iteration agrees on (an exact count), else the median."""
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def end_to_end(bench: Bench, plain: list[Iteration]) -> dict[str, float]:
    """``cells_per_s`` is a total over a total: each ``run_experiment``
    lasts seconds, and the host's speed flips between two levels every few
    seconds, which a mean follows smoothly where a median of the samples
    would jump between them. The short phases are medians of their samples,
    because a few of them take several times as long as the rest."""
    phases = bench.phases
    return {
        "setup_s": statistics.median(
            i + s for i, s in zip(phases.seconds("import"), phases.seconds("setup"))
        ),
        "cells_per_s": bench.cells_per_s(plain),
        "resume_s": statistics.median(phases.seconds("resume")),
        "report_s": statistics.median(phases.seconds("report")),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }


def per_layer(bench: Bench, plain: list[Iteration], traced: list[Iteration]) -> dict[str, float]:
    import tracing

    per_iteration = [tracing.layer_metrics(it.tracer, it.wall_s) for it in traced]
    metrics = {name: _steady([m[name] for m in per_iteration]) for name in per_iteration[0]}
    cell_s = [s for it in traced for s in tracing.cell_seconds(it.tracer)]
    metrics.update({
        "runner.cell_s_p50": tracing.percentile(cell_s, 50),
        "runner.cell_s_p90": tracing.percentile(cell_s, 90),
        "runner.cell_samples": len(cell_s),
        "runner.artifact_files": len(bench.first.digests),
        "runner.artifact_bytes": bench.artifact_bytes,
        "trace.overhead_share": 1.0 - bench.cells_per_s(traced) / bench.cells_per_s(plain),
    })
    return metrics


def _write_spans(path: Path, traced: list[Iteration]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["iteration", "name", "start", "end", "parent", "cell_id", "child_s"]) + "\n")
        for it in traced:
            for span in it.tracer.spans:
                fh.write(json.dumps([it.index, *span]) + "\n")


def run_all(workloads, args) -> int:
    """Every workload untraced and then traced, each in its own process;
    exits non-zero if any of them did."""
    code = 0
    for name in workloads:
        for trace in (0, 1):
            code = max(code, subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]).returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload's name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program's per-cell temporary directories stay inside the checkout
    # too, here and in every process started from here
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import morphsplit
    except ImportError as exc:
        print(f"perfbench: cannot import morphsplit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if not Path(morphsplit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: morphsplit came from {morphsplit.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import check
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalog = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    bench.phases.all.append(Phase("import", import_s))
    bench.setup()
    plain, traced = bench.measure(bool(args.trace))

    iterations = plain + traced
    errors = [e for it in iterations for e in it.errors]
    correct = not errors
    attempted = sum(it.cells for it in iterations)
    failed = sum(it.failed if it.ok else it.cells for it in iterations)

    if bench.first is not None:
        for path, digest in sorted(bench.first.digests.items()):
            print(f"artifact {digest} {path}")
        print(f"digest manifests {bench.summary['manifests']}")
        print(f"digest artifacts {bench.summary['artifacts']}")
    for note in bench.notes:
        print(f"note {note}")
    for error in errors:
        print(f"CHECK FAILED {error}")

    print(f"iterations untraced={len(plain)} traced={len(traced)}; cells_failed_share "
          f"{failed / attempted:.4f} share ({failed} of {attempted} cells)")
    for kind in ("import", "setup", "run", "resume", "report"):
        seconds = bench.phases.seconds(kind)
        if seconds:
            print(f"phase {kind} median {statistics.median(seconds):.6g} s, "
                  f"min {min(seconds):.6g}, max {max(seconds):.6g}, n={len(seconds)}")
    print(f"children_peak_rss_mb {bench.children_rss_mb:.1f} MB "
          f"(pool workers, via RUSAGE_CHILDREN after the first iteration)")

    # a run that failed its checks still reports what it measured
    metrics = {}
    if all(it.timed for it in iterations) and bench.first is not None and (traced or not args.trace):
        values = per_layer(bench, plain, traced) if args.trace else end_to_end(bench, plain)
        values["runner.cells_failed_share"] = failed / attempted
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalog}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        _write_spans(OUT / f"spans-{stem}.jsonl.gz", traced)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **result, "env": env, "errors": errors, "notes": bench.notes, "summary": bench.summary,
        "children_peak_rss_mb": bench.children_rss_mb, "f1_tolerance": check.F1_TOLERANCE,
        "phases": [[p.kind, p.seconds, p.iteration] for p in bench.phases.all],
    }, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
