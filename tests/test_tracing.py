"""The benchmark tracer's contract with the library: the names it rebinds.

``perfbench/tracing.py`` counts optimizer runs by rebinding ``minimize`` in
``morphsplit.models.crf`` and ``morphsplit.models.baselines``, and measures
split construction and cells by rebinding ``runner.build_grid`` and
``runner.compute_cell``; work that stops going through those names would go
uncounted.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from morphsplit import runner
from morphsplit.corpus import SyntheticSpec, generate_synthetic_corpus, write_corpus
from morphsplit.models import TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_both_optimizers_and_restores_every_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer.patches()]
    corpus = generate_synthetic_corpus(SyntheticSpec(40, 10, 5, seed=2))
    with tracing.installed(tracer):
        for name in ("crf", "boundary_logistic"):
            runner.train_segmenter(name, corpus, config=TrainConfig(max_iterations=3))
    assert [t[0] for t in tracer.trainings] == ["crf", "boundary_logistic"]
    assert tracer.optim["crf"] and tracer.optim["boundary_logistic"]
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} was not restored"


def test_traced_run_spans_one_grid_build_per_unit_and_one_span_per_cell(tmp_path):
    tracing = load_tracing()
    corpus_path = tmp_path / "synA.tsv"
    write_corpus(generate_synthetic_corpus(SyntheticSpec(num_words=60, seed=3)), corpus_path)
    # one generation and two samples: two work units (carves) of two cells
    config = runner.RunConfig(
        corpus_paths=(str(corpus_path),), output_dir=str(tmp_path / "run"),
        fractions=(Fraction(3, 10),), samples_per_fraction=2, residual_splits=2,
        new_test_generations=("random",), residual_strategies=("random",),
        models=("longest_match",), seeds_per_model=1,
    )
    tracer = tracing.Tracer()
    start = perf_counter()
    with tracing.installed(tracer):
        ledger = runner.run_experiment(config)
    wall_s = perf_counter() - start
    assert len(ledger.done_keys()) == 4
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["splitter.build_grid"] == 2
    assert spans["runner.compute_cell"] == 4
    assert tracing.layer_metrics(tracer, wall_s)["splitter.grid_s"] > 0
