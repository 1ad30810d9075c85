"""The benchmark tracer's contract with the library: the names it rebinds.

``perfbench/tracing.py`` counts optimizer runs by rebinding ``minimize`` in
``morphsplit.models.crf`` and ``morphsplit.models.baselines``; a training
that stops calling it through those names would go uncounted.
"""

import importlib.util
from pathlib import Path

from morphsplit import runner
from morphsplit.corpus import SyntheticSpec, generate_synthetic_corpus
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
