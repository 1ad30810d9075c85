"""scipy and the process pool are imported inside the functions that call
them, not at module top.

Importing the package, and every command that trains no feature model and
fits no regression, loads none of scipy's heavy submodules; the first call
that does need one imports it and computes the same bits as a process that
had it loaded already. Only a pooled run loads the process pool's modules.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from morphsplit import SyntheticSpec, generate_synthetic_corpus
from morphsplit.models import train_crf
from morphsplit.stats import ols_fit, student_t_cdf

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special"}
POOL = {"concurrent.futures.process", "multiprocessing"}


def python(*args, cwd=None):
    """Run a fresh interpreter with the checkout's ``src`` on its path."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# runs ``python -m morphsplit <args>`` and lists sys.modules as it exits
RUN_CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules))))
sys.argv[0] = "morphsplit"
runpy.run_module("morphsplit", run_name="__main__", alter_sys=True)
"""


def loaded(*args, cwd=None) -> set[str]:
    """The modules in ``sys.modules`` when a fresh interpreter running
    ``args`` exits; the list is the last line it prints."""
    return set(json.loads(python(*args, cwd=cwd).stdout.splitlines()[-1]))


def test_package_import_loads_no_heavy_scipy_module():
    modules = loaded("-c", "import json, sys, morphsplit; print(json.dumps(sorted(sys.modules)))")
    assert "morphsplit.models.crf" in modules
    assert not modules & HEAVY


def test_synth_and_random_split_load_no_heavy_scipy_module(tmp_path):
    corpus = tmp_path / "c.tsv"
    synth = loaded("-c", RUN_CLI, "synth", "--output", str(corpus), "--words", "40", cwd=tmp_path)
    split = loaded("-c", RUN_CLI, "split", "--corpus", str(corpus), "--strategy", "random",
                   "--output", str(tmp_path / "split.json"), cwd=tmp_path)
    assert (tmp_path / "split.json").exists()
    assert "morphsplit.cli" in synth and "morphsplit.splitter" in split
    assert not (synth | split) & HEAVY


def test_package_import_synth_and_random_split_load_no_pool_module(tmp_path):
    corpus = tmp_path / "c.tsv"
    package = loaded("-c", "import json, sys, morphsplit; print(json.dumps(sorted(sys.modules)))")
    synth = loaded("-c", RUN_CLI, "synth", "--output", str(corpus), "--words", "40", cwd=tmp_path)
    split = loaded("-c", RUN_CLI, "split", "--corpus", str(corpus), "--strategy", "random",
                   "--output", str(tmp_path / "split.json"), cwd=tmp_path)
    assert "morphsplit.runner" in package and "morphsplit.splitter" in split
    assert not (package | synth | split) & POOL


CRF_WEIGHTS = """
import hashlib, sys
from morphsplit import SyntheticSpec, generate_synthetic_corpus
from morphsplit.models import train_crf
assert "scipy.optimize" not in sys.modules
model = train_crf(generate_synthetic_corpus(SyntheticSpec(60, 6, 4, seed=2)))
print(hashlib.sha256(model.weights.tobytes()).hexdigest())
"""


def test_first_crf_training_of_a_process_gives_the_same_weights():
    model = train_crf(generate_synthetic_corpus(SyntheticSpec(60, 6, 4, seed=2)))
    fresh = python("-c", CRF_WEIGHTS).stdout.strip()
    assert fresh == hashlib.sha256(model.weights.tobytes()).hexdigest()


OLS = """
import json, sys
import numpy as np
from morphsplit.stats import ols_fit, student_t_cdf
assert "scipy.linalg" not in sys.modules
rng = np.random.default_rng(4)
X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
fit = ols_fit(X, X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=30))
print(json.dumps([fit.beta, fit.se, fit.t, fit.p, fit.r_squared, student_t_cdf(1.5, 7)]))
"""


def test_first_regression_of_a_process_gives_the_same_fit():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
    fit = ols_fit(X, X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=30))
    here = [list(fit.beta), list(fit.se), list(fit.t), list(fit.p), fit.r_squared,
            student_t_cdf(1.5, 7)]
    assert json.loads(python("-c", OLS).stdout) == here
