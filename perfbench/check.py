"""Output checks for one finished run directory.

Three kinds of check, all made outside the timed region:

* Invariants that hold for every seed: the ledger lists every expected cell
  as done, each cell's train/eval/new-test sets partition the corpus at the
  sizes the plan implies, each manifest's stored distance equals the exact
  total-variation distance recomputed here, each cell's morpheme overlap
  equals the one recomputed from the corpus (so the cell was scored on the
  right words), adversarial searches stay within their budget, and every
  F1 lies in [0, 1].
* Determinism: every repetition, every no-op resume and report, and the
  traced run must leave byte-identical artifacts (all files but
  ``ledger.json``, whose timing fields vary by design).
* Pinned references (``reference.json``, written by ``pin.py``) for the
  seeds listed there: the split manifests must be byte-identical, and each
  model's mean F1 over cells, per table, must be within ``F1_TOLERANCE``,
  and the run must write as many artifact files (a skipped regression
  writes two fewer).
  The tolerance lets a summation-order change that flips a rare boundary
  decision pass, while a wrong model moves a mean by far more. An artifact
  digest that differs from the pinned one is reported, not failed: the
  ROADMAP asks PRs to say when artifact bytes change.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

F1_TOLERANCE = 0.01
F1_TABLES = ("boundary_eval", "boundary_new", "morpheme_eval", "morpheme_new")
REFERENCE_PATH = Path(__file__).with_name("reference.json")
LEDGER_NAME = "ledger.json"


def artifact_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``run_dir`` except the ledger."""
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != LEDGER_NAME
    }


def combined_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{d}  {path}\n" for path, d in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def load_cells(run_dir: Path) -> list[dict]:
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted((run_dir / "cells").rglob("*.json"))
    ]


def manifest_digest(cells: list[dict]) -> str:
    manifests = {
        c["cell"]["cell_id"]: [c["cell"]["carve_manifest"], c["cell"]["residual_manifest"]]
        for c in cells
    }
    canon = json.dumps(manifests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def f1_summary(cells: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Per model and table: [mean F1 over cells, mean of F1 x cell rank].

    The rank-weighted mean changes when results move between cells, which
    the plain mean would not see.
    """
    ordered = sorted(cells, key=lambda c: c["cell"]["cell_id"])
    n = len(ordered)
    out: dict[str, dict[str, list[float]]] = {}
    for model in sorted(ordered[0]["result"]["boundary_eval"]):
        out[model] = {}
        for table in F1_TABLES:
            f1 = [c["result"][table][model][2] for c in ordered]
            out[model][table] = [
                round(sum(f1) / n, 6),
                round(sum((i + 1) * v for i, v in enumerate(f1)) / (n * (n + 1) / 2), 6),
            ]
    return out


def summarize(run_dir: Path) -> dict:
    """Everything the pinned reference stores for one run."""
    cells = load_cells(run_dir)
    digests = artifact_digests(run_dir)
    return {
        "manifests": manifest_digest(cells),
        "artifacts": combined_digest(digests),
        "artifact_files": len(digests),
        "f1": f1_summary(cells),
    }


def _exact_distance(words, side_a, side_b) -> float:
    c_a = Counter(m for i in side_a for m in words[i].morphemes)
    c_b = Counter(m for i in side_b for m in words[i].morphemes)
    t_a, t_b = sum(c_a.values()), sum(c_b.values())
    num = sum(abs(c_a[m] * t_b - c_b[m] * t_a) for m in set(c_a) | set(c_b))
    return float(Fraction(num, 2 * t_a * t_b))


def invariant_errors(run_dir: Path, ledger, corpus, workload) -> list[str]:
    """Seed-independent checks; returns one message per violation."""
    errors = []
    n_cells = workload.expected_cells()
    if ledger.failed_keys():
        errors.append(f"failed cells: {ledger.failed_keys()}")
    if len(ledger.done_keys()) != n_cells:
        errors.append(f"{len(ledger.done_keys())} cells done, expected {n_cells}")
    cells = load_cells(run_dir)
    if len(cells) != n_cells:
        errors.append(f"{len(cells)} cell artifacts, expected {n_cells}")
    words = list(corpus)
    n = len(words)
    for payload in cells:
        cell = payload["cell"]
        cid = cell["cell_id"]
        train, eval_, new = (set(cell[k]) for k in ("train_indices", "eval_indices", "new_test_indices"))
        if train & eval_ or train & new or eval_ & new or train | eval_ | new != set(range(n)):
            errors.append(f"{cid}: member sets do not partition the corpus")
        frac = Fraction(cell["fraction"])
        n_res = n - round(n * frac)
        # the workloads keep the default 9:1 residual ratio: eval is a tenth
        if abs(len(new) - round(n * frac)) > 1 or abs(len(eval_) - round(n_res / 10)) > 1:
            errors.append(f"{cid}: set sizes {len(train)}/{len(eval_)}/{len(new)} off plan")
        carve, residual = cell["carve_manifest"], cell["residual_manifest"]
        residual_words = [words[i] for i in carve["indices_a"]]
        for manifest, universe in ((carve, words), (residual, residual_words)):
            exact = _exact_distance(universe, manifest["indices_a"], manifest["indices_b"])
            if manifest["achieved_distance"] != exact:
                errors.append(
                    f"{cid}: {manifest['stage']} distance {manifest['achieved_distance']!r} "
                    f"!= exact {exact!r}"
                )
            used = manifest["budget_used"]
            if manifest["strategy"] == "adversarial" and not 0 < used <= workload.adversarial_budget:
                errors.append(f"{cid}: {manifest['stage']} used {used} of {workload.adversarial_budget}")
            if manifest["strategy"] == "random" and used != 0:
                errors.append(f"{cid}: random {manifest['stage']} reports budget_used {used}")
        # scored on the right words: the overlap recomputed from this corpus
        eval_types = {m for i in eval_ for m in words[i].morphemes}
        train_types = {m for i in train for m in words[i].morphemes}
        overlap = len(eval_types & train_types) / len(eval_types)
        if payload["result"]["overlap"] != overlap:
            errors.append(f"{cid}: overlap {payload['result']['overlap']!r} != {overlap!r} recomputed")
        for table in F1_TABLES:
            for model, (p, r, f1) in payload["result"][table].items():
                if not all(0.0 <= v <= 1.0 for v in (p, r, f1)):
                    errors.append(f"{cid}: {table} {model} triple {p, r, f1} outside [0, 1]")
    return errors[:20]


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_errors(summary: dict, pinned: dict) -> tuple[list[str], list[str]]:
    """(errors, notes) from comparing a run's summary with its pinned one."""
    errors, notes = [], []
    if summary["manifests"] != pinned["manifests"]:
        errors.append(
            f"split manifests differ from the pinned reference "
            f"({summary['manifests'][:12]} vs {pinned['manifests'][:12]})"
        )
    if summary["artifact_files"] != pinned["artifact_files"]:
        errors.append(f"{summary['artifact_files']} artifact files, pinned {pinned['artifact_files']}")
    if summary["f1"].keys() != pinned["f1"].keys():
        errors.append(f"models {sorted(summary['f1'])} differ from pinned {sorted(pinned['f1'])}")
    else:
        for model, tables in pinned["f1"].items():
            for table, values in tables.items():
                got = summary["f1"][model][table]
                worst = max(abs(a - b) for a, b in zip(got, values))
                if worst > F1_TOLERANCE:
                    errors.append(f"{model} {table} F1 {got} vs pinned {values} (tolerance {F1_TOLERANCE})")
                elif worst:
                    notes.append(f"{model} {table} F1 moved by {worst:.2g} (within {F1_TOLERANCE})")
    if summary["artifacts"] != pinned["artifacts"]:
        notes.append("artifact bytes differ from the pinned run")
    return errors, notes
