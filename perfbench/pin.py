"""Pin the reference outputs that ``check.py`` compares runs against.

    python3 perfbench/pin.py --seeds 0-99,7919

For every workload and seed this runs ``run_experiment`` once, checks the
seed-independent invariants, and stores the manifest digest, the artifact
digest and the per-model F1 means in ``perfbench/reference.json``. Re-pin
only when the benchmark's workloads change, or when a change to the program
is meant to change its outputs and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / f"pin-{os.getpid()}"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99,7919")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import check
    from morphsplit import generate_synthetic_corpus, run_experiment
    from morphsplit.corpus import write_corpus
    from workloads import WORKLOADS

    pinned: dict[str, dict] = {}
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(WORK, ignore_errors=True)
            # a fresh path per seed: the runner caches parsed corpora by path
            # for the life of the process, so a path rewritten with another
            # corpus would be read stale
            work = WORK / name / str(seed)
            work.mkdir(parents=True)
            corpus = generate_synthetic_corpus(workload.spec(seed))
            corpus_path = work / "lang.tsv"
            write_corpus(corpus, corpus_path)
            run_dir = work / "run"
            ledger = run_experiment(workload.config(
                seed, str(corpus_path), str(run_dir), workload.parallelism(traced=False)
            ))
            errors = check.invariant_errors(run_dir, ledger, corpus, workload)
            if errors:
                print(f"{name} seed {seed}: not pinned: {errors}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = check.summarize(run_dir)
            print(f"pinned {name} seed {seed}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    reference = check.load_reference()
    for name, entries in pinned.items():
        reference.setdefault(name, {}).update(entries)
    # one line per workload and seed, so a re-pin diffs line by line
    blocks = []
    for name in sorted(reference):
        entries = sorted(reference[name].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}" for seed, entry in entries)
        blocks.append(f"{json.dumps(name)}: {{\n{lines}\n}}")
    check.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
