"""
A full experiment run, its reports, and the regression
======================================================

"""

# The runner ties everything together: it enumerates the grid for every
# corpus and strategy, trains and scores all models per cell, and writes a
# resumable ledger plus CSV reports. The whole run is a pure function of
# its configuration, so rerunning it reproduces every artifact byte for
# byte, at any parallelism.
import csv
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from morphsplit import (
    RunConfig,
    SyntheticSpec,
    fit_regression,
    generate_synthetic_corpus,
    regression_records,
    report,
    run_experiment,
)
from morphsplit.corpus import write_corpus

with tempfile.TemporaryDirectory(prefix="morphsplit-demo-") as tmp:
    # A wide inventory relative to the corpus size leaves some morphemes
    # rare, so carving can remove them from the training vocabulary; the
    # overlap covariate then actually varies across cells.
    corpus = generate_synthetic_corpus(SyntheticSpec(num_words=90, stems=40, suffixes=12, seed=4))
    corpus_path = Path(tmp) / "lang.tsv"
    write_corpus(corpus, corpus_path)

    # Two carve fractions, both carve generations, and both residual
    # strategies give the regression both of its binary factors.
    config = RunConfig(
        corpus_paths=(str(corpus_path),),
        output_dir=str(Path(tmp) / "run"),
        fractions=(Fraction(1, 5), Fraction(3, 10)),
        samples_per_fraction=2,
        residual_splits=2,
        models=("crf", "longest_match", "unigram_viterbi"),
        seeds_per_model=1,
        adversarial_budget=1000,
        parallelism=2,
    )
    ledger = run_experiment(config)
    print("cells done:", len(ledger.done_keys()), "failed:", len(ledger.failed_keys()))

    # The output directory now holds per-cell JSON plus pooled CSVs.
    out = Path(config.output_dir)
    for p in sorted(out.rglob("*.csv")):
        print("wrote", p.relative_to(out))

    # Per-cell scores flatten into regression records: one row per cell,
    # model, and scored side, with split-construction covariates attached.
    # The fitted coefficients say how much each construction choice moves F1.
    # regression_records reads the CSV text of each row as is.
    with open(out / "languages" / "lang" / "records.csv", encoding="utf-8") as fh:
        records = regression_records(csv.DictReader(r for r in fh if not r.startswith("#")))
    result = fit_regression(records)
    print(f"n={result.n} r_squared={result.r_squared:.3f}")
    for term, beta, p, stars in zip(
        result.terms, result.beta, result.p, result.stars()
    ):
        if term in ("intercept", "strategy", "new_test_gen"):
            print(f"{term:14s} beta={beta:+.4f} p={p:.3g} {stars}")

    # A run is its directory: the ledger finds its cells next to itself, so
    # a finished run can be moved and still reported on (and resumed).
    moved = Path(tmp) / "moved-run"
    shutil.move(out, moved)
    for p in report(moved, "tables"):
        print("rewrote", p.relative_to(moved))
