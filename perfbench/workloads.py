"""The three benchmark workloads, each a pure function of the workload seed.

The seed feeds both the synthetic corpus (``SyntheticSpec.seed``) and the
run's ``master_seed``; the program only ever sees the corpus file written
from it. Why each workload exists, which layer it stresses and which it
bypasses is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from fractions import Fraction

from morphsplit import RunConfig, SyntheticSpec

CHEAP_MODELS = ("longest_match", "unigram_viterbi")
ALL_MODELS = ("boundary_logistic", "crf", "longest_match", "unigram_viterbi")
BOTH = ("random", "adversarial")

#: A 25th of the program's default budget of 50,000 swap evaluations. Every
#: search still spends its whole budget at the same cost per evaluation, but
#: one run plus its resume takes about 2.5 s instead of about 45 s, which is
#: what lets a dozen repetitions fit in one benchmark run.
ADVERSARIAL_GRID_BUDGET = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    num_words: int
    stems: int
    suffixes: int
    fractions: tuple[Fraction, ...]
    samples_per_fraction: int
    residual_splits: int
    new_test_generations: tuple[str, ...]
    residual_strategies: tuple[str, ...]
    models: tuple[str, ...]
    seeds_per_model: int
    adversarial_budget: int
    pool: bool
    # No-op resumes and report trios timed after each run: sized so that
    # the cheap phases still give several samples per iteration.
    resume_reps: int
    report_reps: int

    def spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            num_words=self.num_words, stems=self.stems, suffixes=self.suffixes, seed=seed
        )

    def parallelism(self, traced: bool) -> int:
        """``nproc`` for pool workloads, but 1 when traced: spans made in
        pool workers would be lost."""
        return (os.cpu_count() or 1) if self.pool and not traced else 1

    def config(self, seed: int, corpus_path: str, output_dir: str, parallelism: int) -> RunConfig:
        return RunConfig(
            corpus_paths=(corpus_path,),
            output_dir=output_dir,
            fractions=self.fractions,
            samples_per_fraction=self.samples_per_fraction,
            residual_splits=self.residual_splits,
            new_test_generations=self.new_test_generations,
            residual_strategies=self.residual_strategies,
            models=self.models,
            seeds_per_model=self.seeds_per_model,
            master_seed=seed,
            adversarial_budget=self.adversarial_budget,
            parallelism=parallelism,
        )

    def warmup_config(self, seed: int, corpus_path: str, output_dir: str) -> RunConfig:
        """One random/random cell with the workload's models, inline."""
        return dataclasses.replace(
            self.config(seed, corpus_path, output_dir, parallelism=1),
            fractions=self.fractions[:1],
            samples_per_fraction=1,
            residual_splits=1,
            new_test_generations=("random",),
            residual_strategies=("random",),
            seeds_per_model=1,
        )

    def expected_cells(self) -> int:
        return (
            len(self.fractions)
            * self.samples_per_fraction
            * self.residual_splits
            * len(self.new_test_generations)
            * len(self.residual_strategies)
        )


WORKLOADS = {
    w.name: w
    for w in (
        # splitter-bound: 16 cells, 12 adversarial searches, every carve
        # computed twice, grid built serially in the parent before the pool.
        Workload(
            name="adversarial-grid",
            num_words=400, stems=30, suffixes=8,
            fractions=(Fraction(1, 5),), samples_per_fraction=2, residual_splits=2,
            new_test_generations=BOTH, residual_strategies=BOTH,
            models=CHEAP_MODELS, seeds_per_model=1,
            adversarial_budget=ADVERSARIAL_GRID_BUDGET, pool=True,
            resume_reps=1, report_reps=10,
        ),
        # models-bound: 2 cells x 4 models x 3 seeds = 24 trainings, 8 of
        # them distinct; the grid is two random splits. Two cells, not more,
        # so that a run holds about ten iterations and its resume and report
        # samples are spread over the whole run rather than bunched in a few
        # moments of it.
        Workload(
            name="train-cells",
            num_words=400, stems=30, suffixes=8,
            fractions=(Fraction(1, 5),), samples_per_fraction=1, residual_splits=2,
            new_test_generations=("random",), residual_strategies=("random",),
            models=ALL_MODELS, seeds_per_model=3,
            adversarial_budget=ADVERSARIAL_GRID_BUDGET, pool=False,
            resume_reps=10, report_reps=10,
        ),
        # runner/evaluation/artifact-bound: 120 cheap cells on a corpus whose
        # inventory is wide for its size, so overlap varies and the
        # regression is fitted; both generations are needed for that, since
        # a constant new_test_gen column is collinear with the intercept.
        Workload(
            name="many-cells",
            num_words=90, stems=40, suffixes=12,
            fractions=(Fraction(1, 5), Fraction(3, 10)), samples_per_fraction=5,
            residual_splits=3,
            new_test_generations=BOTH, residual_strategies=BOTH,
            models=CHEAP_MODELS, seeds_per_model=1,
            adversarial_budget=50, pool=False,
            resume_reps=2, report_reps=3,
        ),
    )
}
