"""Acceptance gate: eight executable criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion states its own numeric tolerance and, where one applies, a
wall-clock budget measured inside the test.
"""

import functools
import itertools
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from morphsplit.corpus import (
    Label,
    SegmentedWord,
    SyntheticSpec,
    decode_labels,
    encode_labels,
    generate_synthetic_corpus,
    graphemes,
    write_corpus,
)
from morphsplit.evaluation import CellResult, ranking_consistency
from morphsplit.models import FeatureTemplate, extract_features
from morphsplit.models.baselines import (
    BoundaryLogisticModel,
    gap_features,
    logistic_objective,
)
from morphsplit.models.crf import CrfModel, crf_gradient, crf_log_partition, viterbi_raw
from morphsplit.runner import RunConfig, compute_cell, enumerate_cells, run_experiment
from morphsplit.splitter import (
    ExperimentPlan,
    adversarial_split,
    build_grid,
    grid_units,
    random_split,
)
from morphsplit.stats import (
    RegressionRecord,
    build_design_matrix,
    fit_regression,
    significance_stars,
    student_t_cdf,
)

SMALL = FeatureTemplate(max_ngram=2, window=1)


def verdict(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def criterion(n: int):
    """Print the FAIL half of the verdict when a criterion's check raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                first = str(exc).strip().splitlines()[0] if str(exc) else repr(exc)
                print(f"\nACCEPTANCE {n}: FAIL - {first}")
                raise

        return run

    return wrap


def random_crf(surfaces, seed, template=SMALL, scale=0.5, l2=0.0):
    index = {}
    for s in surfaces:
        for pos in range(len(graphemes(s))):
            for f in sorted(extract_features(s, pos, template)):
                index.setdefault(f, len(index))
    rng = np.random.default_rng(seed)
    n = len(index) * 6 + 36
    weights = scale * rng.standard_normal(n) if scale else np.zeros(n)
    return CrfModel(
        feature_index=index,
        weights=weights,
        template=template,
        l2_lambda=l2,
    )


def path_scores(model, surface, paths):
    """Score each row of ``paths`` by direct summation (oracle arithmetic)."""
    E = model.emissions(surface)
    T = model.transition
    L = len(E)
    s = T[0, paths[:, 0]] + T[paths[:, -1], 1]
    for i in range(L):
        s = s + E[i, paths[:, i]]
    for i in range(L - 1):
        s = s + T[paths[:, i], paths[:, i + 1]]
    return s


@criterion(1)
def test_criterion_1_crf_oracle_suite():
    """Forward log-partition and Viterbi vs exhaustive enumeration."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    letters = list("abcde")
    for trial in range(100):
        length = int(rng.integers(1, 7))
        surface = "".join(rng.choice(letters) for _ in range(length))
        model = random_crf(
            [surface], seed=int(rng.integers(2**31)), scale=0.7
        )
        paths = np.array(
            list(itertools.product(range(6), repeat=length)), dtype=np.int64
        )
        scores = path_scores(model, surface, paths)

        enum_logz = float(logsumexp(scores))
        got_logz = crf_log_partition(model, surface)
        assert abs(got_logz - enum_logz) <= 1e-9 * max(1.0, abs(enum_logz))

        ids, reported = viterbi_raw(model, surface)
        enum_max = float(scores.max())
        decoded_row = np.array([[int(x) for x in ids]], dtype=np.int64)
        decoded_score = float(path_scores(model, surface, decoded_row)[0])
        # the decoded path attains the enumerated maximum exactly
        assert decoded_score == enum_max
        assert abs(reported - enum_max) <= 1e-9 * max(1.0, abs(enum_max))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    verdict(
        1,
        "CRF log-partition within 1e-9 relative and Viterbi exactly optimal "
        f"on 100 enumerated (model, word) pairs in {elapsed:.1f}s (< 10s)",
    )


def random_segmentation(rng, surface):
    g = graphemes(surface)
    cuts = [i for i in range(1, len(g)) if rng.random() < 0.5]
    bounds = [0] + cuts + [len(g)]
    morphemes = tuple("".join(g[a:b]) for a, b in zip(bounds, bounds[1:]))
    return SegmentedWord(surface=surface, morphemes=morphemes)


def central_difference(value_at, weights, h=1e-5):
    num = np.empty_like(weights)
    for i in range(len(weights)):
        orig = weights[i]
        weights[i] = orig + h
        fp = value_at()
        weights[i] = orig - h
        fm = value_at()
        weights[i] = orig
        num[i] = (fp - fm) / (2.0 * h)
    return num


def assert_gradients_close(analytic, numeric, rel=1e-4):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    worst = float(np.max(np.abs(analytic - numeric) / scale))
    assert worst <= rel, f"worst relative gradient error {worst:.3g}"
    return worst


@criterion(2)
def test_criterion_2_gradient_checks():
    """CRF and boundary-logistic gradients vs central finite differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    letters = list("abcd")
    worst = 0.0

    def batch_of(count, min_len, max_len):
        words = []
        for _ in range(count):
            length = int(rng.integers(min_len, max_len + 1))
            surface = "".join(rng.choice(letters) for _ in range(length))
            words.append(random_segmentation(rng, surface))
        return words

    for b in range(5):
        words = batch_of(3, 1, 3)
        model = random_crf(
            [w.surface for w in words],
            seed=300 + b,
            scale=0.4,
            l2=0.1 if b % 2 else 0.0,
        )
        _, analytic = crf_gradient(model, words)
        numeric = central_difference(
            lambda: crf_gradient(model, words)[0], model.weights
        )
        worst = max(worst, assert_gradients_close(analytic, numeric))

    # gap features need at least one interior gap, hence length >= 2
    for b in range(5):
        words = batch_of(3, 2, 4)
        index = {}
        for w in words:
            n = len(graphemes(w.surface))
            for gap in range(1, n):
                for f in sorted(gap_features(w.surface, gap, SMALL)):
                    index.setdefault(f, len(index))
        weights = 0.4 * np.random.default_rng(400 + b).standard_normal(len(index))
        model = BoundaryLogisticModel(
            feature_index=index,
            weights=weights,
            template=SMALL,
            l2_lambda=0.1 if b % 2 else 0.0,
        )
        _, analytic = logistic_objective(model, words)
        numeric = central_difference(
            lambda: logistic_objective(model, words)[0], model.weights
        )
        worst = max(worst, assert_gradients_close(analytic, numeric))

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    verdict(
        2,
        "CRF and boundary-logistic gradients match central differences "
        f"(h=1e-5) within 1e-4 relative on 10 batches; worst {worst:.2e}; "
        f"{elapsed:.1f}s (< 30s)",
    )


def tv_distance(word_counters, side_a, side_b):
    ca, cb = Counter(), Counter()
    for i in side_a:
        ca.update(word_counters[i])
    for i in side_b:
        cb.update(word_counters[i])
    ta, tb = sum(ca.values()), sum(cb.values())
    keys = set(ca) | set(cb)
    return 0.5 * sum(abs(ca[k] / ta - cb[k] / tb) for k in keys)


@criterion(3)
def test_criterion_3_adversarial_split_optimality():
    """Unlimited-budget hill climbing vs exhaustive partition search."""
    t0 = time.perf_counter()
    ratios = (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))
    hits = 0
    worst_gap = 0.0
    for i in range(100):
        n = 4 + (i % 9)
        corpus = generate_synthetic_corpus(
            SyntheticSpec(num_words=n, stems=3, suffixes=2, seed=2000 + i)
        )
        ratio = ratios[i % 3]
        rnd = random_split(corpus, ratio, seed=i)
        adv = adversarial_split(corpus, ratio, seed=i, budget=None)
        assert adv.achieved_distance >= rnd.achieved_distance

        word_counters = [Counter(w.morphemes) for w in corpus]
        recount = tv_distance(word_counters, adv.indices_a, adv.indices_b)
        assert abs(recount - adv.achieved_distance) <= 1e-12

        share = Fraction(ratio.denominator, ratio.numerator + ratio.denominator)
        n_b = round(n * share)
        everyone = set(range(n))
        best = 0.0
        for combo in itertools.combinations(range(n), n_b):
            side_b = set(combo)
            best = max(
                best, tv_distance(word_counters, everyone - side_b, side_b)
            )
        gap = best - adv.achieved_distance
        assert gap >= -1e-12
        if gap <= 1e-9:
            hits += 1
        else:
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    assert hits >= 90
    assert elapsed < 60.0
    verdict(
        3,
        f"adversarial split reached the exhaustive optimum on {hits}/100 "
        "corpora (>= 90 required) and never fell below its seed-matched "
        f"random split; largest stall gap {worst_gap:.2e}; "
        f"{elapsed:.1f}s (< 60s)",
    )


@criterion(4)
def test_criterion_4_grid_cardinality():
    """Default plan on 400 words: 150 cells per strategy, exact partitions."""
    corpus = generate_synthetic_corpus(SyntheticSpec(num_words=400, seed=0))
    plan = ExperimentPlan()
    units = grid_units(plan, ("random",))
    assert sum(len(cells) for _, _, cells in units) == 5 * 10 * 3 == 150
    full = list(range(400))
    for strategy in ("random", "adversarial"):
        grid = build_grid(corpus, plan, strategy)
        assert len(grid) == 150
        assert len({cell.cell_id for cell in grid}) == 150
        for cell in grid:
            members = sorted(
                cell.train_indices + cell.eval_indices + cell.new_test_indices
            )
            assert members == full
            assert cell.train_indices
            assert cell.eval_indices
            assert cell.new_test_indices
    verdict(
        4,
        "default plan yields exactly 150 disjoint exhaustive 3-way "
        "partitions per residual strategy on a 400-word corpus",
    )


QUAL_STEMS = (
    "aoer", "errl", "iaos", "iel", "irp", "irs", "lespr", "ltei", "oiipr",
    "olet", "oopa", "oris", "otr", "plsol", "pospa", "pppoa", "rpl", "rsoes",
    "sare", "seoe", "ses", "sipa", "srelo", "ssi", "sslt", "sss", "tla",
    "tot", "trltl", "tsai",
)
QUAL_SUFFIXES = ("a", "asi", "ilp", "l", "ll", "p", "si", "st")
QUAL_MODELS = ("boundary_logistic", "crf", "longest_match", "unigram_viterbi")


@criterion(5)
def test_criterion_5_qualitative_replication(tmp_path):
    """Direction-only findings on an ambiguous agglutinative language.

    (a) the CRF's mean |eval F1 - new F1| is larger under adversarial
    residual splits, (b) mean new-test F1 under random splits is >= the
    adversarial value for at least 3 of 4 models, and (c) ranking
    consistency under random splits is >= the adversarial value; each
    statistic pooled over 5 master seeds.
    """
    t0 = time.perf_counter()
    assert len(QUAL_STEMS) >= 30 and len(QUAL_SUFFIXES) >= 8
    spec = SyntheticSpec(
        num_words=500,
        stems=QUAL_STEMS,
        suffixes=QUAL_SUFFIXES,
        seed=7,
        language_tag="qual",
    )
    corpus = generate_synthetic_corpus(spec)
    assert len(corpus) >= 500
    path = tmp_path / "qual.tsv"
    write_corpus(corpus, path)

    cells = {"random": [], "adversarial": []}
    for master in range(5):
        cfg = RunConfig(
            corpus_paths=(str(path),),
            output_dir=str(tmp_path / f"run{master}"),
            fractions=(Fraction(3, 10),),
            samples_per_fraction=4,
            residual_splits=2,
            new_test_generations=("random",),
            residual_strategies=("random", "adversarial"),
            models=QUAL_MODELS,
            seeds_per_model=1,
            master_seed=master,
        )
        corpora = [(str(path), corpus)]
        for _, _, cell in enumerate_cells(cfg, corpora):
            payload = compute_cell(corpus, cell, cfg)
            cells[cell.residual_strategy].append(
                CellResult.from_dict(payload["result"])
            )
    assert len(cells["random"]) == len(cells["adversarial"]) == 5 * 4 * 2

    def mean(values):
        return sum(values) / len(values)

    def crf_gap(strategy):
        return mean(
            [
                abs(c.boundary_eval["crf"].f1 - c.boundary_new["crf"].f1)
                for c in cells[strategy]
            ]
        )

    gap_random, gap_adversarial = crf_gap("random"), crf_gap("adversarial")
    assert gap_adversarial > gap_random

    wins = 0
    for m in QUAL_MODELS:
        new_random = mean([c.boundary_new[m].f1 for c in cells["random"]])
        new_adversarial = mean(
            [c.boundary_new[m].f1 for c in cells["adversarial"]]
        )
        wins += new_random >= new_adversarial
    assert wins >= 3

    cons_random = ranking_consistency(cells["random"])
    cons_adversarial = ranking_consistency(cells["adversarial"])
    assert cons_random >= cons_adversarial

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    verdict(
        5,
        "direction-only replication holds over 5 master seeds: CRF |gap| "
        f"adversarial {gap_adversarial:.3f} > random {gap_random:.3f}; "
        f"new-test F1 random >= adversarial for {wins}/4 models; ranking "
        f"consistency {cons_random:.2f} >= {cons_adversarial:.2f}; "
        f"{elapsed:.0f}s (< 900s)",
    )


@criterion(6)
def test_criterion_6_regression_engine():
    """Coefficient recovery, star thresholds, and t-CDF vs mpmath."""
    rng = np.random.default_rng(606)
    archs = ("crf", "lstm", "trm", "unigram")
    base = [
        RegressionRecord(
            f1=0.5,
            strategy=int(rng.integers(0, 2)),
            new_test_gen=int(rng.integers(0, 2)),
            morpheme_overlap=float(rng.uniform(0.05, 0.95)),
            word_count_ratio=float(rng.uniform(0.5, 2.0)),
            morph_per_word_ratio=float(rng.uniform(0.8, 1.6)),
            morph_type_per_word_ratio=float(rng.uniform(0.7, 1.4)),
            model_arch=archs[int(rng.integers(0, 4))],
        )
        for i in range(200)
    ]
    assert {r.strategy for r in base} == {0, 1}
    assert len({r.model_arch for r in base}) == 4
    X, _, terms = build_design_matrix(base)
    generating = {
        "intercept": 0.45,
        "strategy": 0.03,
        "new_test_gen": -0.02,
        "morpheme_overlap": 0.06,
        "word_count_ratio": 0.012,
        "morph_per_word_ratio": 0.02,
        "morph_type_per_word_ratio": -0.018,
        "strategy:new_test_gen": 0.008,
        "strategy:morpheme_overlap": -0.01,
        "strategy:word_count_ratio": 0.004,
        "strategy:morph_per_word_ratio": 0.006,
        "strategy:morph_type_per_word_ratio": -0.005,
    }
    beta_true = np.array(
        [
            generating.get(t, 0.02 if t.endswith("]") else 0.0)
            for t in terms
        ]
    )
    y = X @ beta_true + 1e-8 * rng.standard_normal(len(base))
    assert float(y.min()) > 0.0 and float(y.max()) < 1.0
    records = [replace(r, f1=float(v)) for r, v in zip(base, y)]

    result = fit_regression(records)
    assert result.terms == terms
    fitted = np.asarray(result.beta)
    beta_oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert float(np.max(np.abs(fitted - beta_oracle))) <= 1e-6
    assert float(np.max(np.abs(fitted - beta_true))) <= 1e-6

    star_cases = [
        (0.0, "***"), (1e-10, "***"), (0.0005, "***"), (0.00099, "***"),
        (0.001, "**"), (0.002, "**"), (0.005, "**"), (0.009, "**"),
        (0.0099, "**"), (0.01, "*"), (0.02, "*"), (0.03, "*"),
        (0.049, "*"), (0.0499, "*"), (0.05, ""), (0.1, ""), (0.5, ""),
        (0.9, ""), (0.99, ""), (1.0, ""),
    ]
    assert len(star_cases) == 20
    for p, stars in star_cases:
        assert significance_stars(p) == stars, f"p={p}"

    import mpmath

    mpmath.mp.dps = 50

    def reference_cdf(t, dof):
        x = mpmath.mpf(dof) / (mpmath.mpf(dof) + mpmath.mpf(t) ** 2)
        tail = mpmath.betainc(
            mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True
        ) / 2
        return float(tail if t < 0 else 1 - tail)

    worst = 0.0
    for dof in (1, 2, 5, 10, 30, 120):
        for t in (0.0, 0.37, 0.5, 2.1, 7.3, -0.37, -2.1, -7.3):
            got = student_t_cdf(t, dof)
            want = reference_cdf(t, dof)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    verdict(
        6,
        "regression recovers generating coefficients within 1e-6 of both "
        "the truth and a normal-equations oracle; 20/20 star thresholds "
        f"agree; t-CDF within {worst:.1e} of a 50-digit oracle (<= 1e-8)",
    )


def collect_run_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in Path(root).rglob("*")
        if p.is_file() and p.name != "ledger.json"
    }


@criterion(7)
def test_criterion_7_determinism_and_parallelism(tmp_path):
    """Rerun and parallelism-8 byte-identity of every report artifact."""
    t0 = time.perf_counter()
    corpus = generate_synthetic_corpus(SyntheticSpec(num_words=80, seed=9))
    path = tmp_path / "det.tsv"
    write_corpus(corpus, path)

    def run(out, parallelism):
        cfg = RunConfig(
            corpus_paths=(str(path),),
            output_dir=str(tmp_path / out),
            fractions=(Fraction(3, 10),),
            samples_per_fraction=2,
            residual_splits=1,
            new_test_generations=("random", "adversarial"),
            residual_strategies=("random", "adversarial"),
            models=QUAL_MODELS,
            seeds_per_model=2,
            adversarial_budget=500,
            parallelism=parallelism,
        )
        ledger = run_experiment(cfg)
        assert ledger.failed_keys() == []
        return collect_run_bytes(cfg.output_dir)

    first = run("first", 1)
    second = run("second", 1)
    pooled = run("pooled", 8)
    assert first.keys() == second.keys() == pooled.keys()
    assert first == second
    assert first == pooled
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(
        7,
        "rerun and parallelism 1-vs-8 byte-identical across "
        f"{len(first)} artifact files (8 cells, 4 models, 2 seeds); "
        f"{elapsed:.1f}s (< 60s)",
    )


@criterion(8)
def test_criterion_8_round_trip_and_repair():
    """Label codec round-trip and total repair on 10,000 cases each."""
    corpus = generate_synthetic_corpus(
        SyntheticSpec(
            num_words=10_000, stems=80, suffixes=15, max_suffixes=3, seed=11
        )
    )
    assert len(corpus) == 10_000
    for word in corpus:
        assert decode_labels(word.surface, encode_labels(word)) == word

    rng = np.random.default_rng(808)
    for i in range(10_000):
        surface = corpus[i].surface
        length = len(graphemes(surface))
        labels = tuple(
            Label(int(v)) for v in rng.integers(0, 6, size=length + 2)
        )
        decoded = decode_labels(surface, labels)
        assert "".join(decoded.morphemes) == surface
    verdict(
        8,
        "encode/decode round-trip on 10,000 synthetic words and total "
        "repair on 10,000 random label sequences",
    )
