"""Partition strategies, distribution distances, manifests, and grids."""

import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit import corpus as C
from morphsplit import splitter as S
from morphsplit.errors import (
    CapacityError,
    DomainError,
    SplitError,
    ValidationError,
)


def toy_corpus(n=10, seed=0, stems=6, suffixes=4):
    spec = C.SyntheticSpec(num_words=n, stems=stems, suffixes=suffixes, seed=seed)
    return C.generate_synthetic_corpus(spec)


class TestRatioHelpers:
    def test_parse_and_format(self):
        assert S.parse_ratio("9:1") == Fraction(9, 1)
        assert S.format_ratio(Fraction(9, 1)) == "9:1"
        assert S.share_b(Fraction(9, 1)) == Fraction(1, 10)
        assert S.share_b(Fraction(7, 3)) == Fraction(3, 10)

    @pytest.mark.parametrize("bad", ["9", "a:b", "0:1", "1:0", "1:2:3", "-1:2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            S.parse_ratio(bad)

    def test_as_fraction_decimal_floats(self):
        assert S.as_fraction(0.1) == Fraction(1, 10)
        assert S.as_fraction("3/10") == Fraction(3, 10)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = S.derive_seed(7, "carve", "random", "1/10", 0)
        assert a == S.derive_seed(7, "carve", "random", "1/10", 0)
        assert a != S.derive_seed(7, "carve", "random", "1/10", 1)
        assert a != S.derive_seed(8, "carve", "random", "1/10", 0)
        assert 0 <= a < 2**64


class TestDistributions:
    def test_hand_counts(self):
        words = (
            C.SegmentedWord("walked", ("walk", "ed")),
            C.SegmentedWord("walks", ("walk", "s")),
        )
        dist = S.morpheme_distribution(words)
        assert dist.as_dict() == {"walk": 0.5, "ed": 0.25, "s": 0.25}

    def test_single_word(self):
        dist = S.morpheme_distribution((C.SegmentedWord("ab", ("a", "b")),))
        assert dist.as_dict() == {"a": 0.5, "b": 0.5}

    def test_recount_against_counter(self):
        corpus = toy_corpus(n=50, seed=3, stems=10, suffixes=5)
        dist = S.morpheme_distribution(corpus)
        counts = Counter(m for w in corpus for m in w.morphemes)
        total = sum(counts.values())
        assert set(dist.support) == set(counts)
        for m, p in dist.as_dict().items():
            assert p == pytest.approx(counts[m] / total, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            S.morpheme_distribution(())

    def test_distance_identical_disjoint_half(self):
        p = S.MorphemeDistribution(("a", "b"), (0.5, 0.5))
        q = S.MorphemeDistribution(("c",), (1.0,))
        r = S.MorphemeDistribution(("a", "c"), (0.5, 0.5))
        assert S.distribution_distance(p, p) == 0.0
        assert S.distribution_distance(p, q) == pytest.approx(1.0)
        assert S.distribution_distance(p, r) == pytest.approx(0.5)

    def test_distribution_validation(self):
        with pytest.raises(ValidationError):
            S.MorphemeDistribution(("b", "a"), (0.5, 0.5))
        with pytest.raises(ValidationError):
            S.MorphemeDistribution(("a",), (0.5,))


class TestSplitDistance:
    def test_matches_float_distribution_path(self):
        corpus = toy_corpus(n=30, seed=6, stems=9, suffixes=4)
        a = tuple(range(0, 30, 2))
        b = tuple(range(1, 30, 2))
        exact = S.split_distance(corpus, a, b)
        floaty = S.distribution_distance(
            S.morpheme_distribution(corpus.subset(a)),
            S.morpheme_distribution(corpus.subset(b)),
        )
        assert exact == pytest.approx(floaty, abs=1e-12)

    def test_exact_on_known_partition(self):
        words = (
            C.SegmentedWord("ax", ("a", "x")),
            C.SegmentedWord("ay", ("a", "y")),
            C.SegmentedWord("bx", ("b", "x")),
        )
        corpus = C.Corpus(words)
        # {a: 1/2 vs 0, b: 0 vs 1/2, x: 1/4 vs 1/2, y: 1/4 vs 0} halved
        assert S.split_distance(corpus, (0, 1), (2,)) == 0.75
        assert S.split_distance(corpus, (0,), (1,)) == 0.5

    def test_disjoint_sides_reach_one(self):
        corpus = two_family_corpus()
        assert S.split_distance(corpus, tuple(range(6)), tuple(range(6, 12))) == 1.0

    def test_empty_side_rejected(self):
        corpus = toy_corpus(n=4)
        with pytest.raises(DomainError):
            S.split_distance(corpus, (), (0, 1, 2, 3))

    def test_positions_index_like_a_sequence(self):
        corpus = toy_corpus(n=12, seed=2)
        assert S.split_distance(corpus, (0, -1, -5), (1, 2)) == S.split_distance(
            corpus, (0, 11, 7), (1, 2)
        )
        for side in ((0, 12), (-13, 1)):
            with pytest.raises(IndexError):
                S.split_distance(corpus, (3,), side)


class TestRandomSplit:
    def test_sizes_and_determinism(self):
        corpus = toy_corpus(n=10)
        m1 = S.random_split(corpus, Fraction(9, 1), seed=42)
        m2 = S.random_split(corpus, Fraction(9, 1), seed=42)
        assert m1 == m2
        assert len(m1.indices_a) == 9 and len(m1.indices_b) == 1
        assert m1.strategy == "random" and m1.budget_used == 0

    def test_seed_changes_split(self):
        corpus = toy_corpus(n=40)
        splits = {S.random_split(corpus, Fraction(1, 1), seed=s).indices_b for s in range(5)}
        assert len(splits) > 1

    @pytest.mark.parametrize("n,ratio", [(2, "1:1"), (3, "2:1"), (10, "9:1"), (57, "7:3")])
    def test_partition_and_size_law(self, n, ratio):
        corpus = toy_corpus(n=n, stems=12, suffixes=6)
        r = S.parse_ratio(ratio)
        m = S.random_split(corpus, r, seed=11)
        assert sorted(m.indices_a + m.indices_b) == list(range(n))
        assert abs(len(m.indices_b) - round(n * S.share_b(r))) <= 1

    def test_empty_side_rejected(self):
        corpus = toy_corpus(n=10)
        with pytest.raises(SplitError):
            S.random_split(corpus, Fraction(100, 1), seed=0)
        tiny = C.Corpus((C.SegmentedWord("ab", ("a", "b")),))
        with pytest.raises(SplitError):
            S.random_split(tiny, Fraction(1, 1), seed=0)

    def test_membership_frequency_matches_share(self):
        corpus = toy_corpus(n=50, stems=12, suffixes=6)
        hits = np.zeros(50)
        n_seeds = 1000
        for seed in range(n_seeds):
            m = S.random_split(corpus, Fraction(1, 1), seed=seed)
            hits[list(m.indices_b)] += 1
        freq = hits / n_seeds
        assert np.all(np.abs(freq - 0.5) < 0.06)


def two_family_corpus():
    """Six words over one morpheme family, six over a disjoint one."""
    fam_x = ["xa", "xb", "xc"]
    fam_y = ["yd", "ye", "yf"]
    words = []
    for fam in (fam_x, fam_y):
        for a, b in itertools.permutations(fam, 2):
            words.append(C.SegmentedWord(a + b, (a, b)))
    return C.Corpus(tuple(words))


class TestAdversarialSplit:
    def test_reaches_full_separation(self):
        corpus = two_family_corpus()
        m = S.adversarial_split(corpus, Fraction(1, 1), seed=1)
        assert m.achieved_distance == pytest.approx(1.0)
        fams = [{w.morphemes[0][0] for w in corpus.subset(side)}
                for side in (m.indices_a, m.indices_b)]
        assert sorted("".join(sorted(f)) for f in fams) == ["x", "y"]

    def test_never_below_seed_matched_random(self):
        # exact comparison: both values are correctly rounded rationals
        for seed in range(5):
            corpus = toy_corpus(n=20, seed=seed, stems=8, suffixes=4)
            rnd = S.random_split(corpus, Fraction(1, 1), seed=seed)
            adv = S.adversarial_split(corpus, Fraction(1, 1), seed=seed)
            assert adv.achieved_distance >= rnd.achieved_distance

    def test_identical_multisets_terminate_after_one_sweep(self):
        words = tuple(
            C.SegmentedWord("".join(p), p) for p in itertools.permutations(("a", "b", "c"))
        )
        corpus = C.Corpus(words)
        m = S.adversarial_split(corpus, Fraction(1, 1), seed=0)
        assert m.achieved_distance == 0.0
        # every start stalls after one full 3x3 sweep of skipped swaps
        assert m.budget_used == 9 * S.ADVERSARIAL_STARTS

    def test_budget_zero_returns_start(self):
        corpus = two_family_corpus()
        rnd = S.random_split(corpus, Fraction(1, 1), seed=3)
        adv = S.adversarial_split(corpus, Fraction(1, 1), seed=3, budget=0)
        assert adv.indices_a == rnd.indices_a and adv.indices_b == rnd.indices_b
        assert adv.budget_used == 0
        assert adv.achieved_distance == pytest.approx(rnd.achieved_distance)

    def test_budget_caps_evaluations(self):
        corpus = toy_corpus(n=24, seed=9, stems=10, suffixes=5)
        m = S.adversarial_split(corpus, Fraction(1, 1), seed=9, budget=7)
        assert m.budget_used <= 7

    def test_determinism(self):
        corpus = toy_corpus(n=30, seed=4, stems=10, suffixes=5)
        a = S.adversarial_split(corpus, Fraction(2, 1), seed=5)
        b = S.adversarial_split(corpus, Fraction(2, 1), seed=5)
        assert a == b

    def test_matches_exhaustive_on_small_corpus(self):
        corpus = toy_corpus(n=8, seed=2, stems=6, suffixes=3)
        best = 0.0
        for combo in itertools.combinations(range(8), 4):
            rest = tuple(i for i in range(8) if i not in combo)
            d = S.distribution_distance(
                S.morpheme_distribution(corpus.subset(rest)),
                S.morpheme_distribution(corpus.subset(combo)),
            )
            best = max(best, d)
        found = max(
            S.adversarial_split(corpus, Fraction(1, 1), seed=s).achieved_distance
            for s in range(3)
        )
        assert found == pytest.approx(best, abs=1e-9)


# Manifests written by the one-pair-at-a-time scan that the vectorized scan
# replaced, for the cases listed in the file: the search must return exactly
# the same split, distance and evaluation count.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "adversarial_manifests_v1.json").read_text(encoding="utf-8")
)
WIDE_SPEC = C.SyntheticSpec(num_words=4000, stems=3000, suffixes=40, seed=3)


def pinned_corpus(spec):
    if "words" in spec:
        return C.Corpus(tuple(C.SegmentedWord(s, tuple(m)) for s, m in spec["words"]))
    return C.generate_synthetic_corpus(C.SyntheticSpec(**spec["synthetic"]))


def pinned_split(case, corpus=None):
    return S.adversarial_split(
        corpus if corpus is not None else pinned_corpus(case["corpus"]),
        S.parse_ratio(case["ratio"]),
        case["seed"],
        budget=case["budget"],
    )


def reference_adversarial(corpus, ratio, seed, budget):
    """The adversarial search scored one pair at a time from scratch:
    (indices_a, indices_b, evaluations)."""
    counts = [Counter(w.morphemes) for w in corpus]

    def score(a, b):
        c_a = sum((counts[i] for i in a), Counter())
        c_b = sum((counts[i] for i in b), Counter())
        t_a, t_b = sum(c_a.values()), sum(c_b.values())
        return sum(abs(c_a[m] * t_b - c_b[m] * t_a) for m in c_a | c_b), t_a * t_b

    def better(x, y):
        return x[0] * y[1] > y[0] * x[1]

    n = len(corpus)
    used, best = 0, None
    for start in range(S.ADVERSARIAL_STARTS):
        start_seed = seed if start == 0 else S.derive_seed(seed, "restart", start)
        a, b = (list(side) for side in S._seeded_sides(n, S._side_sizes(n, ratio), start_seed))
        current = score(a, b)
        improved = current[0] < 2 * current[1]
        while improved:
            if budget is not None and used >= budget:
                break
            improved = False
            for ia, ib in itertools.product(range(len(a)), range(len(b))):
                if budget is not None and used >= budget or current[0] == 2 * current[1]:
                    break
                used += 1
                a[ia], b[ib] = b[ib], a[ia]
                candidate = score(a, b)
                if better(candidate, current):
                    current, improved = candidate, True
                else:
                    a[ia], b[ib] = b[ib], a[ia]
            improved = improved and current[0] < 2 * current[1]
        terminal = (current, tuple(sorted(a)), tuple(sorted(b)))
        if best is None or better(terminal[0], best[0]):
            best = terminal
        if current[0] == 2 * current[1] or (budget is not None and used >= budget):
            break
    return best[1], best[2], used


class TestPinnedManifests:
    @pytest.mark.parametrize("case", PINNED, ids=[c["name"] for c in PINNED])
    def test_matches_pinned(self, case):
        assert pinned_split(case).to_dict() == case["manifest"]

    def test_cases_cover_the_edges(self):
        by_name = {c["name"]: c for c in PINNED}
        unlimited = [c for c in PINNED if c["budget"] is None]
        # ends at a local optimum: no budget, distance below 1
        assert any(c["manifest"]["achieved_distance"] < 1 for c in unlimited)
        assert any(c["manifest"]["achieved_distance"] == 1.0 for c in unlimited)
        # runs out mid-sweep: the whole budget, and less than one sweep of all pairs
        for name in ("budget-mid-sweep-r4", "budget-mid-sweep-r9"):
            m = by_name[name]["manifest"]
            assert m["budget_used"] == by_name[name]["budget"]
            assert m["budget_used"] < len(m["indices_a"]) * len(m["indices_b"])
        assert by_name["budget-zero"]["manifest"]["budget_used"] == 0
        assert {"4:1", "9:1"} <= {c["ratio"] for c in PINNED}
        # words of unequal morpheme counts, so swaps change the side totals
        lengths = {len(w.morphemes) for w in pinned_corpus(by_name["unequal-counts-r9"]["corpus"])}
        assert len(lengths) >= 3
        assert C.SyntheticSpec(**by_name["wide-inventory"]["corpus"]["synthetic"]) == WIDE_SPEC

    @pytest.mark.parametrize("case", range(24))
    def test_matches_one_pair_at_a_time_reference(self, case):
        rng = np.random.default_rng(case)
        corpus = toy_corpus(
            n=int(rng.integers(8, 36)), seed=case, stems=int(rng.integers(6, 12)),
            suffixes=int(rng.integers(3, 6)),
        )
        ratio = (Fraction(1), Fraction(4), Fraction(9), Fraction(7, 3))[case % 4]
        budget = (None, 0, 7, 150)[case // 4 % 4]
        got = S.adversarial_split(corpus, ratio, seed=case, budget=budget)
        assert (got.indices_a, got.indices_b, got.budget_used) == reference_adversarial(
            corpus, ratio, case, budget
        )

    @pytest.mark.parametrize("name", ["local-optimum-r9", "unequal-counts-r9", "distance-one-r4"])
    def test_python_integer_comparisons_agree(self, name, monkeypatch):
        # the path taken when score times side-total products may pass int64
        monkeypatch.setattr(S, "_INT64_SCORES", 0)
        (case,) = [c for c in PINNED if c["name"] == name]
        assert not S._search_rows(pinned_corpus(case["corpus"]))[1]
        assert pinned_split(case).to_dict() == case["manifest"]

    def test_wide_inventory_memory_is_bounded(self):
        # about 2,300 morpheme types over 4,000 words: a dense word-by-type
        # int64 count matrix alone would take about 72 MB
        corpus = C.generate_synthetic_corpus(WIDE_SPEC)
        (case,) = [c for c in PINNED if c["name"] == "wide-inventory"]
        tracemalloc.start()
        try:
            manifest = pinned_split(case, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert manifest.to_dict() == case["manifest"]


def recounted(corpus):
    """The same words, their morpheme rows counted from them alone."""
    return C.Corpus(corpus.words, corpus.language_tag)


def canonical_counts(rows):
    """Word-by-morpheme counts with the morpheme columns in a canonical
    order: equal for two tables of the same words, whatever their ids."""
    n = len(rows.tots)
    dense = np.zeros((n, rows.vocab_size + 1), dtype=np.int64)
    np.add.at(dense, (np.tile(np.arange(n), rows.width), rows.ids), rows.cnts)
    assert not dense[:, -1].any()
    dense = dense[:, :-1]
    return dense[:, np.lexsort(dense)]


def exact_distance(corpus, a, b):
    c_a = Counter(m for i in a for m in corpus[i].morphemes)
    c_b = Counter(m for i in b for m in corpus[i].morphemes)
    t_a, t_b = sum(c_a.values()), sum(c_b.values())
    return Fraction(sum(abs(c_a[m] * t_b - c_b[m] * t_a) for m in c_a | c_b), 2 * t_a * t_b)


# words over a small inventory that repeats morphemes within a word
inventory_words = st.lists(
    st.lists(st.sampled_from(("ka", "lo", "mi", "s", "t", "ru")), min_size=1, max_size=4),
    min_size=2, max_size=24,
).map(lambda pieces: C.Corpus(tuple({
    "".join(p): C.SegmentedWord("".join(p), tuple(p)) for p in pieces
}.values()))).filter(lambda corpus: len(corpus) >= 2)


class TestMorphemeRows:
    """A corpus's rows are counted once; a subset's are gathered from its
    parent's, and give every search what rows counted from its own words
    give it."""

    @pytest.mark.parametrize("case", range(12))
    def test_subset_rows_are_the_rows_of_its_words(self, case):
        rng = np.random.default_rng(case)
        corpus = toy_corpus(
            n=int(rng.integers(8, 60)), seed=case, stems=int(rng.integers(6, 20)),
            suffixes=int(rng.integers(3, 8)),
        )
        picked = rng.permutation(len(corpus))[: int(rng.integers(1, len(corpus) + 1))]
        # odd cases count positions from the end
        sub = corpus.subset((picked - len(corpus) * (case % 2)).tolist())
        for got in (sub.morpheme_rows, sub.subset(range(len(sub))).morpheme_rows):
            want = recounted(sub).morpheme_rows
            assert (got.width, got.vocab_size, got.total) == (want.width, want.vocab_size, want.total)
            assert got.tots.tolist() == want.tots.tolist() == [len(w.morphemes) for w in sub]
            assert sorted(got.totals.tolist()) == sorted(want.totals.tolist())
            assert np.array_equal(canonical_counts(got), canonical_counts(want))
            # padding trimmed to the subset's widest word, at the padding id
            assert got.width == max(len(set(w.morphemes)) for w in sub)
            assert got.vocab_size == len({m for w in sub for m in w.morphemes})
            assert (got.ids[got.cnts == 0] == got.vocab_size).all()
            assert got.cnts.reshape(got.width, -1)[-1].any()

    @pytest.mark.parametrize("python_integers", [False, True])
    @pytest.mark.parametrize("case", range(9))
    def test_searches_on_a_subset_match_searches_on_its_words(
        self, case, python_integers, monkeypatch
    ):
        if python_integers:
            monkeypatch.setattr(S, "_INT64_SCORES", 0)
        rng = np.random.default_rng(100 + case)
        corpus = toy_corpus(
            n=int(rng.integers(20, 44)), seed=case, stems=int(rng.integers(5, 12)),
            suffixes=int(rng.integers(3, 6)),
        )
        residual = sorted(rng.permutation(len(corpus))[: int(rng.integers(10, 18))].tolist())
        sub = corpus.subset(residual)
        assert S._search_rows(sub)[1] is not python_integers
        ratio = (Fraction(9), Fraction(4), Fraction(1))[case % 3]
        budget = (0, 7, None)[case // 3]
        adversarial = S.adversarial_split(sub, ratio, case, budget=budget)
        assert adversarial == S.adversarial_split(recounted(sub), ratio, case, budget=budget)
        assert S.random_split(sub, ratio, case) == S.random_split(recounted(sub), ratio, case)

    def test_a_search_on_a_subset_reaching_distance_one(self):
        corpus = C.Corpus(two_family_corpus().words + tuple(
            C.SegmentedWord(a + b, (a, b)) for a, b in itertools.permutations(("zg", "zh", "zi"), 2)
        ))
        sub = corpus.subset(range(12))
        got = S.adversarial_split(sub, Fraction(1), seed=3, budget=None)
        assert got.achieved_distance == 1.0
        assert got == S.adversarial_split(recounted(sub), Fraction(1), seed=3, budget=None)

    @pytest.mark.parametrize("generation", S.GRID_STRATEGIES)
    def test_grid_on_gathered_rows_matches_grid_on_counted_rows(self, generation, monkeypatch):
        corpus = toy_corpus(n=50, seed=9, stems=14, suffixes=5)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(1, 5), Fraction(2, 5)), samples_per_fraction=2,
            residual_splits=2, new_test_generation=generation, master_seed=4,
            adversarial_budget=300,
        )
        (_, _, unit), *_ = S.grid_units(plan, S.GRID_STRATEGIES)
        gathered = S.build_grid(corpus, plan, S.GRID_STRATEGIES)
        one_unit = S.build_grid(corpus, plan, S.GRID_STRATEGIES, {c for _, _, c in unit})
        monkeypatch.setattr(C.Corpus, "subset", lambda self, indices: recounted(
            C.Corpus(tuple(self.words[i] for i in indices), self.language_tag)
        ))
        assert gathered == S.build_grid(corpus, plan, S.GRID_STRATEGIES)
        assert one_unit == gathered[: len(unit)]

    @pytest.mark.parametrize("scale", [1, 2**11, 2**12, 2**22, 2**24])
    def test_search_bounds_use_the_subsets_own_totals_and_types(self, scale):
        # every count times `scale`: int64 at the two smallest, Python
        # integers at 2**12, the corpus refused and its subset not at 2**22,
        # both refused at 2**24
        corpus = toy_corpus(n=40, seed=4, stems=20, suffixes=6)
        rows = corpus.morpheme_rows
        corpus.__dict__["morpheme_rows"] = C.MorphemeRows(
            rows.ids.reshape(rows.width, -1), rows.cnts.reshape(rows.width, -1) * scale,
            rows.vocab_size,
        )
        sub = corpus.subset(range(0, 40, 3))
        for words in (corpus, sub):
            total = scale * sum(len(w.morphemes) for w in words)
            types = len({m for w in words for m in w.morphemes})
            widest = scale * max(len(w.morphemes) for w in words)
            if total * total * types < 2**62:
                assert S._search_rows(words)[1] == (widest * total**3 < 2**62)
                continue
            with pytest.raises(DomainError) as refused:
                S.adversarial_split(words, Fraction(4), seed=0)
            assert str(refused.value) == (
                f"corpus too large for exact integer split scoring "
                f"({total} tokens, {types} morpheme types)"
            )

    @settings(max_examples=80, deadline=None)
    @given(corpus=inventory_words, data=st.data())
    def test_distance_is_the_exact_fraction_rounded_once(self, corpus, data):
        n = len(corpus)
        picked = data.draw(st.permutations(range(n)))
        cut = data.draw(st.integers(1, n - 1))
        a, b = picked[:cut], picked[cut:]
        want = float(exact_distance(corpus, a, b))
        sub = corpus.subset(picked)
        sub_a, sub_b = range(cut), range(cut, n)
        with pytest.MonkeyPatch.context() as patched:
            for bound in (S._INT64_SCORES, 0):
                patched.setattr(S, "_INT64_SCORES", bound)
                assert S.split_distance(corpus, a, b) == want
                assert S.split_distance(sub, sub_a, sub_b) == want


class TestHeuristicSplit:
    def test_uniform_counts_fail(self):
        words = tuple(
            C.SegmentedWord(s + t, (s, t))
            for s, t in itertools.product(("aa", "bb", "cc"), ("x", "y", "z"))
        )
        corpus = C.Corpus(words[:10] if len(words) >= 10 else words)
        assert S.heuristic_split(corpus, Fraction(9, 1)) is None

    def test_single_heavy_word_succeeds(self):
        words = [C.SegmentedWord(f"w{i}x", (f"w{i}x",)) for i in range(9)]
        words.append(C.SegmentedWord("abcde", ("a", "b", "c", "d", "e")))
        corpus = C.Corpus(tuple(words))
        m = S.heuristic_split(corpus, Fraction(9, 1))
        assert m is not None
        assert m.strategy == "heuristic"
        assert m.indices_b == (9,)
        assert len(m.indices_a) == 9

    def test_tolerance_widens_success(self):
        # 7 one-morpheme words and 3 two-morpheme words: share 0.3 against a
        # target of 0.5 fails at 2% tolerance, passes at 25%.
        words = [C.SegmentedWord(f"q{i}", (f"q{i}",)) for i in range(7)]
        words += [C.SegmentedWord(f"r{i}s", (f"r{i}", "s")) for i in range(3)]
        corpus = C.Corpus(tuple(words))
        assert S.heuristic_split(corpus, Fraction(1, 1)) is None
        m = S.heuristic_split(corpus, Fraction(1, 1), tolerance=Fraction(1, 4))
        assert m is not None
        assert len(m.indices_b) == 3

    def test_matches_brute_force_scan(self):
        corpus = toy_corpus(n=100, seed=5, stems=20, suffixes=6)
        target = S.share_b(Fraction(9, 1))
        counts = [len(w.morphemes) for w in corpus]
        best = None
        for t in range(1, max(counts) + 2):
            b = tuple(i for i, c in enumerate(counts) if c >= t)
            if not b or len(b) == len(counts):
                continue
            dev = abs(Fraction(len(b), len(counts)) - target)
            if dev <= Fraction(1, 50) and (best is None or dev < best[0]):
                best = (dev, b)
        got = S.heuristic_split(corpus, Fraction(9, 1))
        if best is None:
            assert got is None
        else:
            assert got is not None
            assert got.indices_b == best[1]


class TestManifests:
    def test_json_round_trip(self, tmp_path):
        corpus = toy_corpus(n=12)
        for m in (
            S.random_split(corpus, Fraction(2, 1), seed=3),
            S.adversarial_split(corpus, Fraction(2, 1), seed=3, budget=50),
        ):
            d = m.to_dict()
            assert d["target_ratio"] == "2:1"
            assert d["indices_a"] == sorted(d["indices_a"])
            assert S.SplitManifest.from_dict(json.loads(json.dumps(d))) == m
            path = tmp_path / f"{m.strategy}.json"
            S.save_manifest(m, path)
            first = path.read_bytes()
            S.save_manifest(m, path)
            assert path.read_bytes() == first
            assert S.load_manifest(path) == m

    def test_validation_rejects_bad_partitions(self):
        ok = dict(
            strategy="random", stage="residual_split", seed=0,
            target_ratio=Fraction(1, 1), achieved_distance=0.5, budget_used=0,
        )
        with pytest.raises(ValidationError):
            S.SplitManifest(indices_a=(1, 0), indices_b=(2, 3), **ok)
        with pytest.raises(ValidationError):
            S.SplitManifest(indices_a=(0, 1), indices_b=(1, 2), **ok)
        with pytest.raises(ValidationError):
            S.SplitManifest(indices_a=(0, 1), indices_b=(3,), **ok)
        with pytest.raises(ValidationError):
            S.SplitManifest(indices_a=(), indices_b=(0,), **ok)

    def test_size_law_enforced_for_random_not_heuristic(self):
        base = dict(
            stage="residual_split", seed=0, target_ratio=Fraction(1, 1),
            achieved_distance=0.0, budget_used=0,
        )
        with pytest.raises(ValidationError):
            S.SplitManifest(
                strategy="random", indices_a=(0, 1, 2, 3, 4, 5, 6), indices_b=(7,), **base
            )
        S.SplitManifest(
            strategy="heuristic", indices_a=(0, 1, 2, 3, 4, 5, 6), indices_b=(7,), **base
        )


class TestGrid:
    def test_default_plan_cardinality(self):
        plan = S.ExperimentPlan()
        assert sum(len(cells) for _, _, cells in S.grid_units(plan, ("random",))) == 150

    def test_small_grid_shape_and_determinism(self):
        corpus = toy_corpus(n=60, seed=8, stems=15, suffixes=6)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(1, 5), Fraction(2, 5)),
            samples_per_fraction=2,
            residual_splits=2,
            master_seed=13,
            adversarial_budget=200,
        )
        cells = S.build_grid(corpus, plan, "random")
        assert len(cells) == 8
        assert len({c.cell_id for c in cells}) == 8
        assert cells == S.build_grid(corpus, plan, "random")
        for cell in cells:
            n_new = len(cell.new_test_indices)
            assert abs(n_new - round(60 * cell.fraction)) <= 1

    def test_carves_shared_across_residual_strategies(self):
        corpus = toy_corpus(n=40, seed=2, stems=12, suffixes=5)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(3, 10),),
            samples_per_fraction=2,
            residual_splits=1,
            master_seed=5,
            adversarial_budget=100,
        )
        rnd = S.build_grid(corpus, plan, "random")
        adv = S.build_grid(corpus, plan, "adversarial")
        for cr, ca in zip(rnd, adv):
            assert cr.carve_manifest == ca.carve_manifest
            assert cr.new_test_indices == ca.new_test_indices
            assert cr.residual_manifest != ca.residual_manifest or (
                cr.train_indices == ca.train_indices
            )

    def test_single_cell_plan(self):
        corpus = toy_corpus(n=20, seed=1, stems=10, suffixes=5)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(1, 4),), samples_per_fraction=1, residual_splits=1
        )
        (cell,) = S.build_grid(corpus, plan, "random")
        union = set(cell.train_indices) | set(cell.eval_indices) | set(cell.new_test_indices)
        assert union == set(range(20))

    def test_capacity_error(self):
        corpus = toy_corpus(n=5, stems=6, suffixes=3)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(1, 2),), samples_per_fraction=1, residual_splits=1
        )
        with pytest.raises(CapacityError):
            S.build_grid(corpus, plan, "random")

    def test_cell_serialization_round_trip(self):
        corpus = toy_corpus(n=20, seed=6, stems=10, suffixes=5)
        plan = S.ExperimentPlan(
            new_test_fractions=(Fraction(1, 4),), samples_per_fraction=1, residual_splits=1
        )
        (cell,) = S.build_grid(corpus, plan, "adversarial")
        data = json.loads(json.dumps(cell.to_dict(), sort_keys=True))
        assert S.GridCell.from_dict(data) == cell

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            S.ExperimentPlan(new_test_fractions=())
        with pytest.raises(ValidationError):
            S.ExperimentPlan(new_test_fractions=(Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValidationError):
            S.ExperimentPlan(new_test_generation="heuristic")
        with pytest.raises(DomainError):
            S.build_grid(toy_corpus(n=20), S.ExperimentPlan(), "heuristic")
