"""Scoring, ranking, and aggregation over grid-cell results."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit.corpus import SegmentedWord, Segmentations
from morphsplit.errors import ContractError, DomainError, ValidationError
from morphsplit.evaluation import (
    CellResult,
    ModelRanking,
    ScoreTriple,
    aggregate_rows,
    boundary_f1,
    boundary_positions,
    corpus_f1,
    generalization_gap,
    mean_triple,
    morpheme_f1,
    morpheme_overlap,
    morpheme_spans,
    rank_models,
    ranking_consistency,
)

MODELS = ("crf", "longest_match", "unigram_viterbi")


def seg(surface, *cuts):
    """Build a SegmentedWord from internal cut positions."""
    points = [0, *cuts, len(surface)]
    return SegmentedWord(
        surface, tuple(surface[i:j] for i, j in zip(points, points[1:]))
    )


def triple(f1):
    return ScoreTriple.from_pr(f1, f1)


def make_cell(
    cell_id="cell-0",
    fraction=Fraction(3, 10),
    new_strat="random",
    res_strat="random",
    eval_f1=None,
    new_f1=None,
):
    eval_f1 = eval_f1 or {m: 0.8 for m in MODELS}
    new_f1 = new_f1 or {m: 0.7 for m in MODELS}
    return CellResult(
        cell_id=cell_id,
        language_tag="toy",
        fraction=fraction,
        new_test_strategy=new_strat,
        residual_strategy=res_strat,
        seed_group="0+1+2",
        boundary_eval={m: triple(v) for m, v in eval_f1.items()},
        boundary_new={m: triple(v) for m, v in new_f1.items()},
        morpheme_eval={m: triple(v * 0.9) for m, v in eval_f1.items()},
        morpheme_new={m: triple(v * 0.9) for m, v in new_f1.items()},
        ranking_eval=rank_models(eval_f1),
        ranking_new=rank_models(new_f1),
        overlap=0.5,
        train_size=100,
        eval_size=20,
        new_test_size=30,
    )


class TestScoreTriple:
    def test_harmonic_invariant_enforced(self):
        with pytest.raises(ValidationError):
            ScoreTriple(1.0, 1.0, 0.5)

    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            ScoreTriple(1.5, 1.0, 1.0)

    def test_from_pr_zero_case(self):
        assert ScoreTriple.from_pr(0.0, 0.0).f1 == 0.0

    def test_from_pr_harmonic(self):
        t = ScoreTriple.from_pr(1.0, 0.5)
        assert t.f1 == pytest.approx(2 / 3)


class TestPositionsAndSpans:
    def test_boundary_positions(self):
        assert boundary_positions(seg("avocados", 7)) == {7}
        assert boundary_positions(seg("abcdef", 3, 5)) == {3, 5}
        assert boundary_positions(seg("walk")) == frozenset()

    def test_positions_count_graphemes(self):
        word = SegmentedWord("móza", ("mó", "za"))
        assert boundary_positions(word) == {2}

    def test_morpheme_spans(self):
        assert morpheme_spans(seg("avocados", 7)) == {
            (0, 7, "avocado"), (7, 8, "s"),
        }


class TestWordF1:
    def test_exact_match(self):
        t = boundary_f1(seg("avocados", 7), seg("avocados", 7))
        assert (t.precision, t.recall, t.f1) == (1.0, 1.0, 1.0)

    def test_partial_boundaries(self):
        t = boundary_f1(seg("abcdef", 3, 5), seg("abcdef", 3))
        assert t.precision == 1.0
        assert t.recall == 0.5
        assert t.f1 == pytest.approx(2 / 3)

    def test_both_monomorphemic(self):
        t = boundary_f1(seg("walk"), seg("walk"))
        assert (t.precision, t.recall, t.f1) == (1.0, 1.0, 1.0)

    def test_pred_empty_gold_not(self):
        t = boundary_f1(seg("abcd", 2), seg("abcd"))
        assert (t.precision, t.recall, t.f1) == (0.0, 0.0, 0.0)

    def test_surface_mismatch(self):
        with pytest.raises(ContractError):
            boundary_f1(seg("abc", 1), seg("abd", 1))

    def test_morpheme_disjoint_spans(self):
        t = morpheme_f1(seg("abc", 2), seg("abc", 1))
        assert (t.precision, t.recall, t.f1) == (0.0, 0.0, 0.0)

    def test_morpheme_partial(self):
        t = morpheme_f1(seg("abc", 1, 2), seg("abc", 1))
        assert t.precision == 0.5
        assert t.recall == pytest.approx(1 / 3)


@st.composite
def aligned_pair(draw):
    surface = draw(st.text(alphabet="abcd", min_size=1, max_size=8))
    n = len(surface)
    cuts = st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)
    def build(mask):
        return seg(surface, *[i + 1 for i, b in enumerate(mask) if b])
    return build(draw(cuts)), build(draw(cuts))


class TestF1Properties:
    @given(aligned_pair())
    @settings(max_examples=100, deadline=None)
    def test_precision_recall_symmetry(self, pair):
        g, p = pair
        assert boundary_f1(g, p).precision == boundary_f1(p, g).recall
        assert morpheme_f1(g, p).precision == morpheme_f1(p, g).recall

    @given(aligned_pair())
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_is_perfect(self, pair):
        g, _ = pair
        assert boundary_f1(g, g).f1 == 1.0
        assert morpheme_f1(g, g).f1 == 1.0


class TestCorpusF1:
    def golds_preds(self):
        golds = [seg("abcdef", 3, 5), seg("walk"), seg("abcd", 2)]
        preds = [seg("abcdef", 3), seg("walk", 2), seg("abcd", 2)]
        return golds, preds

    def test_micro_recount(self):
        golds, preds = self.golds_preds()
        # word 1: tp=1 fp=0 fn=1; word 2: tp=0 fp=1 fn=0; word 3: tp=1
        t = corpus_f1(golds, preds, "boundary", "micro")
        assert t.precision == pytest.approx(2 / 3)
        assert t.recall == pytest.approx(2 / 3)

    def test_macro_averages_word_triples(self):
        golds, preds = self.golds_preds()
        t = corpus_f1(golds, preds, "boundary", "macro")
        p = (1.0 + 0.0 + 1.0) / 3
        r = (0.5 + 0.0 + 1.0) / 3
        assert t.precision == pytest.approx(p)
        assert t.recall == pytest.approx(r)
        assert t.f1 == pytest.approx(2 * p * r / (p + r))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            corpus_f1([], [], "boundary")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            corpus_f1([seg("ab")], [], "boundary")

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            corpus_f1([seg("ab")], [seg("ab")], "chunk")


# whole grapheme clusters, some of several code points
SCORED_CLUSTERS = ("a", "b", "k", "e\u0301", "o\u0308\u0301", "\U0001F1FA\U0001F1F8", "\uAC00")


@st.composite
def scored_corpus(draw):
    """Aligned gold and predicted segmentations of distinct-or-repeated
    surfaces over whole clusters."""
    n = draw(st.integers(1, 12))
    gold, pred = [], []
    for _ in range(n):
        g = draw(st.lists(st.sampled_from(SCORED_CLUSTERS), min_size=1, max_size=9))
        surface = "".join(g)
        for side in (gold, pred):
            mask = draw(st.lists(st.booleans(), min_size=len(g) - 1, max_size=len(g) - 1))
            cuts = [0, *(i + 1 for i, b in enumerate(mask) if b), len(g)]
            side.append(SegmentedWord(surface, tuple("".join(g[a:b]) for a, b in zip(cuts, cuts[1:]))))
    return gold, pred


def reference_f1(gold, pred, variant, average):
    """The per-word formula: each word's counts from ``boundary_f1`` /
    ``morpheme_f1``'s position and span sets, summed (micro) or averaged
    word by word (macro)."""
    word_f1 = boundary_f1 if variant == "boundary" else morpheme_f1
    if average == "macro":
        return mean_triple([word_f1(g, p) for g, p in zip(gold, pred)])
    sets = boundary_positions if variant == "boundary" else morpheme_spans
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        a, b = sets(g), sets(p)
        tp, fp, fn = tp + len(a & b), fp + len(b - a), fn + len(a - b)
    precision = tp / (tp + fp) if tp + fp else (1.0 if tp + fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else (1.0 if tp + fp == 0 else 0.0)
    return ScoreTriple.from_pr(precision, recall)


class TestCutScorer:
    """``corpus_f1`` scores cut bits; the per-word formula is its reference."""

    @given(scored_corpus())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_per_word_formula(self, corpus):
        gold, pred = corpus
        for variant in ("boundary", "morpheme"):
            for average in ("micro", "macro"):
                want = reference_f1(gold, pred, variant, average)
                assert corpus_f1(gold, pred, variant, average) == want
                got = corpus_f1(Segmentations.of(gold), Segmentations.of(pred), variant, average)
                assert got == want

    @given(scored_corpus())
    @settings(max_examples=50, deadline=None)
    def test_segmentations_read_back_as_the_words(self, corpus):
        gold, _ = corpus
        cuts = Segmentations.of(gold)
        assert cuts == gold and list(cuts) == gold
        assert [w.cuts for w in cuts] == [w.cuts for w in gold]
        assert cuts[-1] == gold[-1] and cuts[1:] == gold[1:]

    def test_surface_mismatch_names_the_first_pair(self):
        with pytest.raises(ContractError, match="'ab' vs pred 'ba'"):
            corpus_f1([seg("xy"), seg("ab")], [seg("xy"), seg("ba")])


class TestRankModels:
    def test_clear_order(self):
        r = rank_models({"A": 0.8, "B": 0.7}, collapse_epsilon=0.0)
        assert r.groups == (("A",), ("B",))

    def test_near_tie_merges(self):
        r = rank_models({"A": 0.700, "B": 0.695}, collapse_epsilon=0.02)
        assert r.groups == (("A", "B"),)

    def test_four_model_reference_case(self):
        scores = {"CRF": 0.80, "TRM_tiny": 0.68, "LSTM": 0.67, "TRM": 0.56}
        r = rank_models(scores, collapse_epsilon=0.02)
        assert r.groups == (("CRF",), ("TRM_tiny", "LSTM"), ("TRM",))

    def test_chaining_extends_groups(self):
        scores = {"A": 1.0, "B": 0.99, "C": 0.98, "D": 0.5}
        r = rank_models(scores, collapse_epsilon=0.02)
        assert r.groups == (("A", "B", "C"), ("D",))

    def test_gap_exactly_epsilon_separates(self):
        r = rank_models({"A": 0.72, "B": 0.70}, collapse_epsilon=0.02)
        assert r.groups == (("A",), ("B",))

    def test_equal_scores_order_by_name(self):
        r = rank_models({"B": 0.5, "A": 0.5}, collapse_epsilon=0.0)
        assert r.models == ("A", "B")
        assert r.groups == (("A",), ("B",))

    @given(st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_constant_shift_invariance(self, c):
        scores = {"A": 0.9, "B": 0.71, "C": 0.7, "D": 0.2}
        base = rank_models(scores)
        shifted = rank_models({m: v + c for m, v in scores.items()})
        assert shifted.models == base.models
        assert shifted.group_signature() == base.group_signature()

    def test_fewer_than_two_models_rejected(self):
        with pytest.raises(DomainError):
            rank_models({"A": 0.5})

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            rank_models({"A": 0.5, "B": 0.4}, collapse_epsilon=-0.1)

    def test_dict_round_trip(self):
        r = rank_models({"A": 0.9, "B": 0.89, "C": 0.1})
        assert ModelRanking.from_dict(r.to_dict()) == r

    def test_groups_must_partition(self):
        with pytest.raises(ValidationError):
            ModelRanking(models=("A", "B"), groups=(("A",),), collapse_epsilon=0.0)


class TestOverlap:
    def test_full_overlap(self):
        train = [seg("walked", 4), seg("talks", 4)]
        assert morpheme_overlap(train, [seg("walked", 4)]) == 1.0

    def test_disjoint(self):
        assert morpheme_overlap([seg("ab", 1)], [seg("cd", 1)]) == 0.0

    def test_hand_value(self):
        train = [SegmentedWord("walked", ("walk", "ed"))]
        evals = [
            SegmentedWord("walks", ("walk", "s")),
            SegmentedWord("reed", ("re", "ed")),
        ]
        # eval types {walk, s, re, ed}; present: walk, ed
        assert morpheme_overlap(train, evals) == pytest.approx(0.5)

    def test_empty_eval_rejected(self):
        with pytest.raises(DomainError):
            morpheme_overlap([seg("ab", 1)], [])


class TestCellResult:
    def test_round_trip(self):
        cell = make_cell(eval_f1={m: 0.1 + 0.2 * i for i, m in enumerate(MODELS)})
        assert CellResult.from_dict(cell.to_dict()) == cell

    def test_model_set_mismatch_rejected(self):
        cell = make_cell()
        bad = dict(cell.boundary_new)
        bad["extra"] = triple(0.5)
        with pytest.raises(ValidationError):
            CellResult(
                **{
                    **{k: getattr(cell, k) for k in cell.__dataclass_fields__},
                    "boundary_new": bad,
                }
            )

    def test_ranking_must_cover_models(self):
        cell = make_cell()
        with pytest.raises(ValidationError):
            CellResult(
                **{
                    **{k: getattr(cell, k) for k in cell.__dataclass_fields__},
                    "ranking_new": rank_models({"x": 1.0, "y": 0.5}),
                }
            )


class TestConsistencyAndGap:
    def test_three_of_four_match(self):
        same = {m: 0.8 - 0.1 * i for i, m in enumerate(MODELS)}
        flipped = {m: 0.8 + 0.1 * i for i, m in enumerate(MODELS)}
        cells = [
            make_cell("c1", eval_f1=same, new_f1=same),
            make_cell("c2", eval_f1=same, new_f1=same),
            make_cell("c3", eval_f1=same, new_f1=same),
            make_cell("c4", eval_f1=same, new_f1=flipped),
        ]
        assert ranking_consistency(cells) == 0.75

    def test_identical_rankings_give_one(self):
        cells = [make_cell(f"c{i}") for i in range(5)]
        assert ranking_consistency(cells) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ranking_consistency([])

    def test_signed_and_absolute_gap(self):
        cells = [
            make_cell("c1", eval_f1={m: 0.6 for m in MODELS},
                      new_f1={m: 0.5 for m in MODELS}),
            make_cell("c2", eval_f1={m: 0.5 for m in MODELS},
                      new_f1={m: 0.6 for m in MODELS}),
        ]
        gaps = generalization_gap(cells)
        for m in MODELS:
            assert gaps[m].signed == pytest.approx(0.0, abs=1e-15)
            assert gaps[m].absolute == pytest.approx(0.1)

    def test_gap_recount(self):
        import random

        rng = random.Random(7)
        cells = [
            make_cell(
                f"c{i}",
                eval_f1={m: rng.uniform(0.2, 1.0) for m in MODELS},
                new_f1={m: rng.uniform(0.2, 1.0) for m in MODELS},
            )
            for i in range(9)
        ]
        gaps = generalization_gap(cells)
        for m in MODELS:
            diffs = [
                c.boundary_eval[m].f1 - c.boundary_new[m].f1 for c in cells
            ]
            assert gaps[m].signed == pytest.approx(
                sum(diffs) / len(diffs), abs=1e-12
            )
            assert gaps[m].absolute == pytest.approx(
                sum(abs(d) for d in diffs) / len(diffs), abs=1e-12
            )


def random_cells(n=12, seed=11):
    import random

    rng = random.Random(seed)
    cells = []
    for i in range(n):
        cells.append(
            make_cell(
                cell_id=f"cell-{i:02d}",
                fraction=rng.choice([Fraction(3, 10), Fraction(1, 2)]),
                res_strat=rng.choice(["random", "adversarial"]),
                eval_f1={m: rng.uniform(0.2, 1.0) for m in MODELS},
                new_f1={m: rng.uniform(0.2, 1.0) for m in MODELS},
            )
        )
    return cells


def strata(cells):
    """Cells grouped by (fraction, residual strategy)."""
    out = {}
    for c in cells:
        out.setdefault((c.fraction, c.residual_strategy), []).append(c)
    return out


class TestAggregate:
    def test_recount_within_tolerance(self):
        cells = random_cells()
        for members in strata(cells).values():
            # aggregate_rows pools by residual strategy, so one stratum's
            # cells give that stratum's per-model means
            rows = aggregate_rows(members)
            assert [row["model"] for row in rows] == sorted(MODELS)
            for row in rows:
                m = row["model"]
                evals = [c.boundary_eval[m].f1 for c in members]
                news = [c.boundary_new[m].f1 for c in members]
                assert row["mean_eval_f1"] == pytest.approx(
                    sum(evals) / len(evals), abs=1e-12
                )
                assert row["mean_new_f1"] == pytest.approx(
                    sum(news) / len(news), abs=1e-12
                )
                assert row["mean_abs_gap"] == pytest.approx(
                    sum(abs(e - n) for e, n in zip(evals, news)) / len(evals),
                    abs=1e-12,
                )
                mean = sum(news) / len(news)
                sigma = math.sqrt(
                    sum((v - mean) ** 2 for v in news) / len(news)
                )
                assert row["sigma"] == pytest.approx(sigma, abs=1e-12)
            same = sum(
                c.ranking_eval.same_groups(c.ranking_new) for c in members
            )
            assert ranking_consistency(members) == pytest.approx(
                same / len(members), abs=1e-12
            )
            assert all(row["consistency"] == ranking_consistency(members)
                       for row in rows)

    def test_strata_sorted(self):
        rows = aggregate_rows(random_cells())
        keys = [(row["residual_strategy"], row["model"]) for row in rows]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_pooled_rows_recount(self):
        cells = random_cells(seed=13)
        rows = aggregate_rows(cells)
        for row in rows:
            members = [
                c for c in cells if c.residual_strategy == row["residual_strategy"]
            ]
            m = row["model"]
            evals = [c.boundary_eval[m].f1 for c in members]
            news = [c.boundary_new[m].f1 for c in members]
            assert row["mean_eval_f1"] == pytest.approx(
                sum(evals) / len(evals), abs=1e-12
            )
            assert row["mean_new_f1"] == pytest.approx(
                sum(news) / len(news), abs=1e-12
            )
            same = sum(c.ranking_eval.same_groups(c.ranking_new) for c in members)
            assert row["consistency"] == pytest.approx(same / len(members), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate_rows([])
        with pytest.raises(DomainError):
            ranking_consistency([])
