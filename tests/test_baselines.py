"""Unigram, boundary-logistic, and longest-match baselines."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit.corpus import Corpus, SegmentedWord, WordTable, graphemes
from morphsplit.errors import DomainError, ValidationError
from morphsplit.models import (
    BoundaryLogisticModel,
    FeatureTemplate,
    LongestMatchModel,
    UnigramModel,
    gap_features,
    logistic_objective,
    train_boundary_logistic,
    train_longest_match,
    train_unigram_viterbi,
)

SMALL = FeatureTemplate(max_ngram=1, window=1)


def toy_corpus():
    words = [
        SegmentedWord("walked", ("walk", "ed")),
        SegmentedWord("talked", ("talk", "ed")),
        SegmentedWord("walks", ("walk", "s")),
        SegmentedWord("talks", ("talk", "s")),
        SegmentedWord("walk", ("walk",)),
    ]
    return Corpus(tuple(words), language_tag="toy")


def all_segmentations(surface):
    g = graphemes(surface)
    n = len(g)
    for mask in itertools.product([0, 1], repeat=n - 1):
        cuts = [0] + [i + 1 for i, b in enumerate(mask) if b] + [n]
        yield tuple("".join(g[i:j]) for i, j in zip(cuts, cuts[1:]))


class TestUnigram:
    def test_known_word_splits_at_morphemes(self):
        model = train_unigram_viterbi(toy_corpus())
        assert model.segment("talked").morphemes == ("talk", "ed")
        assert model.segment("walks").morphemes == ("walk", "s")

    def test_probabilities_sum_to_one(self):
        model = train_unigram_viterbi(toy_corpus(), smoothing=0.4)
        mass = sum(math.exp(v) for v in model.log_probs.values())
        mass += math.exp(model.log_oov)
        assert mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("surface", ["walked", "swalk", "edss", "kwtae"])
    def test_dp_matches_exhaustive_search(self, surface):
        """The DP result scores no worse than any of the 2^(L-1) splits."""
        model = train_unigram_viterbi(toy_corpus())

        def score(morphemes):
            return sum(model.log_probs.get(m, model.log_oov) for m in morphemes)

        candidates = list(all_segmentations(surface))
        best = max(score(c) for c in candidates)
        got = model.segment(surface).morphemes
        assert score(got) == pytest.approx(best, rel=1e-12)
        ties = [c for c in candidates if score(c) == pytest.approx(best, rel=1e-12)]
        assert len(got) == min(len(c) for c in ties)

    def test_exact_tie_prefers_fewer_morphemes(self):
        model = UnigramModel(
            log_probs={"a": -1.0, "aa": -2.0}, log_oov=-50.0, smoothing=0.1
        )
        assert model.segment("aa").morphemes == ("aa",)

    def test_oov_word_stays_whole(self):
        model = train_unigram_viterbi(toy_corpus())
        assert model.segment("xyz").morphemes == ("xyz",)

    def test_smoothing_validation(self):
        with pytest.raises(DomainError):
            train_unigram_viterbi(toy_corpus(), smoothing=0.0)
        with pytest.raises(DomainError):
            train_unigram_viterbi(toy_corpus(), smoothing=-1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            train_unigram_viterbi(Corpus((), language_tag="x"))

    def test_empty_surface_rejected(self):
        model = train_unigram_viterbi(toy_corpus())
        with pytest.raises(DomainError):
            model.segment("")

    def test_dict_round_trip(self):
        model = train_unigram_viterbi(toy_corpus())
        clone = UnigramModel.from_dict(model.to_dict())
        assert clone.log_probs == model.log_probs
        assert clone.log_oov == model.log_oov
        assert clone.segment("walked") == model.segment("walked")


#: Hand-made unigram models whose scores sum exactly, so that ties are exact:
#: (log_probs, log_oov, surface, expected morphemes).
TIE_CASES = {
    # a|b|c, ab|c and abc all score -3: the fewest morphemes win
    "fewer_morphemes": ({"a": -1.0, "b": -1.0, "c": -1.0, "ab": -2.0, "abc": -3.0},
                        -10.0, "abc", ("abc",)),
    # a|bcd, ab|cd and abc|d all score -4 in two morphemes: the earliest
    # split point wins, which keeps the longest final morpheme
    "earliest_split": ({"a": -2.0, "ab": -2.0, "abc": -2.0, "bcd": -2.0, "cd": -2.0, "d": -2.0},
                       -10.0, "abcd", ("a", "bcd")),
    # an out-of-vocabulary piece longer than every morpheme beats splitting it
    "long_oov_piece": ({"ab": 0.5, "c": -1.0}, -3.0, "abqrstu", ("ab", "qrstu")),
    # ... and ties with the whole word, which has fewer morphemes
    "long_oov_tie_fewer": ({"ab": 0.0}, -3.0, "abqrstu", ("abqrstu",)),
    # two long OOV final pieces tie in score and count: the earliest wins
    "long_oov_tie_earliest": ({"a": 1.0, "ab": 1.0}, -3.0, "abqrst", ("a", "bqrst")),
    # a|bcd and ab|cd tie in score and count, one ending in an unknown
    # piece and the other in a morpheme: the earliest split wins either way
    "oov_before_morpheme": ({"a": 1.0, "ab": 0.0, "cd": -3.0}, -4.0, "abcd", ("a", "bcd")),
    "morpheme_before_oov": ({"a": 1.0, "ab": 2.0, "bcd": -4.0}, -5.0, "abcd", ("a", "bcd")),
    # graphemes of two code points: e\u0301|ta and e\u0301t|a tie in score
    # and count, and the first cut is one grapheme in
    "clusters": ({"e\u0301": -1.0, "ta": -1.0, "e\u0301t": -1.0, "a": -1.0},
                 -10.0, "e\u0301ta", ("e\u0301", "ta")),
    # a long OOV piece of three two-code-point graphemes
    "cluster_in_long_oov": ({"x": 0.5}, -4.0, "xo\u0301o\u0308u\u0301",
                            ("x", "o\u0301o\u0308u\u0301")),
}


def reference_unigram(model, surface):
    """The unigram DP over every piece of the word, each looked up by its
    joined string: the O(n^2) reference for the piece-id DP."""
    g = graphemes(surface)
    n = len(g)
    best = [(0.0, 0, -1)] + [(-math.inf, 0, -1)] * n
    for j in range(1, n + 1):
        for i in range(j):
            score = best[i][0] + model.log_probs.get("".join(g[i:j]), model.log_oov)
            count = best[i][1] + 1
            if score > best[j][0] or (score == best[j][0] and count < best[j][1]):
                best[j] = (score, count, i)
    cuts = [n]
    while cuts[-1] > 0:
        cuts.append(best[cuts[-1]][2])
    return tuple("".join(g[a:b]) for a, b in zip(cuts[::-1], cuts[-2::-1]))


def reference_longest_match(model, surface):
    g = graphemes(surface)
    longest = max((len(graphemes(m)) for m in model.lexicon), default=0)
    out, i = [], 0
    while i < len(g):
        taken = 1
        for length in range(min(longest, len(g) - i), 1, -1):
            if "".join(g[i:i + length]) in model.lexicon:
                taken = length
                break
        out.append("".join(g[i:i + taken]))
        i += taken
    return tuple(out)


class TestUnigramTieBreaks:
    @pytest.mark.parametrize("via", ["segment", "table"])
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_pinned_tie_breaks(self, case, via):
        log_probs, log_oov, surface, expected = TIE_CASES[case]
        table = None
        if via == "table":
            # a corpus whose morphemes hold the model's vocabulary
            words = [SegmentedWord(m, (m,)) for m in log_probs if m != surface]
            table = WordTable([*words, SegmentedWord(surface, expected)])
        model = UnigramModel(log_probs=log_probs, log_oov=log_oov, smoothing=0.1, table=table)
        word = model.segment(surface)
        assert word.morphemes == expected == reference_unigram(model, surface)
        assert word == SegmentedWord(surface, expected)

    def test_a_morpheme_below_oov_is_refused(self):
        with pytest.raises(ValidationError, match="below log_oov"):
            UnigramModel(log_probs={"a": -1.0, "b": -6.0}, log_oov=-5.0, smoothing=0.1)

    def test_no_vocabulary_leaves_the_word_whole(self):
        model = UnigramModel(log_probs={}, log_oov=-1.0, smoothing=0.1)
        assert model.segment("e\u0301ab").morphemes == ("e\u0301ab",)


# corpora over a small alphabet with clusters, so pieces repeat across words
PIECES = ("a", "b", "ab", "ba", "c", "e\u0301", "e\u0301a", "bca", "abab")
piece_words = st.lists(st.sampled_from(PIECES), min_size=1, max_size=4)


@st.composite
def table_case(draw):
    """(training corpus, corpus the table is built from, surfaces to segment)."""
    words = {}
    for ms in draw(st.lists(piece_words, min_size=2, max_size=14)):
        words.setdefault("".join(ms), SegmentedWord("".join(ms), tuple(ms)))
    words = list(words.values())
    k = draw(st.integers(1, len(words)))
    unseen = ["".join(ms) for ms in draw(st.lists(piece_words, max_size=4))]
    surfaces = list(dict.fromkeys([w.surface for w in words] + unseen))
    return Corpus(tuple(words[:k]), "t"), Corpus(tuple(words), "t"), surfaces


class TestPieceTable:
    """Segmenting through a corpus's word table equals single-word
    segmenting, and both equal the per-piece string references."""

    @given(table_case(), st.floats(0.01, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_unigram(self, case, smoothing):
        train, whole, surfaces = case
        shared = train_unigram_viterbi(train, smoothing, table=WordTable(whole))
        alone = train_unigram_viterbi(train, smoothing)
        assert shared.table is not None and alone.table is None
        got = shared.segment_batch(surfaces)
        assert got == [alone.segment(s) for s in surfaces]
        assert [w.morphemes for w in got] == [reference_unigram(alone, s) for s in surfaces]

    @given(table_case())
    @settings(max_examples=80, deadline=None)
    def test_longest_match(self, case):
        train, whole, surfaces = case
        shared = train_longest_match(train, table=WordTable(whole))
        alone = train_longest_match(train)
        assert shared.table is not None and alone.table is None
        got = shared.segment_batch(surfaces)
        assert got == [alone.segment(s) for s in surfaces]
        assert [w.morphemes for w in got] == [reference_longest_match(alone, s) for s in surfaces]

    def test_a_table_without_the_training_morphemes_is_not_used(self):
        other = WordTable([SegmentedWord("walk", ("walk",))])
        assert train_unigram_viterbi(toy_corpus(), table=other).table is None
        assert train_longest_match(toy_corpus(), table=WordTable(["walked"])).table is None


class TestGapFeatures:
    def test_tags_left_right_and_bias(self):
        feats = gap_features("axb", 1, SMALL)
        assert feats == {
            "L:ng+0:a", "L:ng+1:x", "L:BOS",
            "R:ng-1:a", "R:ng+0:x", "R:ng+1:b",
            "BIAS",
        }

    @pytest.mark.parametrize("gap", [0, 3, -1])
    def test_out_of_range_gap_rejected(self, gap):
        with pytest.raises(DomainError):
            gap_features("abc", gap, SMALL)


class TestBoundaryLogistic:
    def test_learns_training_boundaries(self):
        model = train_boundary_logistic(toy_corpus())
        assert model.segment("walked").morphemes == ("walk", "ed")
        assert model.segment("talks").morphemes == ("talk", "s")
        assert model.segment("walk").morphemes == ("walk",)

    def test_zero_weight_model_never_splits(self):
        model = BoundaryLogisticModel(
            feature_index={"BIAS": 0}, weights=np.zeros(1), template=SMALL,
            l2_lambda=0.0,
        )
        assert model.segment("abcd").morphemes == ("abcd",)

    def test_single_grapheme_corpus_trains_to_zero(self):
        corpus = Corpus(
            (SegmentedWord("a", ("a",)), SegmentedWord("b", ("b",))),
            language_tag="short",
        )
        model = train_boundary_logistic(corpus)
        assert model.segment("ab").morphemes == ("ab",)

    def test_duplicated_batch_changes_nothing(self):
        corpus = toy_corpus()
        model = train_boundary_logistic(corpus, template=SMALL)
        f1, g1 = logistic_objective(model, list(corpus))
        f2, g2 = logistic_objective(model, list(corpus) * 2)
        assert f2 == pytest.approx(f1, rel=1e-12)
        np.testing.assert_allclose(g2, g1, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 0.25])
    def test_finite_differences(self, l2):
        corpus = toy_corpus()
        trained = train_boundary_logistic(corpus, template=SMALL)
        rng = np.random.default_rng(3)
        model = BoundaryLogisticModel(
            feature_index=trained.feature_index,
            weights=0.5 * rng.standard_normal(len(trained.feature_index)),
            template=SMALL,
            l2_lambda=l2,
        )
        _, grad = logistic_objective(model, list(corpus))
        h = 1e-6
        coords = rng.choice(len(model.weights), size=15, replace=False)
        for c in coords:
            wp = model.weights.copy()
            wm = model.weights.copy()
            wp[c] += h
            wm[c] -= h
            mp = BoundaryLogisticModel(model.feature_index, wp, SMALL, l2)
            mm = BoundaryLogisticModel(model.feature_index, wm, SMALL, l2)
            fd = (logistic_objective(mp, list(corpus))[0]
                  - logistic_objective(mm, list(corpus))[0]) / (2 * h)
            assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_dict_round_trip_preserves_scores(self):
        model = train_boundary_logistic(toy_corpus(), template=SMALL)
        clone = BoundaryLogisticModel.from_dict(model.to_dict())
        batch = toy_corpus()
        value, grad = logistic_objective(model, batch)
        clone_value, clone_grad = logistic_objective(clone, batch)
        assert clone_value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(clone_grad, grad, rtol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            train_boundary_logistic(Corpus((), language_tag="x"))

    def test_saved_model_independent_of_hash_seed(self, tmp_path):
        # the feature index (and so the saved feature order and weights) must
        # not follow set iteration order, which PYTHONHASHSEED changes
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from morphsplit.corpus import SyntheticSpec, generate_synthetic_corpus\n"
            "from morphsplit.models import save_model, train_boundary_logistic\n"
            "corpus = generate_synthetic_corpus(SyntheticSpec(num_words=80, seed=5))\n"
            "save_model(train_boundary_logistic(corpus), sys.argv[1])\n"
        )
        saved = []
        for hash_seed in ("1", "2"):
            path = tmp_path / f"model{hash_seed}.json"
            proc = subprocess.run(
                [sys.executable, "-c", code, str(path)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


def random_words(rng, count, alphabet="abcd"):
    """Distinct random segmented words of 1-7 graphemes, some of one grapheme."""
    words = {}
    for _ in range(count):
        n = int(rng.integers(1, 8))
        surface = "".join(rng.choice(list(alphabet), size=n))
        cuts = [0, *(int(c) for c in np.flatnonzero(rng.random(n - 1) < 0.4) + 1), n]
        words[surface] = SegmentedWord(
            surface, tuple(surface[i:j] for i, j in zip(cuts, cuts[1:]))
        )
    return list(words.values())


def loop_gap_rows(model, words):
    """Per-gap sorted known-feature ids and 0/1 targets, one gap at a time."""
    rows, targets = [], []
    for w in words:
        bounds = set(itertools.accumulate(len(m) for m in w.morphemes[:-1]))
        for gap in range(1, len(w.surface)):
            feats = gap_features(w.surface, gap, model.template)
            rows.append(sorted(model.feature_index[f] for f in feats if f in model.feature_index))
            targets.append(1.0 if gap in bounds else 0.0)
    return rows, np.asarray(targets)


def loop_objective(model, words):
    """The boundary-logistic objective with a Python loop over gaps."""
    rows, targets = loop_gap_rows(model, words)
    w, l2 = model.weights, model.l2_lambda
    z = np.array([w[ids].sum() for ids in rows])
    sign = 2.0 * targets - 1.0
    sigma = 1.0 / (1.0 + np.exp(-z))
    grad = l2 * w
    for ids, c in zip(rows, (sigma - targets) / len(rows)):
        grad[ids] += c
    return float(np.logaddexp(0.0, -sign * z).mean()) + 0.5 * l2 * float(w @ w), grad


def loop_segment(model, surface):
    """Cut at every gap whose summed known-feature weight is positive."""
    cuts = [0]
    for gap in range(1, len(surface)):
        feats = gap_features(surface, gap, model.template)
        z = sum(model.weights[model.feature_index[f]] for f in feats if f in model.feature_index)
        if z > 0.0:
            cuts.append(gap)
    cuts.append(len(surface))
    return tuple(surface[i:j] for i, j in zip(cuts, cuts[1:]))


class TestBoundaryLogisticKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_objective_matches_gap_loop(self, seed):
        rng = np.random.default_rng(seed)
        words = random_words(rng, 30)
        trained = train_boundary_logistic(Corpus(tuple(words), language_tag="r"))
        model = BoundaryLogisticModel(
            feature_index=trained.feature_index,
            weights=rng.standard_normal(len(trained.feature_index)),
            template=trained.template,
            l2_lambda=0.1 * seed,
        )
        batch = words + random_words(rng, 10, alphabet="abcde")
        f, grad = logistic_objective(model, batch)
        f_ref, grad_ref = loop_objective(model, batch)
        assert abs(f - f_ref) <= 1e-12
        np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_segment_batch_matches_per_word_segment(self, seed):
        rng = np.random.default_rng(10 + seed)
        words = random_words(rng, 40)
        trained = train_boundary_logistic(Corpus(tuple(words), language_tag="r"))
        # halves sum exactly in any order, so z == 0 ties are exact and frequent
        weights = 0.5 * rng.integers(-2, 3, size=len(trained.feature_index))
        model = BoundaryLogisticModel(
            trained.feature_index, weights.astype(float), trained.template, 0.0
        )
        surfaces = [w.surface for w in random_words(rng, 60, alphabet="abcde")]
        assert any(len(s) == 1 for s in surfaces)
        batch = model.segment_batch(surfaces)
        assert [w.morphemes for w in batch] == [loop_segment(model, s) for s in surfaces]
        assert batch == [model.segment(s) for s in surfaces]

    def test_segment_batch_rejects_empty_surface(self):
        model = train_boundary_logistic(toy_corpus(), template=SMALL)
        with pytest.raises(DomainError):
            model.segment_batch(["walk", ""])


class TestLongestMatch:
    def test_lexicon_is_training_morphemes(self):
        model = train_longest_match(toy_corpus())
        assert model.lexicon == {"walk", "talk", "ed", "s"}

    def test_segments_by_longest_prefix(self):
        model = train_longest_match(toy_corpus())
        assert model.segment("walked").morphemes == ("walk", "ed")
        assert model.segment("edwalk").morphemes == ("ed", "walk")

    def test_unmatched_graphemes_fall_back_to_singletons(self):
        model = train_longest_match(toy_corpus())
        assert model.segment("qqed").morphemes == ("q", "q", "ed")

    def test_greedy_not_globally_optimal(self):
        """Greedy commits to the longest prefix even when a shorter one
        would let the remainder match."""
        model = LongestMatchModel(lexicon=frozenset({"ab", "abc", "cd"}))
        assert model.segment("abcd").morphemes == ("abc", "d")

    def test_single_grapheme_word(self):
        model = train_longest_match(toy_corpus())
        assert model.segment("w").morphemes == ("w",)

    def test_empty_surface_rejected(self):
        model = train_longest_match(toy_corpus())
        with pytest.raises(DomainError):
            model.segment("")

    def test_dict_round_trip(self):
        model = train_longest_match(toy_corpus())
        clone = LongestMatchModel.from_dict(model.to_dict())
        assert clone.lexicon == model.lexicon


@st.composite
def surfaces(draw):
    return draw(st.text(alphabet="abksw", min_size=1, max_size=8))


class TestConcatenationInvariant:
    @given(surfaces())
    @settings(max_examples=60, deadline=None)
    def test_all_models_reassemble_the_surface(self, surface):
        corpus = toy_corpus()
        models = [
            train_unigram_viterbi(corpus),
            train_boundary_logistic(corpus, template=SMALL),
            train_longest_match(corpus),
        ]
        for model in models:
            out = model.segment(surface)
            assert "".join(out.morphemes) == surface
            assert all(m for m in out.morphemes)
