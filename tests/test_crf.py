"""Linear-chain CRF: partition function, gradients, decoding, training."""

import hashlib
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from morphsplit.corpus import (
    Corpus,
    Label,
    SegmentedWord,
    SyntheticSpec,
    decode_labels,
    encode_labels,
    encode_starts,
    generate_synthetic_corpus,
    graphemes,
)
from morphsplit.errors import DomainError, TrainingError, ValidationError
from morphsplit.models import (
    CrfModel,
    FeatureTable,
    FeatureTemplate,
    TrainConfig,
    crf_gradient,
    crf_log_partition,
    minimize,
    train_crf,
    viterbi_raw,
)
from morphsplit.models import crf as C
from morphsplit.models.crf import MAX_TRANSITION_SPREAD
from morphsplit.splitter import ExperimentPlan, build_grid

SMALL = FeatureTemplate(max_ngram=2, window=1)


def make_model(surfaces, seed=0, l2=0.0, template=SMALL, scale=0.5):
    """A CRF with the given surfaces' features and random weights."""
    from morphsplit.models.features import extract_features

    index = {}
    for s in surfaces:
        for pos in range(len(graphemes(s))):
            for f in sorted(extract_features(s, pos, template)):
                if f not in index:
                    index[f] = len(index)
    rng = np.random.default_rng(seed)
    n = len(index) * 6 + 36
    weights = scale * rng.standard_normal(n) if scale else np.zeros(n)
    return CrfModel(
        feature_index=index,
        weights=weights,
        template=template,
        l2_lambda=l2,
    )


def brute_force_scores(model, surface):
    """Score of every interior label sequence, by direct enumeration."""
    E = model.emissions(surface)
    T = model.transition
    L = len(E)
    paths = np.array(list(itertools.product(range(6), repeat=L)), dtype=np.int64)
    s = T[0, paths[:, 0]] + T[paths[:, -1], 1]
    for i in range(L):
        s = s + E[i, paths[:, i]]
    for i in range(L - 1):
        s = s + T[paths[:, i], paths[:, i + 1]]
    return paths, s


class TestLogPartition:
    @pytest.mark.parametrize("surface", ["a", "ab", "abc", "walked"])
    def test_zero_weights_give_length_times_log6(self, surface):
        model = make_model([surface], scale=0.0)
        L = len(graphemes(surface))
        assert crf_log_partition(model, surface) == pytest.approx(
            L * math.log(6), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("surface", ["a", "ab", "abc", "abca", "abcab"])
    def test_matches_exhaustive_sum(self, seed, surface):
        model = make_model([surface, "xyz"], seed=seed)
        _, scores = brute_force_scores(model, surface)
        assert crf_log_partition(model, surface) == pytest.approx(
            float(logsumexp(scores)), rel=1e-12
        )

    def test_single_fire_feature_shifts_by_constant(self):
        """Raising all labels of a once-per-word feature adds c to log Z."""
        model = make_model(["abc"], seed=3)
        before = crf_log_partition(model, "abc")
        bos = model.feature_index["BOS"]
        shifted = model.weights.copy()
        shifted[bos * 6:(bos + 1) * 6] += 2.5
        model2 = CrfModel(
            feature_index=model.feature_index,
            weights=shifted,
            template=model.template,
            l2_lambda=0.0,
        )
        assert crf_log_partition(model2, "abc") == pytest.approx(
            before + 2.5, rel=1e-12
        )

    def test_empty_surface_rejected(self):
        model = make_model(["ab"])
        with pytest.raises(DomainError):
            crf_log_partition(model, "")

    def test_unknown_features_are_dropped(self):
        model = make_model(["abc"], seed=4)
        value = crf_log_partition(model, "zzzz")
        assert np.isfinite(value)


class TestViterbi:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("surface", ["ab", "abc", "abca", "abcab"])
    def test_matches_exhaustive_argmax(self, seed, surface):
        model = make_model([surface, "qrs"], seed=seed)
        paths, scores = brute_force_scores(model, surface)
        best = int(np.argmax(scores))
        got_path, got_score = viterbi_raw(model, surface)
        assert got_score == pytest.approx(float(scores[best]), rel=1e-12)
        assert tuple(int(l) for l in got_path) == tuple(paths[best])

    def test_zero_weights_pick_lowest_label_everywhere(self):
        model = make_model(["abc"], scale=0.0)
        path, score = viterbi_raw(model, "abc")
        assert path == (Label.START, Label.START, Label.START)
        assert score == 0.0

    def test_transition_shift_leaves_argmax_alone(self):
        """Adding c to every transition shifts scores by (L+1)c only."""
        model = make_model(["abcd"], seed=7)
        path, score = viterbi_raw(model, "abcd")
        shifted = model.weights.copy()
        shifted[-36:] += 1.7
        model2 = CrfModel(
            feature_index=model.feature_index,
            weights=shifted,
            template=model.template,
            l2_lambda=0.0,
        )
        path2, score2 = viterbi_raw(model2, "abcd")
        assert path2 == path
        assert score2 == pytest.approx(score + 5 * 1.7, rel=1e-12)

    def test_decode_repairs_to_valid_sequence(self):
        model = make_model(["abc"], seed=5)
        seq = encode_labels(model.segment("abc"))
        assert seq.labels[0] == Label.START and seq.labels[-1] == Label.END

    def test_zero_model_segments_every_grapheme(self):
        model = make_model(["walked"], scale=0.0)
        assert model.segment("walked").morphemes == ("w", "a", "l", "k", "e", "d")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("quantized", [False, True])
    def test_segment_batch_matches_per_word_viterbi(self, seed, quantized):
        rng = np.random.default_rng(seed)
        surfaces = sorted({
            "".join(rng.choice(list("abcde"), size=int(rng.integers(1, 7))))
            for _ in range(80)
        })
        assert any(len(s) == 1 for s in surfaces)
        model = make_model(surfaces[::2], seed=seed)
        if quantized:
            # whole-number weights sum exactly, so equal-scoring paths tie exactly
            model.weights[:] = rng.integers(-1, 2, size=len(model.weights))
        batch = model.segment_batch(surfaces)
        for surface, got in zip(surfaces, batch):
            labels = (Label.START, *map(Label, loop_viterbi(model, surface)), Label.END)
            assert got == decode_labels(surface, labels)
            assert got == model.segment(surface)

    def test_segment_batch_rejects_empty_surface(self):
        model = make_model(["abc"], seed=1)
        with pytest.raises(DomainError):
            model.segment_batch(["abc", ""])


def loop_viterbi(model, surface):
    """Best interior label ids of one word, one position at a time.

    Each argmax takes the first maximum, so ties go to the lower label.
    """
    E = model.emissions(surface)
    T = model.transition
    v = T[Label.START] + E[0]
    back = []
    for i in range(1, len(E)):
        scores = v[:, None] + T
        back.append(np.argmax(scores, axis=0))
        v = scores.max(axis=0) + E[i]
    path = [int(np.argmax(v + T[:, Label.END]))]
    for b in reversed(back):
        path.append(int(b[path[-1]]))
    return path[::-1]


class TestGradient:
    def test_single_char_zero_weight_gradient(self):
        """One-grapheme word, zero weights: marginals are uniform over 6."""
        word = SegmentedWord("a", ("a",))
        model = make_model(["a"], scale=0.0, l2=0.0)
        _, grad = crf_gradient(model, [word])
        n_f = len(model.feature_index)
        gW = grad[: n_f * 6].reshape(n_f, 6)
        gT = grad[n_f * 6:].reshape(6, 6)
        s = int(Label.S)
        emission_row = np.full(6, 1 / 6)
        emission_row[s] -= 1.0
        for fid in model.feature_index.values():
            assert gW[fid] == pytest.approx(emission_row, abs=1e-12)
        # T[START, END] serves as both the entry and the exit transition of
        # a length-1 word, so its expected count doubles.
        start_row = np.full(6, 1 / 6)
        start_row[s] -= 1.0
        start_row[1] += 1 / 6
        end_col = np.full(6, 1 / 6)
        end_col[s] -= 1.0
        end_col[0] += 1 / 6
        assert gT[0] == pytest.approx(start_row, abs=1e-12)
        assert gT[:, 1] == pytest.approx(end_col, abs=1e-12)

    def test_objective_is_nll_plus_penalty(self):
        word = SegmentedWord("ab", ("a", "b"))
        model = make_model(["ab"], seed=2, l2=0.3)
        obj, _ = crf_gradient(model, [word])
        paths, scores = brute_force_scores(model, "ab")
        gold = np.array([int(Label.S), int(Label.S)])
        gold_score = float(scores[np.all(paths == gold, axis=1)][0])
        nll = float(logsumexp(scores)) - gold_score
        penalty = 0.5 * 0.3 * float(model.weights @ model.weights)
        assert obj == pytest.approx(nll + penalty, rel=1e-12)

    def test_duplicated_batch_changes_nothing(self):
        words = [
            SegmentedWord("walked", ("walk", "ed")),
            SegmentedWord("ab", ("a", "b")),
        ]
        model = make_model(["walked", "ab"], seed=6, l2=0.1)
        obj1, g1 = crf_gradient(model, words)
        obj2, g2 = crf_gradient(model, words * 3)
        assert obj2 == pytest.approx(obj1, rel=1e-12)
        np.testing.assert_allclose(g2, g1, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("l2", [0.0, 0.2])
    def test_finite_differences(self, l2):
        words = [
            SegmentedWord("aba", ("ab", "a")),
            SegmentedWord("bc", ("b", "c")),
            SegmentedWord("cab", ("c", "ab")),
        ]
        base = make_model(["aba", "bc", "cab"], seed=9, l2=l2)
        _, grad = crf_gradient(base, words)

        def value(w):
            m = CrfModel(
                feature_index=base.feature_index,
                weights=w,
                template=base.template,
                l2_lambda=l2,
            )
            return crf_gradient(m, words)[0]

        rng = np.random.default_rng(0)
        coords = rng.choice(len(base.weights), size=20, replace=False)
        h = 1e-5
        for c in coords:
            wp = base.weights.copy()
            wm = base.weights.copy()
            wp[c] += h
            wm[c] -= h
            fd = (value(wp) - value(wm)) / (2 * h)
            assert grad[c] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_empty_batch_rejected(self):
        model = make_model(["ab"])
        with pytest.raises(DomainError):
            crf_gradient(model, [])


def reference_emissions(model, surface):
    """Per-position label scores summed from ``extract_features`` directly."""
    return np.array([
        model.emission[feature_ids_at(model, surface, pos)].sum(axis=0)
        for pos in range(len(graphemes(surface)))
    ])


def feature_ids_at(model, surface, pos):
    from morphsplit.models.features import extract_features

    return [model.feature_index[f] for f in extract_features(surface, pos, model.template)
            if f in model.feature_index]


def gold_ids(word):
    return [int(l) for l in encode_labels(word).labels[1:-1]]


def gold_score(model, word):
    E = reference_emissions(model, word.surface)
    T = model.transition
    y = gold_ids(word)
    score = T[Label.START, y[0]] + T[y[-1], Label.END] + sum(E[i, y[i]] for i in range(len(y)))
    return float(score + sum(T[y[i], y[i + 1]] for i in range(len(y) - 1)))


def log_space_log_z(model, surface):
    """log Z from a forward pass in log space, one position at a time."""
    E = reference_emissions(model, surface)
    T = model.transition
    a = T[Label.START] + E[0]
    for i in range(1, len(E)):
        a = logsumexp(a[:, None] + T, axis=0) + E[i]
    return float(logsumexp(a + T[:, Label.END]))


def enumerated_objective(model, words):
    """Mean NLL plus penalty, and its gradient, by enumerating all 6^L
    interior label paths of every word."""
    n_f = len(model.feature_index)
    T = model.transition
    grad = np.zeros_like(model.weights)
    gW = grad[: n_f * 6].reshape(n_f, 6)
    gT = grad[n_f * 6:].reshape(6, 6)
    start, end = int(Label.START), int(Label.END)
    total = 0.0
    for word in words:
        E = reference_emissions(model, word.surface)
        L = len(E)
        paths = np.array(list(itertools.product(range(6), repeat=L)), dtype=np.int64)
        s = T[start, paths[:, 0]] + T[paths[:, -1], end]
        for i in range(L):
            s = s + E[i, paths[:, i]]
        for i in range(L - 1):
            s = s + T[paths[:, i], paths[:, i + 1]]
        log_z = float(logsumexp(s))
        p = np.exp(s - log_z)
        y = gold_ids(word)
        total += log_z - gold_score(model, word)
        for i in range(L):
            marg = np.bincount(paths[:, i], weights=p, minlength=6)
            marg[y[i]] -= 1.0
            gW[feature_ids_at(model, word.surface, i)] += marg
        np.add.at(gT, (start, paths[:, 0]), p)
        np.add.at(gT, (paths[:, -1], end), p)
        gT[start, y[0]] -= 1.0
        gT[y[-1], end] -= 1.0
        for i in range(L - 1):
            np.add.at(gT, (paths[:, i], paths[:, i + 1]), p)
            gT[y[i], y[i + 1]] -= 1.0
    w, l2 = model.weights, model.l2_lambda
    return total / len(words) + 0.5 * l2 * float(w @ w), grad / len(words) + l2 * w


def with_weights(model, weights):
    return CrfModel(
        feature_index=model.feature_index,
        weights=weights,
        template=model.template,
        l2_lambda=model.l2_lambda,
    )


# every length 1-6, in no length order, lengths repeated: words end at
# every position of the length-sorted batch
MIXED = [
    SegmentedWord("abc", ("ab", "c")),
    SegmentedWord("a", ("a",)),
    SegmentedWord("cabdab", ("cab", "d", "ab")),
    SegmentedWord("ba", ("b", "a")),
    SegmentedWord("dcba", ("dcba",)),
    SegmentedWord("b", ("b",)),
    SegmentedWord("abcda", ("a", "bcd", "a")),
    SegmentedWord("cd", ("cd",)),
    SegmentedWord("bad", ("b", "ad")),
]
LONG = SegmentedWord("abcdabcdbcadab", ("abcd", "abc", "dbca", "dab"))


class TestMixedLengthBatch:
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_objective_and_gradient_match_enumeration(self, seed, l2):
        model = make_model([w.surface for w in MIXED], seed=seed, l2=l2)
        obj, grad = crf_gradient(model, MIXED)
        want_obj, want_grad = enumerated_objective(model, MIXED)
        assert obj == pytest.approx(want_obj, rel=1e-10)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        model = make_model([w.surface for w in MIXED], seed=3, l2=0.1)
        _, grad = crf_gradient(model, MIXED)
        numeric = np.empty_like(grad)
        h = 1e-5
        for c in range(len(grad)):
            wp, wm = model.weights.copy(), model.weights.copy()
            wp[c] += h
            wm[c] -= h
            numeric[c] = (crf_gradient(with_weights(model, wp), MIXED)[0]
                          - crf_gradient(with_weights(model, wm), MIXED)[0]) / (2 * h)
        scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        assert float(np.max(np.abs(grad - numeric) / scale)) <= 1e-4

    def test_long_word_matches_log_space_forward(self):
        words = [*MIXED, LONG]
        model = make_model([w.surface for w in words], seed=4)
        assert len(graphemes(LONG.surface)) >= 12
        log_z = log_space_log_z(model, LONG.surface)
        assert crf_log_partition(model, LONG.surface) == pytest.approx(log_z, rel=1e-12)
        assert crf_gradient(model, [LONG])[0] == pytest.approx(
            log_z - gold_score(model, LONG), rel=1e-10
        )
        want = np.mean([log_space_log_z(model, w.surface) - gold_score(model, w) for w in words])
        assert crf_gradient(model, words)[0] == pytest.approx(want, rel=1e-10)


def adversarial_model(spread, depth):
    """A model of one-grapheme features on which probability space fails
    first: every transition into or out of label 2 scores +spread/2, all
    others -spread/2, and label 2 scores -depth at every position, so the
    paths through label 2 outweigh the rest by exp(2 * spread - depth)."""
    template = FeatureTemplate(max_ngram=1, window=0, include_position_flags=False)
    index = {"ng+0:a": 0, "ng+0:b": 1, "ng+0:c": 2}
    W = np.zeros((3, 6))
    W[:, 2] = -depth
    T = np.full((6, 6), -spread / 2)
    T[:, 2] = T[2, :] = spread / 2
    return CrfModel(index, np.concatenate([W.ravel(), T.ravel()]), template, 0.0)


class TestRangeGuard:
    def test_large_emission_scores_match_enumeration(self):
        words = MIXED[:-1]
        model = make_model([w.surface for w in words], seed=5)
        n_e = len(model.feature_index) * 6
        model.weights[:n_e] *= 1000.0
        obj, grad = crf_gradient(model, words)
        want_obj, want_grad = enumerated_objective(model, words)
        assert obj == pytest.approx(want_obj, rel=1e-10)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9)
        for w in words:
            assert crf_log_partition(model, w.surface) == pytest.approx(
                log_space_log_z(model, w.surface), rel=1e-12
            )

    @pytest.mark.parametrize("spread", [100.0, 250.0, MAX_TRANSITION_SPREAD])
    @pytest.mark.parametrize("depth", [600.0, 745.0, 800.0])
    def test_spread_up_to_the_bound_stays_exact(self, spread, depth):
        model = adversarial_model(spread, depth)
        word = SegmentedWord("abc", ("a", "bc"))
        assert crf_log_partition(model, "abc") == pytest.approx(
            log_space_log_z(model, "abc"), rel=1e-12
        )
        obj, grad = crf_gradient(model, [word])
        want_obj, want_grad = enumerated_objective(model, [word])
        assert obj == pytest.approx(want_obj, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("spread", [MAX_TRANSITION_SPREAD + 1.0, 373.0, 650.0, 2000.0])
    def test_wider_spread_raises_naming_it(self, spread):
        model = adversarial_model(spread, 745.0)
        match = f"span {spread:.6g} nats"
        with pytest.raises(TrainingError, match=match):
            crf_gradient(model, [SegmentedWord("abc", ("a", "bc"))])
        with pytest.raises(TrainingError, match=match):
            crf_log_partition(model, "abc")

    def test_scaled_random_transitions_raise(self):
        """Transition weights x300 lose accuracy silently without the guard."""
        model = make_model([w.surface for w in MIXED], seed=6)
        model.weights[-36:] *= 300.0
        with pytest.raises(TrainingError, match="transition scores span"):
            crf_gradient(model, MIXED)

    def test_training_raises_past_the_bound(self, monkeypatch):
        import morphsplit.models.crf as crf

        def start_far_out(fun, x0, config, context):
            x = x0.copy()
            x[-36:] = np.linspace(-200.0, 200.0, 36)
            return minimize(fun, x, config, context)

        monkeypatch.setattr(crf, "minimize", start_far_out)
        with pytest.raises(TrainingError, match="span 400 nats"):
            train_crf(toy_corpus())


def toy_corpus():
    words = [
        SegmentedWord("walked", ("walk", "ed")),
        SegmentedWord("talked", ("talk", "ed")),
        SegmentedWord("walks", ("walk", "s")),
        SegmentedWord("talks", ("talk", "s")),
        SegmentedWord("walk", ("walk",)),
    ]
    return Corpus(tuple(words), language_tag="toy")


class TestTraining:
    def test_fits_training_set_without_penalty(self):
        corpus = toy_corpus()
        model = train_crf(corpus, config=TrainConfig(l2_lambda=0.0))
        for w in corpus:
            assert model.segment(w.surface) == w

    def test_huge_penalty_pins_weights_near_zero(self):
        corpus = toy_corpus()
        model = train_crf(corpus, config=TrainConfig(l2_lambda=1e6))
        assert float(np.abs(model.weights).max()) < 1e-4

    def test_deterministic(self):
        corpus = toy_corpus()
        m1 = train_crf(corpus)
        m2 = train_crf(corpus)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.feature_index == m2.feature_index

    def test_gradient_descent_history_monotone(self):
        corpus = toy_corpus()
        model = train_crf(
            corpus,
            template=SMALL,
            config=TrainConfig(optimizer="gradient_descent", max_iterations=25),
        )
        hist = model.history
        assert len(hist) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_generalizes_on_synthetic_language(self):
        spec = SyntheticSpec(num_words=200, seed=1)
        corpus = generate_synthetic_corpus(spec)
        train = Corpus(tuple(corpus)[:150], language_tag="syn")
        held = tuple(corpus)[150:]
        model = train_crf(train, template=SMALL)
        exact = sum(model.segment(w.surface) == w for w in held)
        assert exact / len(held) >= 0.95

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            train_crf(Corpus((), language_tag="x"))

    def test_dict_round_trip_preserves_behavior(self):
        corpus = toy_corpus()
        model = train_crf(corpus, template=SMALL)
        clone = CrfModel.from_dict(model.to_dict())
        for w in corpus:
            assert clone.segment(w.surface) == model.segment(w.surface)
        assert crf_log_partition(clone, "walked") == pytest.approx(
            crf_log_partition(model, "walked"), rel=1e-12
        )

    def test_weight_length_validated(self):
        with pytest.raises(ValidationError):
            CrfModel(
                feature_index={"f": 0},
                weights=np.zeros(5),
                template=SMALL,
                l2_lambda=0.0,
            )


# Rows whose six terms sum differently in another order: left to right the
# first is 1e16 (each 1 is lost), added right to left it is 1e16 + 2; the
# second is 1 left to right and 0 added in pairs.
ORDER_SENSITIVE_ROWS = np.array([
    [1e16, 1.0, 1.0, 0.0, 0.0, 0.0],
    [1.0, 1e16, -1e16, 1.0, 0.0, 0.0],
    [0.1, 0.2, 0.3, 1e-17, 0.4, 1e-300],
])


def left_to_right(row):
    total = row[0]
    for x in row[1:]:
        total += x
    return total


class TestSixColumnReductions:
    """The forward pass reduces its (n, 6) arrays column by column; the
    result must be the bits numpy's axis=1 reductions give, or the saved
    model bytes move."""

    def rows(self):
        rng = np.random.default_rng(3)
        return np.concatenate([ORDER_SENSITIVE_ROWS, rng.standard_normal((200, 6)),
                               np.exp(rng.normal(scale=30.0, size=(200, 6)))])

    def test_rows_tell_the_orders_apart(self):
        first, second = ORDER_SENSITIVE_ROWS[:2].tolist()
        assert left_to_right(first) != left_to_right(first[::-1])
        assert left_to_right(second) != (second[0] + second[1]) + (second[2] + second[3])

    def test_row_sum_is_numpys_left_to_right_sum(self):
        a = self.rows()
        out = np.empty(len(a))
        assert C._row_sum(a, out=out) is out
        assert np.array_equal(out, a.sum(axis=1))
        assert out.tolist() == [left_to_right(r) for r in a.tolist()]

    def test_row_sum_of_a_slice(self):
        a = self.rows()
        out = np.empty(100)
        C._row_sum(a[1:101], out=out)
        assert np.array_equal(out, a[1:101].sum(axis=1))

    def test_row_max_is_numpys_max(self):
        a = self.rows()
        assert np.array_equal(C._row_max(a), a.max(axis=1))
        assert np.array_equal(C._row_max(-a), (-a).max(axis=1))

    def test_best_source_is_numpys_max_and_first_argmax(self):
        rng = np.random.default_rng(5)
        # whole numbers in {-1, 0, 1} tie exactly and often
        for v, T in ((rng.standard_normal((300, 6)), rng.standard_normal((6, 6))),
                     (rng.integers(-1, 2, (300, 6)).astype(float),
                      rng.integers(-1, 2, (6, 6)).astype(float)),
                     (np.zeros((300, 6)), np.zeros((6, 6)))):
            scores = v[:, :, None] + T[None, :, :]
            best, arg = C._best_source(v, T)
            assert np.array_equal(best, scores.max(axis=1))
            assert np.array_equal(arg, np.argmax(scores, axis=1))


def train_cells_batch():
    """The CRF training batch of the first cell of perfbench's train-cells
    workload at seed 0: 288 words, 1,960 positions."""
    corpus = generate_synthetic_corpus(SyntheticSpec(400, 30, 8, seed=0))
    plan = ExperimentPlan(
        new_test_fractions=(Fraction(1, 5),), samples_per_fraction=1, residual_splits=2,
        new_test_generation="random", master_seed=0, adversarial_budget=2000,
    )
    cell = build_grid(corpus, plan, "random")[0]
    table = FeatureTable(corpus, FeatureTemplate())
    train = corpus.subset(cell.train_indices)
    model, starts, features = CrfModel.untrained(train, None, 0.1, table)
    n = len(model.feature_index)
    return C._Batch(*features, n, encode_starts(starts)), n


@pytest.mark.parametrize(
    "scale, objective, grad_sha256",
    [
        (0.0, 12.193918610024262,
         "c9e3ae5368f895f948818d9195051df8e940fe20a55cf23621eb022974647b74"),
        (0.1, 16.112424950343506,
         "4ccecf337e12029b1fb063588fafc2bf88907109e79ffbc91f3873d2e4880dbf"),
    ],
)
def test_objective_and_gradient_bits_are_pinned(scale, objective, grad_sha256):
    """Pinned before the forward pass reduced column by column."""
    batch, n = train_cells_batch()
    assert batch.X.shape == (1960, n)
    weights = np.random.default_rng(0).normal(scale=scale, size=n * 6 + 36)
    f, grad = C._objective_and_grad(weights, batch, n, 0.1)
    assert f == objective
    assert hashlib.sha256(grad.tobytes()).hexdigest() == grad_sha256


def axis1_viterbi(E, T, batch):
    """``crf._viterbi`` as it was before its source-label reductions were
    chained: every max and argmax over ``axis=1``."""
    off, active = batch.offsets, batch.active
    ends = [*active[1:], 0]
    best = np.empty(len(batch.lengths), dtype=np.int64)
    score = np.empty(len(batch.lengths))
    back = np.empty(E.shape, dtype=np.int64)
    v = T[Label.START] + E[:off[1]]
    for i, k in enumerate(ends):
        done = v[k:] + T[:, Label.END]
        best[k:len(v)] = np.argmax(done, axis=1)
        score[k:len(v)] = done[np.arange(len(done)), best[k:len(v)]]
        if k:
            scores = v[:k, :, None] + T[None, :, :]
            back[off[i + 1]:off[i + 2]] = np.argmax(scores, axis=1)
            v = scores.max(axis=1) + E[off[i + 1]:off[i + 2]]
    labels = np.empty(len(E), dtype=np.int64)
    path = best.copy()
    for i in range(len(active) - 1, -1, -1):
        k = ends[i]
        path[:k] = back[off[i + 1] + np.arange(k), path[:k]]
        labels[off[i]:off[i + 1]] = path[:active[i]]
    return labels, score


@pytest.mark.parametrize("weights", ["normal", "ties", "zero"])
def test_viterbi_matches_the_axis1_reference(weights):
    """Labels and path scores equal the axis=1 decoder's bits, also where
    whole-number or zero weights make equal-scoring paths tie exactly."""
    batch, n = train_cells_batch()
    rng = np.random.default_rng(6)
    w = {
        "normal": rng.normal(size=n * 6 + 36),
        "ties": rng.integers(-1, 2, size=n * 6 + 36).astype(float),
        "zero": np.zeros(n * 6 + 36),
    }[weights]
    E = batch.X @ w[:n * 6].reshape(n, 6)
    T = w[n * 6:].reshape(6, 6)
    labels, score = C._viterbi(E, T, batch)
    ref_labels, ref_score = axis1_viterbi(E, T, batch)
    assert np.array_equal(labels, ref_labels)
    assert score.tobytes() == ref_score.tobytes()


class TestMinimize:
    def quad(self, center):
        def fun(x):
            d = x - center
            return 0.5 * float(d @ d), d

        return fun

    @pytest.mark.parametrize("optimizer", ["lbfgs", "gradient_descent"])
    def test_converges_on_quadratic(self, optimizer):
        center = np.array([1.0, -2.0, 0.5])
        result = minimize(
            self.quad(center),
            np.zeros(3),
            TrainConfig(optimizer=optimizer, max_iterations=500, convergence_tol=1e-12),
        )
        np.testing.assert_allclose(result.x, center, atol=1e-5)
        assert result.converged

    def test_history_starts_at_initial_objective(self):
        result = minimize(
            self.quad(np.ones(2)),
            np.zeros(2),
            TrainConfig(optimizer="gradient_descent", max_iterations=50),
        )
        assert result.history[0] == pytest.approx(1.0)
        assert all(b <= a for a, b in zip(result.history, result.history[1:]))

    @pytest.mark.parametrize("optimizer", ["lbfgs", "gradient_descent"])
    def test_stopping_unconverged_logs_a_warning(self, optimizer, caplog):
        scale = np.array([1.0, 10.0, 100.0])

        def fun(x):
            d = x - 1.0
            return 0.5 * float(scale * d @ d), scale * d

        with caplog.at_level(logging.WARNING, logger="morphsplit.models.optim"):
            result = minimize(
                fun, np.zeros(3), TrainConfig(optimizer=optimizer, max_iterations=1),
                context="toy training",
            )
        assert not result.converged
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert "toy training" in record.getMessage()
        assert "1 iterations" in record.getMessage()
        assert f"{result.objective:.10g}" in record.getMessage()

    @pytest.mark.parametrize("optimizer", ["lbfgs", "gradient_descent"])
    def test_converged_run_logs_nothing(self, optimizer, caplog):
        with caplog.at_level(logging.WARNING, logger="morphsplit.models.optim"):
            result = minimize(
                self.quad(np.ones(2)), np.zeros(2), TrainConfig(optimizer=optimizer)
            )
        assert result.converged
        assert caplog.records == []

    @pytest.mark.parametrize("optimizer", ["lbfgs", "gradient_descent"])
    def test_non_finite_objective_raises(self, optimizer):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(TrainingError):
            minimize(bad, np.zeros(2), TrainConfig(optimizer=optimizer))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(optimizer="adam")
        with pytest.raises(ValidationError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            TrainConfig(convergence_tol=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(l2_lambda=-0.1)
