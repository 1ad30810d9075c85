"""Positional n-gram feature extraction and the shared feature table."""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit.corpus import Corpus, SegmentedWord, SyntheticSpec, generate_synthetic_corpus, graphemes
from morphsplit.errors import ContractError, ValidationError
from morphsplit.models import (
    FeatureTable,
    FeatureTemplate,
    TrainConfig,
    crf_gradient,
    extract_features,
    gap_features,
    load_model,
    logistic_objective,
    save_model,
    train_boundary_logistic,
    train_crf,
)
from morphsplit.models import features as F


class TestTemplate:
    def test_defaults(self):
        t = FeatureTemplate()
        assert t.max_ngram == 3
        assert t.window == 2
        assert t.include_position_flags

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            FeatureTemplate(max_ngram=0)
        with pytest.raises(ValidationError):
            FeatureTemplate(window=-1)

    def test_dict_round_trip(self):
        t = FeatureTemplate(max_ngram=3, window=1)
        assert FeatureTemplate.from_dict(t.to_dict()) == t


class TestExtraction:
    def test_two_char_word_start(self):
        feats = extract_features("ab", 0, FeatureTemplate(max_ngram=1, window=1))
        assert feats == {"ng+0:a", "ng+1:b", "BOS"}

    def test_two_char_word_end(self):
        feats = extract_features("ab", 1, FeatureTemplate(max_ngram=1, window=1))
        assert feats == {"ng-1:a", "ng+0:b", "EOS"}

    def test_interior_position_has_no_flags(self):
        feats = extract_features("abc", 1, FeatureTemplate(max_ngram=1, window=1))
        assert feats == {"ng-1:a", "ng+0:b", "ng+1:c"}

    def test_bigrams_within_window(self):
        feats = extract_features("abcd", 1, FeatureTemplate(max_ngram=2, window=1))
        assert "ng-1:ab" in feats
        assert "ng+0:bc" in feats
        assert "ng+1:cd" not in feats

    def test_window_zero(self):
        feats = extract_features("abc", 1, FeatureTemplate(max_ngram=2, window=0))
        assert feats == {"ng+0:b"}

    def test_position_out_of_range(self):
        with pytest.raises(ContractError):
            extract_features("ab", 2, FeatureTemplate())
        with pytest.raises(ContractError):
            extract_features("ab", -1, FeatureTemplate())

    def test_deterministic(self):
        a = extract_features("avocados", 3, FeatureTemplate())
        b = extract_features("avocados", 3, FeatureTemplate())
        assert a == b

    def test_grapheme_positions(self):
        """Window arithmetic counts grapheme clusters, not code points."""
        word = "móza"
        feats = extract_features(word, 1, FeatureTemplate(max_ngram=1, window=1))
        assert feats == {"ng-1:m", "ng+0:ó", "ng+1:z"}

    def test_brute_force_enumeration(self):
        """Independent re-derivation of the default-template feature set."""
        word = "avocados"
        pos = 3
        template = FeatureTemplate()
        expected = set()
        n = len(word)
        lo = max(0, pos - template.window)
        hi = min(n - 1, pos + template.window)
        for size in range(1, template.max_ngram + 1):
            for start in range(lo, hi + 1):
                if start + size - 1 > hi:
                    continue
                expected.add(f"ng{start - pos:+d}:{word[start:start + size]}")
        if pos == 0:
            expected.add("BOS")
        if pos == n - 1:
            expected.add("EOS")
        assert extract_features(word, pos, template) == expected


# combining marks (o + U+0301 is one grapheme), one-grapheme words, repeated
# windows across words
TABLE_WORDS = (
    "avocados", "a", "e\u0301", "mo\u0301za", "mo\u0301zas", "ab", "abab",
    "babab", "zo\u0301o\u0301", "x\u0301y", "dados",
)
TEMPLATES = [
    FeatureTemplate(max_ngram=n, window=w, include_position_flags=flags)
    for n, w, flags in itertools.product((1, 2, 3), (0, 1, 2), (True, False))
]


def csr_names(ranks, ptr, names):
    return [{names[r] for r in ranks[a:b]} for a, b in zip(ptr, ptr[1:])]


class TestFeatureTable:
    @pytest.mark.parametrize("template", TEMPLATES, ids=str)
    def test_names_match_the_reference_extraction(self, template):
        table = FeatureTable(TABLE_WORDS, template)
        assert list(table.names) == sorted(table.names)
        for surface in TABLE_WORDS:
            rows = table.rows([surface])
            n = len(graphemes(surface))
            assert csr_names(*table.position_ranks(rows), table.names) == [
                extract_features(surface, p, template) for p in range(n)
            ]
            assert csr_names(*table.gap_ranks(rows), table.gap_names) == [
                gap_features(surface, g, template) for g in range(1, n)
            ]

    @pytest.mark.parametrize("template", TEMPLATES[:6], ids=str)
    def test_ranks_sort_by_name_within_positions_and_gaps(self, template):
        table = FeatureTable(TABLE_WORDS, template)
        rows = table.rows(TABLE_WORDS)
        for ranks, ptr, names in (
            (*table.position_ranks(rows), table.names),
            (*table.gap_ranks(rows), table.gap_names),
        ):
            for a, b in zip(ptr, ptr[1:]):
                got = [names[r] for r in ranks[a:b]]
                assert got == sorted(got)

    def test_rows_gather_in_the_order_given(self):
        table = FeatureTable(TABLE_WORDS, FeatureTemplate())
        picked = ["babab", "a", "avocados", "a", "mo\u0301za"]
        ranks, ptr = table.position_ranks(table.rows(picked))
        one_by_one = [table.position_ranks(table.rows([s])) for s in picked]
        assert np.array_equal(ranks, np.concatenate([r for r, _ in one_by_one]))
        assert np.array_equal(np.diff(ptr), np.concatenate([np.diff(p) for _, p in one_by_one]))
        ranks, ptr = table.gap_ranks(table.rows(picked))
        one_by_one = [table.gap_ranks(table.rows([s])) for s in picked]
        assert np.array_equal(ranks, np.concatenate([r for r, _ in one_by_one]))
        assert np.array_equal(np.diff(ptr), np.concatenate([np.diff(p) for _, p in one_by_one]))

    def test_surfaces_outside_the_table_have_no_rows(self):
        table = FeatureTable(["ab", "ab", "c"], FeatureTemplate())
        assert table.surfaces == ("ab", "c")
        assert table.rows(["c", "ab"]).tolist() == [1, 0]
        assert table.rows(["ab", "zz"]) is None

    @pytest.mark.parametrize("window", [0, 2])
    def test_table_build_makes_no_per_key_extraction(self, window, monkeypatch):
        calls = []
        monkeypatch.setattr(F, "_window_features", lambda *key: calls.append(key))
        words = [w.surface for w in generate_synthetic_corpus(SyntheticSpec(200, 20, 6, seed=5))]
        table = FeatureTable(words, FeatureTemplate(window=window))
        assert calls == []
        assert len(table.names) > 0

    def test_training_refuses_a_table_for_another_template(self):
        corpus = Corpus((SegmentedWord("ab", ("a", "b")),), "t")
        table = FeatureTable(["ab"], FeatureTemplate(window=1))
        with pytest.raises(ContractError):
            train_crf(corpus, template=FeatureTemplate(), table=table)
        assert train_crf(corpus, table=table).template == FeatureTemplate(window=1)


def reference_table(surfaces, template):
    """(names, position ranks, gap ranks) of the distinct ``surfaces`` from
    the per-key extraction: each position's features through
    ``_window_features``, every name ranked in sorted order."""
    surfaces = list(dict.fromkeys(surfaces))
    feats = []
    for s in surfaces:
        g = graphemes(s)
        for p in range(len(g)):
            lo, hi = max(0, p - template.window), min(len(g), p + template.window + 1)
            feats.append(F._window_features(g[lo:hi], p - lo, p == 0, p == len(g) - 1, template))
    names = sorted(set().union(*feats))
    rank = {f: r for r, f in enumerate(names)}
    positions = [sorted(rank[f] for f in fs) for fs in feats]
    V = len(names)
    gaps, start = [], 0
    for s in surfaces:
        n = len(graphemes(s))
        for left, right in zip(positions[start:start + n], positions[start + 1:start + n]):
            gaps.append([0, *(1 + r for r in left), *(1 + V + r for r in right)])
        start += n
    return names, positions, gaps


def csr_lists(ranks, ptr):
    return [ranks[a:b].tolist() for a, b in zip(ptr.tolist(), ptr[1:].tolist())]


def check_against_reference(surfaces, template):
    table = FeatureTable(surfaces, template)
    names, positions, gaps = reference_table(surfaces, template)
    rows = np.arange(len(table.surfaces), dtype=np.int64)
    assert list(table.names) == names
    assert csr_lists(*table.position_ranks(rows)) == positions
    assert csr_lists(*table.gap_ranks(rows)) == gaps


# Grapheme pieces: plain letters; combining marks, which join the letter
# before them into one cluster (and stand alone at a word's start); and
# clusters of several code points: CRLF, a flag, a ZWJ emoji sequence, a
# Hangul syllable spelled in jamo, a prepend mark.
PIECES = (
    "a", "b", "o", "z", "\u0301", "\u0308", "e\u0301", "\r\n",
    "\U0001F1EB\U0001F1F7", "\U0001F469\u200d\U0001F4BB", "\u1100\u1161\u11a8",
    "\u0600", "\u0600a",
)
words_st = st.lists(st.sampled_from(PIECES), min_size=1, max_size=9).map("".join)


class TestTableEquivalence:
    """The table built from integer grapheme codes equals the per-key
    reference extraction: names, position ranks and gap ranks."""

    @pytest.mark.parametrize(
        "template",
        [FeatureTemplate(n, w, flags)
         for n, w, flags in itertools.product((1, 2, 3, 4), (0, 1, 2, 3), (True, False))],
        ids=str,
    )
    @settings(max_examples=10, deadline=None)
    @given(st.lists(words_st, max_size=12))
    def test_random_words(self, template, surfaces):
        check_against_reference(surfaces, template)

    @pytest.mark.parametrize("template", TEMPLATES, ids=str)
    def test_no_words(self, template):
        table = FeatureTable([], template)
        assert table.names == ()
        check_against_reference([], template)

    @pytest.mark.parametrize("template", TEMPLATES, ids=str)
    def test_one_grapheme_words(self, template):
        check_against_reference(["a", "e\u0301", "\r\n", "\u0301", "b"], template)

    def test_codes_past_int64_for_a_base_g_ngram(self):
        """8-grams over 3,000 graphemes: a base-3000 code of an 8-gram would
        need 93 bits, the paired ids stay below the position count."""
        rng = np.random.default_rng(0)
        alphabet = [chr(0x4E00 + i) for i in range(3000)]
        letters = np.concatenate([rng.permutation(3000), rng.integers(0, 3000, 1200)])
        lengths = rng.integers(1, 13, size=600)
        cuts = np.cumsum(lengths)
        surfaces = ["".join(alphabet[i] for i in part)
                    for part in np.split(letters, cuts[cuts < len(letters)]) if len(part)]
        assert len({g for s in surfaces for g in s}) == 3000
        assert 3000 ** 8 > 2 ** 63
        check_against_reference(surfaces, FeatureTemplate(max_ngram=8, window=4))


def saved_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "train, objective, config",
    [
        (train_crf, crf_gradient, TrainConfig(max_iterations=25)),
        (train_boundary_logistic, logistic_objective,
         TrainConfig(optimizer="gradient_descent", max_iterations=25)),
    ],
    ids=["crf", "boundary_logistic"],
)
def test_shared_table_changes_no_model_byte(train, objective, config, tmp_path):
    """Trained through a corpus-wide table, trained with none, and saved
    then loaded: the same bytes, scores and segmentations."""
    corpus = generate_synthetic_corpus(SyntheticSpec(150, 15, 6, seed=11))
    words = list(corpus)
    train_words = Corpus(tuple(words[::2]), "t")
    template = FeatureTemplate(max_ngram=2, window=1)
    table = FeatureTable([w.surface for w in corpus], template)
    shared = train(train_words, template, config, table=table)
    alone = train(train_words, template, config)
    assert shared.table is table
    assert alone.table is not table
    raw = saved_bytes(shared, tmp_path / "shared.json")
    assert raw == saved_bytes(alone, tmp_path / "alone.json")
    loaded = load_model(tmp_path / "shared.json")
    assert loaded.table is None
    assert saved_bytes(loaded, tmp_path / "loaded.json") == raw
    # held-out corpus words are in the shared table; the rest are not
    surfaces = [w.surface for w in words[1::2]] + ["qqz", "a", "mo\u0301za"]
    expected = shared.segment_batch(surfaces)
    assert alone.segment_batch(surfaces) == expected
    assert loaded.segment_batch(surfaces) == expected
    assert shared.segment_batch(s for s in surfaces) == expected
    # one word at a time, a new table has far fewer ranks than the model has ids
    assert [loaded.segment(s) for s in surfaces] == expected
    batch = words[1::3]
    for part in (batch, batch[:1]):
        f, grad = objective(shared, part)
        for other in (alone, loaded):
            f2, grad2 = objective(other, part)
            assert f2 == f
            assert np.array_equal(grad2, grad)


def test_saved_models_match_pinned_digests(tmp_path):
    pinned = json.loads(
        (Path(__file__).parent / "data" / "feature_models_v1.json").read_text()
    )["digests"]
    words = list(generate_synthetic_corpus(SyntheticSpec(120, 12, 6, seed=0)))
    train = Corpus(tuple(words[:90]), "pin")
    held_out = [w.surface for w in words[90:]]
    got = {}
    for name, train_fn, optimizer in (
        ("crf", train_crf, "lbfgs"),
        ("boundary_logistic", train_boundary_logistic, "gradient_descent"),
    ):
        for template in (FeatureTemplate(), FeatureTemplate(2, 0, False)):
            model = train_fn(
                train, template=template,
                config=TrainConfig(optimizer=optimizer, max_iterations=40),
            )
            segs = json.dumps([w.morphemes for w in model.segment_batch(held_out)])
            key = (
                f"{name}/max_ngram={template.max_ngram},window={template.window},"
                f"flags={template.include_position_flags}"
            )
            got[key] = {
                "model": hashlib.sha256(saved_bytes(model, tmp_path / "m.json")).hexdigest(),
                "segmentations": hashlib.sha256(segs.encode()).hexdigest(),
            }
    assert got == pinned
