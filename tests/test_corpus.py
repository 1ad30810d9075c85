"""Corpus parsing, the label codec and repair rule, stats, synthetic data."""

import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit import corpus as C
from morphsplit.corpus import Label
from morphsplit.errors import (
    CapacityError,
    ContractError,
    DomainError,
    ParseError,
    ValidationError,
)

DATA = Path(__file__).parent / "data"
START, END, S, B, M, E = Label.START, Label.END, Label.S, Label.B, Label.M, Label.E


def make_corpus(tmp_path, text, name="toy.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_single_line(self, tmp_path):
        path = make_corpus(tmp_path, "avocados\tavocado s\n")
        corpus = C.parse_corpus(path)
        assert len(corpus) == 1
        assert corpus[0].surface == "avocados"
        assert corpus[0].morphemes == ("avocado", "s")
        assert corpus.language_tag == "toy"

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# header\n\nwalked\twalk ed\n   \n# tail\ncats\tcat s\n"
        corpus = C.parse_corpus(make_corpus(tmp_path, text), language_tag="en")
        assert [w.surface for w in corpus] == ["walked", "cats"]
        assert corpus.language_tag == "en"

    def test_duplicates_keep_first_and_warn(self, tmp_path, caplog):
        text = "ab\ta b\nab\tab\ncd\tc d\n"
        with caplog.at_level("WARNING", logger="morphsplit.corpus"):
            corpus = C.parse_corpus(make_corpus(tmp_path, text))
        assert len(corpus) == 2
        assert corpus[0].morphemes == ("a", "b")
        assert any("1 duplicate" in rec.getMessage() for rec in caplog.records)

    def test_missing_tab_names_line(self, tmp_path):
        path = make_corpus(tmp_path, "good\tgood\nbad line\n")
        with pytest.raises(ParseError, match=r":2"):
            C.parse_corpus(path)

    def test_empty_morpheme_rejected(self, tmp_path):
        path = make_corpus(tmp_path, "ab\ta  b\n")
        with pytest.raises(ParseError, match=r":1"):
            C.parse_corpus(path)

    def test_concat_mismatch_names_word(self, tmp_path):
        path = make_corpus(tmp_path, "walked\twalk ing\n")
        with pytest.raises(ValidationError, match="walked"):
            C.parse_corpus(path)

    # a morpheme edge inside a grapheme cluster: e and a combining acute, and
    # a flag (two regional indicators) followed by a lone regional indicator,
    # where the morphemes' own grapheme counts add up to the surface's
    SPLIT_CLUSTERS = [
        ("e\u0301x", ("e", "\u0301x")),
        ("\U0001F1FA\U0001F1F8\U0001F1EB", ("\U0001F1FA", "\U0001F1F8\U0001F1EB")),
    ]

    @pytest.mark.parametrize("surface, morphemes", SPLIT_CLUSTERS)
    def test_edge_inside_a_cluster_names_word(self, surface, morphemes):
        with pytest.raises(ValidationError, match=re.escape(f"word {surface!r}")):
            C.SegmentedWord(surface, morphemes)

    @pytest.mark.parametrize("surface, morphemes", SPLIT_CLUSTERS)
    def test_edge_inside_a_cluster_names_file_and_line(self, tmp_path, surface, morphemes):
        path = make_corpus(tmp_path, f"ab\ta b\n{surface}\t{' '.join(morphemes)}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: word {surface!r}")):
            C.parse_corpus(path)

    def test_write_then_parse_is_identity(self, tmp_path):
        text = "# c\nwalked\twalk ed\nwalked\twalk ed\ntalks\ttalk s\n"
        first = C.parse_corpus(make_corpus(tmp_path, text), language_tag="en")
        out = tmp_path / "out.tsv"
        C.write_corpus(first, out)
        again = C.parse_corpus(out, language_tag="en")
        assert again == first
        C.write_corpus(again, tmp_path / "out2.tsv")
        assert (tmp_path / "out2.tsv").read_bytes() == out.read_bytes()

    def test_duplicate_surface_in_constructor(self):
        w = C.SegmentedWord("ab", ("a", "b"))
        v = C.SegmentedWord("ab", ("ab",))
        with pytest.raises(ValidationError, match="duplicate"):
            C.Corpus((w, v))

    def test_subset_keeps_order_and_tag(self):
        words = tuple(C.SegmentedWord(s, (s,)) for s in ("aa", "bb", "cc"))
        corpus = C.Corpus(words, "zz")
        sub = corpus.subset([2, 0])
        assert [w.surface for w in sub] == ["cc", "aa"]
        assert sub.language_tag == "zz"


class TestLabelCodec:
    def test_encode_long_word(self):
        word = C.SegmentedWord("avocados", ("avocado", "s"))
        assert C.encode_labels(word).labels == (START, B, M, M, M, M, M, E, S, END)

    def test_encode_short_forms(self):
        assert C.encode_labels(C.SegmentedWord("a", ("a",))).labels == (START, S, END)
        assert C.encode_labels(C.SegmentedWord("ab", ("ab",))).labels == (START, B, E, END)
        assert C.encode_labels(C.SegmentedWord("ab", ("a", "b"))).labels == (START, S, S, END)

    def test_decode_inverts_encode_on_listing(self):
        labels = (START, B, M, M, M, M, M, E, S, END)
        word = C.decode_labels("avocados", labels)
        assert word.morphemes == ("avocado", "s")

    def test_repair_opens_boundary_after_s(self):
        word = C.decode_labels("ab", (START, S, M, END))
        assert word.morphemes == ("a", "b")

    def test_length_contract(self):
        with pytest.raises(ContractError):
            C.decode_labels("ab", (START, S, END))

    def test_repair_matches_reference_on_all_pairs(self):
        # Independent re-statement of the repair rule as a state machine over
        # "previous label closed a morpheme".
        def reference(surface, labels):
            interior = [S if lab in (START, END) else Label(lab) for lab in labels[1:-1]]
            out, cur = [], ""
            prev_closed = True
            for g, lab in zip(C.graphemes(surface), interior):
                opens = lab in (B, S) or prev_closed
                if opens and cur:
                    out.append(cur)
                    cur = ""
                cur += g
                prev_closed = lab in (E, S)
            out.append(cur)
            return tuple(out)

        for pair in itertools.product(list(Label), repeat=2):
            labels = (START,) + pair + (END,)
            got = C.decode_labels("ab", labels)
            assert got == C.decode_labels("ab", labels)
            assert got.morphemes == reference("ab", labels)
        for triple in itertools.product(list(Label), repeat=3):
            labels = (START,) + triple + (END,)
            assert C.decode_labels("abc", labels).morphemes == reference("abc", labels)

    def test_label_sequence_validation(self):
        C.LabelSequence((START, B, E, END))
        with pytest.raises(ValidationError):
            C.LabelSequence((START, B, S, END))
        with pytest.raises(ValidationError):
            C.LabelSequence((S, S, END))
        with pytest.raises(ValidationError):
            C.LabelSequence((START, S, S))
        with pytest.raises(ValidationError):
            C.LabelSequence((START, M, END, S, END))

    def test_combining_marks_stay_whole(self):
        surface = "móz"
        assert len(C.graphemes(surface)) == 3
        word = C.SegmentedWord(surface, (surface,))
        labels = C.encode_labels(word)
        assert len(labels) == 5
        split_all = C.decode_labels(surface, (START, S, S, S, END))
        assert split_all.morphemes == ("m", "ó", "z")


words_strategy = st.lists(
    st.text(alphabet="abcde", min_size=1, max_size=4), min_size=1, max_size=5
).map(lambda ms: C.SegmentedWord("".join(ms), tuple(ms)))


class TestCodecProperties:
    @given(words_strategy)
    def test_round_trip(self, word):
        assert C.decode_labels(word.surface, C.encode_labels(word)) == word

    @given(words_strategy)
    def test_length_law(self, word):
        assert len(C.encode_labels(word)) == word.grapheme_count() + 2

    @given(
        st.text(alphabet="abcdef", min_size=1, max_size=8),
        st.data(),
    )
    def test_repair_total_on_arbitrary_labels(self, surface, data):
        n = len(C.graphemes(surface)) + 2
        raw = data.draw(st.lists(st.sampled_from(list(Label)), min_size=n, max_size=n))
        word = C.decode_labels(surface, tuple(raw))
        assert "".join(word.morphemes) == surface


class TestManyWordCodec:
    """``decode_starts`` and ``encode_starts`` apply the one-word codec's
    rules to many words at once."""

    def test_decode_starts_equals_decode_labels_on_every_short_sequence(self):
        sequences = [
            seq for n in range(1, 6) for seq in itertools.product(list(Label), repeat=n)
        ]
        assert len(sequences) == 9330
        labels = np.array([lab for seq in sequences for lab in seq], dtype=np.int64)
        lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
        surfaces = ["abcde"[:n] for n in lengths.tolist()]
        slots = np.append(C.decode_starts(labels, lengths), True)
        got = C.Segmentations.from_slots(surfaces, lengths.tolist(), slots)
        want = [
            C.decode_labels(s, (Label.START, *seq, Label.END)) for s, seq in zip(surfaces, sequences)
        ]
        assert [w.cuts for w in got] == [w.cuts for w in want]

    @given(st.lists(words_strategy, min_size=1, max_size=6))
    def test_encode_starts_equals_interior_labels(self, words):
        starts = C.cut_slots(words)[:-1]
        want = [lab for w in words for lab in C.encode_labels(w).interior()]
        assert C.encode_starts(starts).tolist() == want


class TestWordTable:
    def test_rows_gold_and_pieces(self):
        words = [
            C.SegmentedWord("walked", ("walk", "ed")),
            C.SegmentedWord("e\u0301ta", ("e\u0301", "ta")),
            C.SegmentedWord("walks", ("walk", "s")),
        ]
        table = C.WordTable([*words, C.SegmentedWord("walked", ("walked",))])
        assert table.surfaces == ("walked", "e\u0301ta", "walks")
        assert table.rows(["walks", "walked"]).tolist() == [2, 0]
        assert table.rows(["walks", "talks"]) is None
        assert table.gold([2, 0, 1]) == [words[2], words[0], words[1]]
        assert table.starts(np.array([1])).tolist() == [True, True, False]
        vocab = table.vocabulary
        assert vocab.morphemes == ("walk", "ed", "e\u0301", "ta", "s")
        assert table.pieces(1) == [[(1, 2)], [(3, 3)], []]
        assert table.pieces(2) == [[(4, 0)], [], [], [], [(5, 4)]]

    def test_a_table_of_surfaces_has_no_gold(self):
        table = C.WordTable(["ab", "ab", "c"])
        assert table.surfaces == ("ab", "c") and not table.segmented


class TestStats:
    def test_hand_values(self):
        corpus = C.Corpus(
            (C.SegmentedWord("ab", ("a", "b")), C.SegmentedWord("c", ("c",)))
        )
        stats = C.corpus_stats(corpus)
        assert stats.word_type_count == 2
        assert stats.avg_morphemes_per_word == pytest.approx(1.5)
        assert stats.avg_morpheme_length == pytest.approx(1.0)
        assert stats.avg_morpheme_types_per_word == pytest.approx(1.5)

    def test_single_word_length(self):
        stats = C.corpus_stats(C.Corpus((C.SegmentedWord("ab", ("ab",)),)))
        assert stats.avg_morpheme_length == pytest.approx(2.0)

    def test_recount_against_raw_file(self, tmp_path):
        spec = C.SyntheticSpec(num_words=10, stems=4, suffixes=3, seed=7)
        corpus = C.generate_synthetic_corpus(spec)
        path = tmp_path / "synth.tsv"
        C.write_corpus(corpus, path)

        rows = [
            line.split("\t")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        morphs = [row[1].split(" ") for row in rows]
        n = len(rows)
        want_counts = sum(len(m) for m in morphs) / n
        want_len = sum(len(row[0]) / len(m) for row, m in zip(rows, morphs)) / n
        want_types = sum(len(set(m)) for m in morphs) / n

        stats = C.corpus_stats(corpus)
        assert stats.word_type_count == n
        assert stats.avg_morphemes_per_word == pytest.approx(want_counts, abs=1e-12)
        assert stats.avg_morpheme_length == pytest.approx(want_len, abs=1e-12)
        assert stats.avg_morpheme_types_per_word == pytest.approx(want_types, abs=1e-12)
        assert stats.avg_morpheme_types_per_word <= stats.avg_morphemes_per_word

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            C.corpus_stats([])


class TestSynthetic:
    def test_explicit_inventories(self):
        spec = C.SyntheticSpec(
            num_words=6,
            stems=("walk", "talk"),
            suffixes=("ed", "ing", "s"),
            min_suffixes=1,
            max_suffixes=1,
            seed=0,
        )
        corpus = C.generate_synthetic_corpus(spec)
        assert len(corpus) == 6
        segs = {w.surface: w.morphemes for w in corpus}
        assert segs["walked"] == ("walk", "ed")
        assert set(segs) == {"walked", "walking", "walks", "talked", "talking", "talks"}

    def test_deterministic(self):
        spec = C.SyntheticSpec(num_words=50, stems=10, suffixes=5, seed=3)
        assert C.generate_synthetic_corpus(spec) == C.generate_synthetic_corpus(spec)

    def test_auto_inventories_round_trip(self, tmp_path):
        spec = C.SyntheticSpec(num_words=100, stems=30, suffixes=8, seed=1)
        corpus = C.generate_synthetic_corpus(spec)
        assert len(corpus) == 100
        path = tmp_path / "synth.tsv"
        C.write_corpus(corpus, path)
        assert C.parse_corpus(path, language_tag="synthetic") == corpus

    def test_pinned_corpora(self):
        # both draw paths (a permutation of every combination up to a
        # capacity of 500,000, sampling above it) and each shortfall
        pinned = json.loads((DATA / "synthetic_corpora_v1.json").read_text())["corpora"]
        for entry in pinned:
            spec = C.SyntheticSpec(**{
                k: tuple(v) if isinstance(v, list) else v for k, v in entry["spec"].items()
            })
            if "error" in entry:
                with pytest.raises(CapacityError) as info:
                    C.generate_synthetic_corpus(spec)
                assert str(info.value) == entry["error"]
                continue
            corpus = C.generate_synthetic_corpus(spec)
            text = "".join(f"{w.surface}\t{' '.join(w.morphemes)}\n" for w in corpus)
            assert len(corpus) == entry["words"]
            assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"], entry["spec"]

    def test_capacity_error(self):
        spec = C.SyntheticSpec(
            num_words=2, stems=("a",), suffixes=("b",), min_suffixes=1, max_suffixes=1
        )
        with pytest.raises(CapacityError):
            C.generate_synthetic_corpus(spec)

    def test_bare_stems_allowed(self):
        spec = C.SyntheticSpec(
            num_words=3, stems=("xx", "yy", "zz"), suffixes=("qq",),
            min_suffixes=0, max_suffixes=0, seed=0,
        )
        corpus = C.generate_synthetic_corpus(spec)
        assert sorted(w.surface for w in corpus) == ["xx", "yy", "zz"]
        assert all(len(w.morphemes) == 1 for w in corpus)
