"""A word's cut offsets against the per-morpheme grapheme arithmetic.

``SegmentedWord.cuts`` counts every offset in graphemes of the surface. The
reference below counts each morpheme's own graphemes, as the label codec,
scoring and the models once did. Words are drawn from grapheme-aligned
morphemes over clusters that a grapheme-blind splitter would cut: combining
marks, ZWJ emoji sequences, regional-indicator pairs, Devanagari virama
conjuncts and Hangul jamo. Now and then a bare mark, joiner or lone
indicator is mixed in, so that some morpheme edges fall inside a cluster of
the surface; such a word must be refused.
"""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit import corpus as C
from morphsplit.corpus import Corpus, Label, SegmentedWord, graphemes
from morphsplit.errors import ValidationError
from morphsplit.evaluation import boundary_positions, morpheme_spans
from morphsplit.models import BUILTIN_SEGMENTERS, segment_corpus, train_segmenter
from morphsplit.models.optim import TrainConfig

# whole grapheme clusters that never join a neighbouring cluster
CLUSTERS = (
    "a", "k", "t",
    "e\u0301", "o\u0308\u0301",                      # combining marks
    "\U0001F1FA\U0001F1F8", "\U0001F1EB\U0001F1F7",  # regional-indicator pairs
    "\U0001F469\u200D\U0001F4BB",                    # ZWJ emoji sequences
    "\U0001F468\u200D\U0001F469\u200D\U0001F467",
    "\u0915\u094D\u0937", "\u0928\u094D\u0926\u093F",  # Devanagari virama conjuncts
    "\u1100\u1161", "\u1112\u1161\u11AB", "\uAC00",    # Hangul jamo and a syllable
)
# pieces that join the cluster before or after them
JOINERS = ("\u0301", "\u200D", "\U0001F1FA", "\u094D", "\u1100", "\u1161", "\U0001F4BB")


def morpheme_of(pieces):
    return st.lists(st.sampled_from(pieces), min_size=1, max_size=3).map("".join)


aligned_words = st.lists(morpheme_of(CLUSTERS), min_size=1, max_size=4)
mixed_words = st.lists(
    st.one_of(morpheme_of(CLUSTERS), morpheme_of(CLUSTERS + JOINERS)), min_size=1, max_size=4
)


# the per-morpheme reference


def ref_cuts(word):
    return tuple(accumulate((len(graphemes(m)) for m in word.morphemes), initial=0))


def ref_boundary_positions(word):
    acc = 0
    out = []
    for m in word.morphemes[:-1]:
        acc += len(graphemes(m))
        out.append(acc)
    return frozenset(out)


def ref_morpheme_spans(word):
    acc = 0
    out = []
    for m in word.morphemes:
        length = len(graphemes(m))
        out.append((acc, acc + length, m))
        acc += length
    return frozenset(out)


def ref_interior_labels(word):
    labels = []
    for m in word.morphemes:
        k = len(graphemes(m))
        labels += [Label.S] if k == 1 else [Label.B, *[Label.M] * (k - 2), Label.E]
    return labels


def code_point_edges(pieces):
    return set(accumulate(map(len, pieces), initial=0))


def check_codec(word):
    assert word.cuts == ref_cuts(word)
    assert word.grapheme_count() == len(graphemes(word.surface))
    assert boundary_positions(word) == ref_boundary_positions(word)
    assert morpheme_spans(word) == ref_morpheme_spans(word)
    assert list(C.encode_labels(word).interior()) == ref_interior_labels(word)
    decoded = C.decode_labels(word.surface, C.encode_labels(word))
    assert decoded == word and decoded.cuts == word.cuts
    rebuilt = SegmentedWord.from_cuts(word.surface, graphemes(word.surface), word.cuts)
    assert rebuilt == word and rebuilt.cuts == word.cuts


class TestCutsAgainstReference:
    @given(aligned_words)
    def test_aligned_words_agree_with_the_per_morpheme_reference(self, morphemes):
        check_codec(SegmentedWord("".join(morphemes), tuple(morphemes)))

    @given(mixed_words)
    def test_a_word_is_refused_iff_a_morpheme_edge_splits_a_cluster(self, morphemes):
        surface = "".join(morphemes)
        aligned = code_point_edges(morphemes) <= code_point_edges(graphemes(surface))
        try:
            word = SegmentedWord(surface, tuple(morphemes))
        except ValidationError as exc:
            assert not aligned
            assert repr(surface) in str(exc)
            return
        assert aligned
        check_codec(word)

    def test_from_cuts_refuses_cuts_that_do_not_segment_the_surface(self):
        g = graphemes("e\u0301xy")
        for cuts in [(), (0,), (1, 3), (0, 2), (0, 4), (0, 2, 2, 3), (0, 2, 1, 3), (0, -1, 3)]:
            try:
                SegmentedWord.from_cuts("e\u0301xy", g, cuts)
            except ValidationError:
                continue
            raise AssertionError(f"cuts {cuts} accepted")


@settings(max_examples=15, deadline=None)
@given(st.lists(aligned_words, min_size=2, max_size=8), st.lists(aligned_words, max_size=4))
def test_predicted_words_carry_the_cuts_of_their_morphemes(train, unseen):
    words = {}
    for morphemes in train:
        words.setdefault("".join(morphemes), SegmentedWord("".join(morphemes), tuple(morphemes)))
    corpus = Corpus(tuple(words.values()))
    surfaces = list(dict.fromkeys([*words, *("".join(ms) for ms in unseen)]))
    for name in BUILTIN_SEGMENTERS:
        model = train_segmenter(name, corpus, config=TrainConfig(max_iterations=20))
        for pred in segment_corpus(model, surfaces):
            assert pred.cuts == SegmentedWord(pred.surface, pred.morphemes).cuts, name
