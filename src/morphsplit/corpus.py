"""Segmented-word corpora, the six-label codec, and synthetic corpus generation.

A corpus is an ordered collection of distinct word types. Each word carries a
surface form and an ordered tuple of morphemes whose concatenation reproduces
the surface exactly. All positions and lengths are counted in extended
grapheme clusters of the surface rather than code points, so combining marks
never split; a word's ``cuts`` are the one place those positions are decided.

The label codec maps a segmentation to one label per grapheme plus START/END
bookends. Singleton morphemes are labelled S; longer morphemes are labelled
B, then M for each interior grapheme, then E. Decoding is total: any label
sequence of the right length is first repaired into a consistent boundary
pattern and then read back as morphemes.
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np
import regex

from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    ParseError,
    ValidationError,
)

logger = logging.getLogger(__name__)

_GRAPHEME_RE = regex.compile(r"\X")


class Label(IntEnum):
    """Per-grapheme segmentation labels plus the two bookends."""

    START = 0
    END = 1
    S = 2
    B = 3
    M = 4
    E = 5


#: Labels that may appear between the bookends.
INTERIOR_LABELS = (Label.S, Label.B, Label.M, Label.E)

_ALLOWED_NEXT = {
    Label.B: frozenset({Label.M, Label.E}),
    Label.M: frozenset({Label.M, Label.E}),
    Label.E: frozenset({Label.S, Label.B, Label.END}),
    Label.S: frozenset({Label.S, Label.B, Label.END}),
}


@lru_cache(maxsize=1 << 16)
def graphemes(text: str) -> tuple[str, ...]:
    """Split ``text`` into extended grapheme clusters."""
    return tuple(_GRAPHEME_RE.findall(text))


@dataclass(frozen=True)
class SegmentedWord:
    """A surface form with its ordered morpheme segmentation.

    The morphemes must be non-empty, concatenate to the surface, and meet
    only at grapheme edges of the surface; violating any of these raises
    :class:`ValidationError` naming the offending word.

    ``cuts`` holds the grapheme offset of every morpheme edge, from 0 to the
    surface's grapheme count, computed once from the surface's graphemes.
    """

    surface: str
    morphemes: tuple[str, ...]
    cuts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        surface, morphemes = self.surface, tuple(self.morphemes)
        if not surface:
            raise ValidationError("empty surface form")
        if not morphemes:
            raise ValidationError(f"word {surface!r} has no morphemes")
        cuts = [0]
        for m in morphemes:
            if not m:
                raise ValidationError(f"word {surface!r} has an empty morpheme")
            cuts.append(cuts[-1] + len(m))
        if "".join(morphemes) != surface:
            raise ValidationError(
                f"morphemes {list(morphemes)!r} do not concatenate "
                f"to surface {surface!r}"
            )
        g = graphemes(surface)
        if len(g) < len(surface):
            # some cluster spans several code points: map code point offsets
            # to grapheme offsets, which exist only at cluster edges
            offset = {k: i for i, k in enumerate(itertools.accumulate(map(len, g), initial=0))}
            try:
                cuts = [offset[k] for k in cuts]
            except KeyError as exc:
                raise ValidationError(
                    f"word {surface!r} has a morpheme edge inside a grapheme "
                    f"cluster, at code point {exc.args[0]}"
                ) from None
        # frozen: the fields are filled in directly
        self.__dict__.update(morphemes=morphemes, cuts=tuple(cuts))

    @classmethod
    def from_cuts(cls, surface: str, g: Sequence[str], cuts: Sequence[int]) -> SegmentedWord:
        """The word ``surface``, whose graphemes are ``g``, cut at ``cuts``,
        which must rise strictly from 0 to ``len(g)``. Nothing is counted
        again: ``g`` is trusted to be ``graphemes(surface)``."""
        cuts = tuple(cuts)
        morphemes = tuple(["".join(g[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b])
        if not surface or cuts[:1] != (0,) or cuts[-1] != len(g) or len(morphemes) < len(cuts) - 1:
            raise ValidationError(f"cuts {list(cuts)!r} do not segment surface {surface!r}")
        word = object.__new__(cls)
        word.__dict__.update(surface=surface, morphemes=morphemes, cuts=cuts)
        return word

    def grapheme_count(self) -> int:
        return self.cuts[-1]


@dataclass(frozen=True)
class LabelSequence:
    """A validated label sequence: START, one label per grapheme, END.

    Enforced invariants: the first label is START and the last is END,
    bookends never appear in between, B and M are followed by M or E, and
    E and S are followed by S, B, or END.
    """

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labs = tuple(Label(x) for x in self.labels)
        object.__setattr__(self, "labels", labs)
        if len(labs) < 2:
            raise ValidationError("label sequence needs START and END bookends")
        if labs[0] is not Label.START:
            raise ValidationError(f"label sequence must begin with START, got {labs[0].name}")
        if labs[-1] is not Label.END:
            raise ValidationError(f"label sequence must end with END, got {labs[-1].name}")
        for i, lab in enumerate(labs[1:-1], start=1):
            if lab in (Label.START, Label.END):
                raise ValidationError(f"bookend label {lab.name} at interior position {i}")
        for cur, nxt in zip(labs, labs[1:]):
            allowed = _ALLOWED_NEXT.get(cur)
            if allowed is not None and nxt not in allowed:
                raise ValidationError(f"label {cur.name} may not be followed by {nxt.name}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __getitem__(self, index):
        return self.labels[index]

    def interior(self) -> tuple[Label, ...]:
        return self.labels[1:-1]


def encode_labels(word: SegmentedWord) -> LabelSequence:
    """Encode a segmentation as labels, one per grapheme plus bookends.

    The interior labels are :func:`encode_starts` of the word's cuts; the
    result always has ``grapheme_count + 2`` labels.
    """
    interior = encode_starts(cut_slots([word])[:-1]).tolist()
    return LabelSequence((Label.START, *interior, Label.END))


def decode_labels(surface: str, labels: Sequence[Label] | LabelSequence) -> SegmentedWord:
    """Decode labels into a segmentation of ``surface``, repairing as needed.

    The only precondition is the length contract: ``len(labels)`` must equal
    the grapheme count of ``surface`` plus two, else :class:`ContractError`.
    Decoding is total over label values. A morpheme boundary opens before
    position 0, before any B or S, and before M or E whenever the previous
    interior label is E or S. Bookend labels found at interior positions are
    treated as S.

    Parameters
    ----------
    surface : str
        Surface form to segment.
    labels : sequence of Label
        Raw labels including the two bookend positions; bookend values are
        not inspected.

    Returns
    -------
    SegmentedWord
        A valid segmentation whose morphemes concatenate to ``surface``.
    """
    if isinstance(labels, LabelSequence):
        labels = labels.labels
    g = graphemes(surface)
    if len(labels) != len(g) + 2:
        raise ContractError(
            f"expected {len(g) + 2} labels for surface {surface!r}, got {len(labels)}"
        )
    interior = [Label(x) for x in labels[1:-1]]
    interior = [Label.S if lab in (Label.START, Label.END) else lab for lab in interior]
    starts = []
    for i, lab in enumerate(interior):
        if i == 0 or lab in (Label.B, Label.S):
            starts.append(i)
        elif interior[i - 1] in (Label.E, Label.S):
            starts.append(i)
    return SegmentedWord.from_cuts(surface, g, starts + [len(g)])


def decode_starts(labels: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`decode_labels`'s rule over many words at once: whether a
    morpheme starts at each position, for the interior ``labels`` of words
    of ``lengths`` graphemes laid end to end."""
    single = np.isin(labels, (Label.S, Label.START, Label.END))
    starts = single | (labels == Label.B)
    starts[1:] |= single[:-1] | (labels[:-1] == Label.E)
    starts[np.cumsum(lengths) - lengths] = True
    return starts


def encode_starts(starts: np.ndarray) -> np.ndarray:
    """The interior labels of many words at once, from whether a morpheme
    starts at each of their positions, laid end to end: a singleton
    morpheme becomes S, and one of k >= 2 graphemes B, M * (k - 2), E."""
    ends = np.append(starts[1:], True)
    return np.where(
        starts, np.where(ends, Label.S, Label.B), np.where(ends, Label.E, Label.M)
    ).astype(np.int64)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``[s, s + n)`` for every (s, n) pair, concatenated."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(lengths.sum(), dtype=np.int64)


def cut_slots(words: Sequence[SegmentedWord]) -> np.ndarray:
    """The cuts of ``words`` laid end to end: slot ``o + k`` is set iff
    ``k`` is a cut of the word that starts at offset ``o``, and each word
    ends where the next starts, in one shared slot."""
    cuts = [w.cuts for w in words]
    lengths = np.fromiter((c[-1] for c in cuts), dtype=np.int64, count=len(cuts))
    flat = np.fromiter(itertools.chain.from_iterable(cuts), dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    slots = np.zeros(int(lengths.sum()) + 1, dtype=bool)
    slots[flat + np.repeat(offsets, [len(c) for c in cuts])] = True
    return slots


def pack_slots(slots: np.ndarray) -> int:
    """The integer whose bit ``i`` is slot ``i``."""
    return int.from_bytes(np.packbits(slots, bitorder="little").tobytes(), "little")


def unpack_slots(bits: int, count: int) -> np.ndarray:
    """The first ``count`` bits of ``bits`` as 0/1 slots."""
    raw = np.frombuffer(bits.to_bytes(count // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little")


class Segmentations(Sequence[SegmentedWord]):
    """The segmentations of a list of surfaces, as one integer of cut bits.

    The words are laid end to end as in :func:`cut_slots`, and bit ``i``
    of ``bits`` is slot ``i``. Models write their predictions this way and
    scoring reads them so; a :class:`SegmentedWord` is built only when an
    item is read. It compares equal to any sequence of the same words.
    """

    __slots__ = ("surfaces", "lengths", "bits")

    def __init__(self, surfaces: Sequence[str], lengths: Sequence[int], bits: int) -> None:
        self.surfaces = tuple(surfaces)
        self.lengths = tuple(lengths)
        self.bits = bits

    @classmethod
    def from_slots(cls, surfaces, lengths, slots: np.ndarray) -> Segmentations:
        return cls(surfaces, lengths, pack_slots(slots))

    @classmethod
    def of(cls, words: Sequence[SegmentedWord]) -> Segmentations:
        """``words`` as segmentations; segmentations as they are."""
        if isinstance(words, Segmentations):
            return words
        return cls.from_slots(
            [w.surface for w in words], [w.cuts[-1] for w in words], cut_slots(words)
        )

    def __len__(self) -> int:
        return len(self.surfaces)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        surface, n = self.surfaces[index], self.lengths[index]
        mask = self.bits >> sum(self.lengths[:range(len(self))[index]])
        cuts = [k for k in range(n + 1) if mask >> k & 1]
        return SegmentedWord.from_cuts(surface, graphemes(surface), cuts)

    def __iter__(self) -> Iterator[SegmentedWord]:
        at = np.flatnonzero(unpack_slots(self.bits, sum(self.lengths) + 1)).tolist()
        k = offset = 0
        for surface, n in zip(self.surfaces, self.lengths):
            # this word's last cut is the next word's first
            end = bisect.bisect_right(at, offset + n, k)
            cuts = [a - offset for a in at[k:end]]
            yield SegmentedWord.from_cuts(surface, graphemes(surface), cuts)
            k, offset = end - 1, offset + n

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Segmentations({list(self)!r})"


def surface_list(surfaces: Iterable[str]) -> list[str]:
    """``surfaces`` as a list; an empty surface is a :class:`DomainError`."""
    surfaces = list(surfaces)
    if not all(surfaces):
        raise DomainError("surface must be non-empty")
    return surfaces


class Segmenter:
    """A segmentation model: what every model of the suite is.

    Subclasses set ``KIND``, the ``kind`` they are saved under, and
    ``_segment``, which segments a non-empty list of non-empty surfaces.
    """

    KIND: ClassVar[str]

    def segment(self, surface: str) -> SegmentedWord:
        return self.segment_batch([surface])[0]

    def segment_batch(self, surfaces: Iterable[str]) -> Segmentations:
        """Segment every surface; an empty surface is a :class:`DomainError`."""
        surfaces = surface_list(surfaces)
        return self._segment(surfaces) if surfaces else Segmentations.of([])


class Vocabulary:
    """Morpheme ids, and the morphemes among the pieces of a word.

    ``longest`` is the longest morpheme in code points, which bounds its
    length in graphemes: no longer piece of a word is a morpheme.
    """

    def __init__(self, morphemes: Iterable[str]) -> None:
        self.morphemes = tuple(dict.fromkeys(morphemes))
        self.id = {m: i for i, m in enumerate(self.morphemes)}
        self.longest = max(map(len, self.morphemes), default=0)

    def pieces(self, g: Sequence[str]) -> list[list[tuple[int, int]]]:
        """``pieces[i]`` holds ``(j, id)`` for every piece ``g[i:j]`` that
        is a morpheme, by ascending j."""
        get, n, out = self.id.get, len(g), []
        for i in range(n):
            starting, piece = [], ""
            for j in range(i, min(n, i + self.longest)):
                piece += g[j]
                m = get(piece)
                if m is not None:
                    starting.append((j + 1, m))
            out.append(starting)
        return out


class WordTable:
    """Every word of a corpus once, laid out for the cells of a run to share.

    ``words`` are surfaces or segmented words; surfaces are kept distinct,
    in first-occurrence order, and ``row`` maps each to its row. The
    positions of the words are laid end to end, word ``r`` at
    ``ptr[r]:ptr[r + 1]``. A table of segmented words also holds their gold
    cuts, as one slot per position and one after the last (see
    :func:`cut_slots`), and their morpheme :attr:`vocabulary`; the
    morphemes among a row's pieces are found on the row's first use
    (:meth:`pieces`).
    """

    def __init__(self, words: Iterable[str | SegmentedWord]) -> None:
        first: dict[str, str | SegmentedWord] = {}
        for w in words:
            first.setdefault(w if isinstance(w, str) else w.surface, w)
        kept = list(first.values())
        self.surfaces = tuple(first)
        self.row = {s: i for i, s in enumerate(self.surfaces)}
        self.graphemes = [graphemes(s) for s in self.surfaces]
        self.lengths = np.fromiter(map(len, self.graphemes), dtype=np.int64, count=len(kept))
        self.ptr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.ptr[1:])
        segmented = bool(kept) and not any(isinstance(w, str) for w in kept)
        self.words: tuple[SegmentedWord, ...] | None = tuple(kept) if segmented else None
        self._slots = cut_slots(kept) if segmented else None
        self._pieces: dict[int, list[list[tuple[int, int]]]] = {}

    def __repr__(self) -> str:
        return f"WordTable({len(self.surfaces)} words)"

    def rows(self, surfaces: Iterable[str]) -> np.ndarray | None:
        """The row of each surface, or None when one is not in the table."""
        row = self.row
        try:
            return np.fromiter((row[s] for s in surfaces), dtype=np.int64)
        except KeyError:
            return None

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """The positions of the words at ``rows``, in order."""
        return concat_ranges(self.ptr[rows], self.lengths[rows])

    @property
    def segmented(self) -> bool:
        return self._slots is not None

    def starts(self, rows: np.ndarray) -> np.ndarray:
        """Whether a gold morpheme starts at each position of the words at
        ``rows``, laid end to end."""
        return self._slots[self.positions(rows)]

    def gold(self, rows: Sequence[int]) -> Segmentations:
        """The gold segmentations of the words at ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        slots = np.append(self.starts(rows), True)
        return Segmentations.from_slots(
            [self.surfaces[r] for r in rows.tolist()], self.lengths[rows].tolist(), slots
        )

    @cached_property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(m for w in self.words for m in w.morphemes)

    def pieces(self, row: int) -> list[list[tuple[int, int]]]:
        """:meth:`Vocabulary.pieces` of the word at ``row``."""
        pieces = self._pieces.get(row)
        if pieces is None:
            pieces = self._pieces[row] = self.vocabulary.pieces(self.graphemes[row])
        return pieces


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of word types with pairwise distinct surfaces."""

    words: tuple[SegmentedWord, ...]
    language_tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        seen: set[str] = set()
        for w in self.words:
            if w.surface in seen:
                raise ValidationError(f"duplicate surface {w.surface!r} in corpus")
            seen.add(w.surface)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[SegmentedWord]:
        return iter(self.words)

    def __getitem__(self, index: int) -> SegmentedWord:
        return self.words[index]

    def subset(self, indices: Sequence[int]) -> "Corpus":
        """Return a sub-corpus with the words at ``indices`` in that order."""
        return Corpus(tuple(self.words[i] for i in indices), self.language_tag)


def parse_corpus(path: str | Path, language_tag: str | None = None) -> Corpus:
    """Parse a tab-separated corpus file.

    Each data line is ``surface<TAB>morpheme( morpheme)*``. Lines beginning
    with ``#`` and blank lines are ignored; trailing whitespace carries no
    meaning. Duplicate surfaces keep the first occurrence and a warning with
    the dropped count is logged. Malformed lines raise :class:`ParseError`
    naming the file and line; a segmentation that does not concatenate to its
    surface, or puts a morpheme edge inside a grapheme cluster, raises
    :class:`ValidationError` the same way.
    """
    path = Path(path)
    tag = language_tag if language_tag is not None else path.stem
    words: list[SegmentedWord] = []
    seen: set[str] = set()
    dropped = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip()
            if not line:
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'surface<TAB>morpheme( morpheme)*'"
                )
            surface, morph_field = parts
            pieces = morph_field.split(" ")
            if "" in pieces:
                raise ParseError(f"{path}:{lineno}: empty morpheme in {morph_field!r}")
            try:
                word = SegmentedWord(surface=surface, morphemes=tuple(pieces))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if word.surface in seen:
                dropped += 1
                continue
            seen.add(word.surface)
            words.append(word)
    if dropped:
        logger.warning("parse_corpus: dropped %d duplicate surface(s) from %s", dropped, path)
    return Corpus(tuple(words), tag)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` in the tab-separated format read by :func:`parse_corpus`."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for w in corpus:
            fh.write(f"{w.surface}\t{' '.join(w.morphemes)}\n")


@dataclass(frozen=True)
class CorpusStats:
    word_type_count: int
    avg_morphemes_per_word: float
    avg_morpheme_length: float
    avg_morpheme_types_per_word: float


def corpus_stats(corpus: Corpus | Sequence[SegmentedWord]) -> CorpusStats:
    """Summary statistics over word types, each type weighted equally.

    ``avg_morpheme_length`` is the per-word mean morpheme length in graphemes
    (equivalently surface length over morpheme count), averaged over types.
    Raises :class:`DomainError` on an empty corpus.
    """
    words = list(corpus)
    if not words:
        raise DomainError("corpus_stats needs a non-empty corpus")
    n = len(words)
    per_word = [len(w.morphemes) for w in words]
    mean_counts = sum(per_word) / n
    mean_len = sum(w.cuts[-1] / len(w.morphemes) for w in words) / n
    mean_types = sum(len(set(w.morphemes)) for w in words) / n
    return CorpusStats(
        word_type_count=n,
        avg_morphemes_per_word=mean_counts,
        avg_morpheme_length=mean_len,
        avg_morpheme_types_per_word=mean_types,
    )


_STEM_CONSONANTS = "bdgkmpt"
_STEM_VOWELS = "aei"
_SUFFIX_CONSONANTS = "lnrsv"
_SUFFIX_VOWELS = "ou"


def _auto_stems(n: int) -> tuple[str, ...]:
    pool = ["".join(p) for p in itertools.product(_STEM_CONSONANTS, _STEM_VOWELS, _STEM_CONSONANTS)]
    if n > len(pool):
        pool += [
            "".join(p)
            for p in itertools.product(
                _STEM_CONSONANTS, _STEM_VOWELS, _STEM_CONSONANTS, _STEM_VOWELS, _STEM_CONSONANTS
            )
        ]
    if n > len(pool):
        raise CapacityError(f"cannot auto-generate {n} distinct stems (pool {len(pool)})")
    return tuple(pool[:n])


def _auto_suffixes(n: int) -> tuple[str, ...]:
    # Fixed-length suffixes over an alphabet disjoint from the stems keep
    # concatenations uniquely decodable.
    pool = ["".join(p) for p in itertools.product(_SUFFIX_CONSONANTS, _SUFFIX_VOWELS)]
    if n > len(pool):
        pool = ["".join(p) for p in itertools.product(pool, pool)]
    if n > len(pool):
        raise CapacityError(f"cannot auto-generate {n} distinct suffixes (pool {len(pool)})")
    return tuple(pool[:n])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic agglutinative corpus.

    ``stems`` and ``suffixes`` may be explicit inventories or counts. With
    counts, inventories are generated over disjoint stem/suffix alphabets
    with fixed suffix length, so every generated concatenation is uniquely
    decodable. Explicit inventories are the caller's responsibility in that
    regard. Each word is one stem followed by ``min_suffixes`` to
    ``max_suffixes`` suffixes drawn with repetition.
    """

    num_words: int
    stems: int | tuple[str, ...] = 30
    suffixes: int | tuple[str, ...] = 8
    min_suffixes: int = 1
    max_suffixes: int = 2
    seed: int = 0
    language_tag: str = "synthetic"


def _resolve_inventory(spec_field, auto, kind: str) -> tuple[str, ...]:
    if isinstance(spec_field, int):
        if spec_field < 1:
            raise DomainError(f"{kind} count must be >= 1")
        return auto(spec_field)
    inv = tuple(spec_field)
    if not inv:
        raise DomainError(f"{kind} inventory is empty")
    if any(not isinstance(s, str) or not s for s in inv):
        raise ValidationError(f"{kind} inventory entries must be non-empty strings")
    if len(set(inv)) != len(inv):
        raise ValidationError(f"{kind} inventory has duplicates")
    return inv


def generate_synthetic_corpus(spec: SyntheticSpec) -> Corpus:
    """Generate a deterministic synthetic corpus from ``spec``.

    Words are sampled without surface repeats. If the inventory cannot
    produce ``num_words`` distinct surfaces a :class:`CapacityError` is
    raised. The same spec always yields the same corpus.
    """
    if spec.num_words < 1:
        raise DomainError("num_words must be >= 1")
    if spec.min_suffixes < 0 or spec.max_suffixes < spec.min_suffixes:
        raise DomainError("need 0 <= min_suffixes <= max_suffixes")
    stems = _resolve_inventory(spec.stems, _auto_stems, "stem")
    sufs = _resolve_inventory(spec.suffixes, _auto_suffixes, "suffix")
    ks = range(spec.min_suffixes, spec.max_suffixes + 1)
    capacity = len(stems) * sum(len(sufs) ** k for k in ks)
    if spec.num_words > capacity:
        raise CapacityError(
            f"requested {spec.num_words} words but the inventory admits only "
            f"{capacity} stem+suffix combinations"
        )
    rng = np.random.default_rng(spec.seed)
    if capacity <= 500_000:
        combos = [
            (stem, *seq) for stem in stems for k in ks for seq in itertools.product(sufs, repeat=k)
        ]
        draws = (combos[idx] for idx in rng.permutation(len(combos)))
        shortfall = "inventory yields only {} distinct surfaces, requested {}"
    else:
        def sampled() -> Iterator[tuple[str, ...]]:
            for _ in range(200 * spec.num_words):
                stem = stems[int(rng.integers(len(stems)))]
                k = int(rng.integers(ks.start, ks.stop))
                yield (stem, *(sufs[int(i)] for i in rng.integers(len(sufs), size=k)))

        draws = sampled()
        shortfall = "sampling produced {} distinct surfaces out of {} requested"
    words: dict[str, SegmentedWord] = {}
    for morphemes in draws:
        surface = "".join(morphemes)
        if surface not in words:
            words[surface] = SegmentedWord(surface=surface, morphemes=morphemes)
            if len(words) == spec.num_words:
                return Corpus(tuple(words.values()), spec.language_tag)
    raise CapacityError(shortfall.format(len(words), spec.num_words))
