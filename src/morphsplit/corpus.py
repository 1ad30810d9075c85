"""Segmented-word corpora, the six-label codec, and synthetic corpus generation.

A corpus is an ordered collection of distinct word types. Each word carries a
surface form and an ordered tuple of morphemes whose concatenation reproduces
the surface exactly. All positions and lengths are counted in extended
grapheme clusters rather than code points, so combining marks never split.

The label codec maps a segmentation to one label per grapheme plus START/END
bookends. Singleton morphemes are labelled S; longer morphemes are labelled
B, then M for each interior grapheme, then E. Decoding is total: any label
sequence of the right length is first repaired into a consistent boundary
pattern and then read back as morphemes.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

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

    The morphemes must be non-empty and concatenate to the surface; violating
    either raises :class:`ValidationError` naming the offending word.
    """

    surface: str
    morphemes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "morphemes", tuple(self.morphemes))
        if not self.surface:
            raise ValidationError("empty surface form")
        if not self.morphemes:
            raise ValidationError(f"word {self.surface!r} has no morphemes")
        for m in self.morphemes:
            if not m:
                raise ValidationError(f"word {self.surface!r} has an empty morpheme")
        if "".join(self.morphemes) != self.surface:
            raise ValidationError(
                f"morphemes {list(self.morphemes)!r} do not concatenate "
                f"to surface {self.surface!r}"
            )

    def grapheme_count(self) -> int:
        return len(graphemes(self.surface))


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


def interior_labels(word: SegmentedWord) -> list[Label]:
    """Each grapheme's label, without bookends or validation.

    A singleton morpheme becomes S; a morpheme of k >= 2 graphemes becomes
    B, M * (k - 2), E.
    """
    labels = []
    for m in word.morphemes:
        k = len(graphemes(m))
        if k == 1:
            labels.append(Label.S)
        else:
            labels.append(Label.B)
            labels.extend([Label.M] * (k - 2))
            labels.append(Label.E)
    return labels


def encode_labels(word: SegmentedWord) -> LabelSequence:
    """Encode a segmentation as labels, one per grapheme plus bookends.

    The interior labels are :func:`interior_labels`; the result always has
    ``grapheme_count + 2`` labels.
    """
    return LabelSequence((Label.START, *interior_labels(word), Label.END))


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
    bounds = starts + [len(g)]
    morphemes = tuple("".join(g[a:b]) for a, b in zip(bounds, bounds[1:]))
    return SegmentedWord(surface=surface, morphemes=morphemes)


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
    surface raises :class:`ValidationError` the same way.
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
            if any(p == "" for p in pieces):
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
    mean_len = sum(len(graphemes(w.surface)) / len(w.morphemes) for w in words) / n
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
    words: list[SegmentedWord] = []
    seen: set[str] = set()

    if capacity <= 500_000:
        combos: list[tuple[str, ...]] = []
        for stem in stems:
            for k in ks:
                for seq in itertools.product(sufs, repeat=k):
                    combos.append((stem,) + seq)
        exhausted = True
        for idx in rng.permutation(len(combos)):
            morphemes = combos[idx]
            surface = "".join(morphemes)
            if surface in seen:
                continue
            seen.add(surface)
            words.append(SegmentedWord(surface=surface, morphemes=morphemes))
            if len(words) == spec.num_words:
                exhausted = False
                break
        if exhausted:
            raise CapacityError(
                f"inventory yields only {len(words)} distinct surfaces, "
                f"requested {spec.num_words}"
            )
    else:
        max_draws = 200 * spec.num_words
        for _ in range(max_draws):
            stem = stems[int(rng.integers(len(stems)))]
            k = int(rng.integers(spec.min_suffixes, spec.max_suffixes + 1))
            seq = tuple(sufs[int(i)] for i in rng.integers(len(sufs), size=k))
            morphemes = (stem,) + seq
            surface = "".join(morphemes)
            if surface in seen:
                continue
            seen.add(surface)
            words.append(SegmentedWord(surface=surface, morphemes=morphemes))
            if len(words) == spec.num_words:
                break
        if len(words) < spec.num_words:
            raise CapacityError(
                f"sampling produced {len(words)} distinct surfaces out of "
                f"{spec.num_words} requested"
            )
    return Corpus(tuple(words), spec.language_tag)
