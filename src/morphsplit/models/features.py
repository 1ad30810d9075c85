"""Position-indexed n-gram features over grapheme windows.

:func:`extract_features` names the features of one position.
:class:`FeatureTable` holds the features of every position of a list of
words as integer ranks, extracted once, so the cells of a run and both
feature models share one featurization of each corpus.
:class:`LinearFeatureModel` is what both feature models are: a weight
vector over a feature index, featurized through a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import ClassVar, Iterable

import numpy as np
from scipy import sparse

from ..corpus import SegmentedWord, Segmenter, WordTable, concat_ranges, cut_slots, graphemes
from ..errors import ContractError, DomainError, ValidationError
from ..records import Record


@dataclass(frozen=True)
class FeatureTemplate(Record):
    """Which n-grams around a position become features.

    ``window`` is a radius in graphemes; an n-gram fires only when it lies
    fully inside both the window and the word. ``include_position_flags``
    adds BOS/EOS markers at the word edges.
    """

    max_ngram: int = 3
    window: int = 2
    include_position_flags: bool = True

    def __post_init__(self) -> None:
        if self.max_ngram < 1:
            raise ValidationError("max_ngram must be >= 1")
        if self.window < 0:
            raise ValidationError("window must be >= 0")


def extract_features(
    surface: str, position: int, template: FeatureTemplate = FeatureTemplate()
) -> frozenset[str]:
    """Features active at ``position`` (grapheme index) of ``surface``.

    Each n-gram is tagged with its starting offset relative to the position,
    e.g. ``ng-1:ab`` for the bigram starting one grapheme to the left.
    Raises :class:`ContractError` when the position is out of range.
    """
    g = graphemes(surface)
    n_g = len(g)
    if not 0 <= position < n_g:
        raise ContractError(
            f"position {position} out of range for {surface!r} ({n_g} graphemes)"
        )
    lo, hi = max(0, position - template.window), min(n_g, position + template.window + 1)
    return _window_features(g[lo:hi], position - lo, position == 0, position == n_g - 1, template)


def _window_features(
    window: tuple[str, ...], offset: int, first: bool, last: bool, template: FeatureTemplate
) -> frozenset[str]:
    """Features of the position at ``offset`` of its clipped ``window``;
    ``first`` and ``last`` say whether it is at a word edge."""
    feats = set()
    for n in range(1, template.max_ngram + 1):
        for s in range(len(window) - n + 1):
            feats.add(f"ng{s - offset:+d}:{''.join(window[s:s + n])}")
    if template.include_position_flags:
        if first:
            feats.add("BOS")
        if last:
            feats.add("EOS")
    return frozenset(feats)


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers from row lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def design_matrix(ids: np.ndarray, ptr: np.ndarray, n_features: int) -> sparse.csr_matrix:
    """One 0/1 row per CSR row of feature ``ids`` over the feature columns."""
    return sparse.csr_matrix(
        (np.ones(len(ids)), ids, ptr), shape=(len(ptr) - 1, n_features)
    )


def _occurrences(
    words: WordTable, template: FeatureTemplate
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(pos, feature, names): every feature occurrence of the positions of
    ``words``, laid end to end, as its position and an index into
    ``names``.

    A feature is an (offset, n, n-gram) triple, or a position flag, and is
    named once. Graphemes become integer codes, and each n-gram id pairs an
    (n - 1)-gram id with the next grapheme's code through ``np.unique``, so
    ids stay below the position count whatever ``max_ngram`` is. Two
    features may share a name when grapheme clusters concatenate alike.
    """
    flat = list(chain.from_iterable(words.graphemes))
    codes = {g: i for i, g in enumerate(dict.fromkeys(flat))}
    code = np.fromiter(map(codes.__getitem__, flat), dtype=np.int64, count=len(flat))
    # graphemes before and after each position within its word
    lengths = words.lengths
    before = np.arange(len(flat), dtype=np.int64) - np.repeat(words.ptr[:-1], lengths)
    after = np.repeat(lengths, lengths) - before - 1
    w, longest = template.window, int(lengths.max(initial=0))
    pos, feature, names = [], [], []
    ids, text = code, list(codes)
    for n in range(1, min(template.max_ngram, 2 * w + 1) + 1):
        if n > 1:
            # the n-grams that fit in their word, by start
            starts = np.flatnonzero(after >= n - 1)
            if not len(starts):
                break
            _, first, inverse = np.unique(
                ids[starts] * len(codes) + code[starts + n - 1],
                return_index=True, return_inverse=True,
            )
            ids = np.full(len(flat), -1, dtype=np.int64)
            ids[starts] = inverse
            text = ["".join(flat[s:s + n]) for s in starts[first].tolist()]
        # every offset at which some word has the n-gram inside the window
        for d in range(max(-w, 1 - longest), min(w + 1, longest) - n + 1):
            at = np.flatnonzero((before >= -d) & (after >= d + n - 1))
            grams, inverse = np.unique(ids[at + d], return_inverse=True)
            pos.append(at)
            feature.append(inverse + len(names))
            names += [f"ng{d:+d}:{text[i]}" for i in grams.tolist()]
    if template.include_position_flags:
        for flag, at in (("BOS", before == 0), ("EOS", after == 0)):
            at = np.flatnonzero(at)
            if len(at):
                pos.append(at)
                feature.append(np.full(len(at), len(names), dtype=np.int64))
                names.append(flag)
    empty = np.zeros(0, dtype=np.int64)
    return np.concatenate([empty, *pos]), np.concatenate([empty, *feature]), names


class FeatureTable(WordTable):
    """A word table that also holds the features of every position, as
    integer ranks.

    Feature names are ranked in sorted order (``names[r]``), and each
    position's ranks are stored ascending, CSR by word and position. The
    features are found with array operations on integer grapheme codes
    (:func:`_occurrences`), and each distinct one is named once; the
    names equal :func:`extract_features`'s.

    Gap features (``gap_features`` in ``baselines``) are ranks in a space
    of ``1 + 2 * V`` derived from the same ranks: ``BIAS`` is 0, ``L:f`` is
    ``1 + rank(f)`` and ``R:f`` is ``1 + V + rank(f)``. Since
    ``"BIAS" < "L:..." < "R:..."``, these ranks sort by name too.
    """

    def __init__(self, words: Iterable[str | SegmentedWord], template: FeatureTemplate) -> None:
        super().__init__(words)
        self.template = template
        pos, feature, names = _occurrences(self, template)
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        rank = {f: r for r, f in enumerate(self.names)}
        feature_rank = np.fromiter(map(rank.__getitem__, names), dtype=np.int64, count=len(names))
        # one key per (position, rank): sorting orders each position's
        # ranks, and of two n-grams that share a name one is kept (a sort
        # and a neighbour test: np.unique hashes first, many times slower)
        V = max(len(self.names), 1)
        key = np.sort(pos * V + feature_rank[feature])
        key = key[np.append(True, key[1:] != key[:-1])] if len(key) else key
        self._ranks = key % V
        self._pos_ptr = _ptr(np.bincount(key // V, minlength=int(self.ptr[-1])))

    def __repr__(self) -> str:
        return f"FeatureTable({len(self.surfaces)} words, {len(self.names)} features, {self.template})"

    def position_ranks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, ptr): the features of every position of the words at
        ``rows``, in order, CSR by position."""
        pos = self.positions(rows)
        counts = self._pos_ptr[pos + 1] - self._pos_ptr[pos]
        return self._ranks[concat_ranges(self._pos_ptr[pos], counts)], _ptr(counts)

    def gap_ranks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, ptr): the gap features of every gap of the words at
        ``rows``, in order, CSR by gap; gap g of a word joins its positions
        g - 1 (``L:``) and g (``R:``)."""
        pos = self.positions(rows)
        lengths = self.lengths[rows]
        ends = np.cumsum(lengths)[lengths > 0]
        first = np.zeros(len(pos), dtype=bool)
        first[ends - lengths[lengths > 0]] = True
        last = np.zeros(len(pos), dtype=bool)
        last[ends - 1] = True
        left, right = pos[~last], pos[~first]
        V = len(self.names)
        # BIAS comes from a -1 appended to the ranks, shifted by 1 like L:
        src = np.append(self._ranks, -1)
        bias = np.full(len(left), len(self._ranks), dtype=np.int64)
        n_left = self._pos_ptr[left + 1] - self._pos_ptr[left]
        n_right = self._pos_ptr[right + 1] - self._pos_ptr[right]
        starts = np.stack([bias, self._pos_ptr[left], self._pos_ptr[right]], axis=1).ravel()
        sizes = np.stack([np.ones_like(bias), n_left, n_right], axis=1).ravel()
        shift = np.tile(np.array([1, 1, 1 + V], dtype=np.int64), len(left))
        ranks = src[concat_ranges(starts, sizes)] + np.repeat(shift, sizes)
        return ranks, _ptr(1 + n_left + n_right)

    @cached_property
    def gap_names(self) -> tuple[str, ...]:
        """Gap feature names in gap-rank order."""
        return ("BIAS", *(f"L:{f}" for f in self.names), *(f"R:{f}" for f in self.names))


def table_rows(
    table: FeatureTable | None, surfaces, template: FeatureTemplate
) -> tuple[FeatureTable, np.ndarray]:
    """``table`` and the rows of ``surfaces`` in it; a new table over
    ``surfaces`` when there is no table for ``template`` or it lacks one of
    them."""
    surfaces = list(surfaces)
    rows = table.rows(surfaces) if table is not None and table.template == template else None
    if rows is None:
        table = FeatureTable(surfaces, template)
        rows = table.rows(surfaces)
    return table, rows


def index_ranks(ranks: np.ndarray, names) -> tuple[dict[str, int], np.ndarray]:
    """A new feature index over the ranks that occur, numbered in order of
    first occurrence, and its rank-to-id array (-1 where a rank is absent).

    ``names`` names every rank of the space.
    """
    n = len(ranks)
    first = np.full(len(names), n, dtype=np.int64)
    np.minimum.at(first, ranks, np.arange(n, dtype=np.int64))
    present = np.flatnonzero(first < n)
    order = present[np.argsort(first[present])]
    local = np.full(len(names), -1, dtype=np.int64)
    local[order] = np.arange(len(order), dtype=np.int64)
    return {names[r]: i for i, r in enumerate(order.tolist())}, local


def rank_ids(feature_index: dict[str, int], names) -> np.ndarray:
    """The id of every rank's name in ``feature_index``, -1 when absent."""
    return np.fromiter((feature_index.get(f, -1) for f in names), dtype=np.int64, count=len(names))


def localize(ranks: np.ndarray, ptr: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, ptr): ``ranks`` mapped through ``local``, absent ones dropped,
    each CSR row's ids sorted."""
    ids = local[ranks]
    seg = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))
    keep = ids >= 0
    ids, seg = ids[keep], seg[keep]
    # ids are distinct within a row, so one key orders rows, then ids
    order = np.argsort(seg * (int(local.max(initial=-1)) + 1) + ids, kind="stable")
    return ids[order], _ptr(np.bincount(seg, minlength=len(ptr) - 1))


@dataclass
class LinearFeatureModel(Segmenter):
    """A weight vector over a feature index, featurized through a
    :class:`FeatureTable`.

    Subclasses set what a :class:`Segmenter` sets; ``GAPS``, whether their
    features describe the gaps between graphemes (the table's gap ranks)
    rather than the graphemes (its position ranks); and ``n_weights``, the
    weight count for an index size.

    ``table`` is the feature table the model was trained through and
    ``table_ids`` the model's feature id of each of its ranks (-1 where it
    has none); neither is serialized. Words outside the table are
    featurized anew.
    """

    GAPS: ClassVar[bool]

    feature_index: dict[str, int]
    weights: np.ndarray
    template: FeatureTemplate
    l2_lambda: float
    table: FeatureTable | None = field(default=None, repr=False, compare=False)
    table_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def n_weights(n_features: int) -> int:
        return n_features

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        n_f = len(self.feature_index)
        want = self.n_weights(n_f)
        if self.weights.shape != (want,):
            raise ValidationError(
                f"weight vector must have length {want} "
                f"({n_f} features), got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")

    @classmethod
    def _rank_space(cls, table: FeatureTable, rows: np.ndarray):
        """(ranks, ptr, names): the features of the words at ``rows`` in
        the model's rank space, CSR by position or gap, and the names of
        that space."""
        if cls.GAPS:
            return (*table.gap_ranks(rows), table.gap_names)
        return (*table.position_ranks(rows), table.names)

    def feature_ids(self, surfaces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, ptr, lengths): the known feature ids of every position (or
        gap) of ``surfaces``, CSR, and each surface's grapheme count."""
        table, rows = table_rows(self.table, surfaces, self.template)
        ranks, ptr, names = self._rank_space(table, rows)
        local = self.table_ids if table is self.table else rank_ids(self.feature_index, names)
        return (*localize(ranks, ptr, local), table.lengths[rows])

    @classmethod
    def untrained(cls, corpus, template: FeatureTemplate | None, l2_lambda: float,
                  table: FeatureTable | None):
        """(model, starts, features): the zero-weight model over the
        features of ``corpus``, whether a gold morpheme starts at each
        position of its words, laid end to end, and their (ids, ptr,
        lengths) as :meth:`feature_ids` gives them.

        The feature index follows first occurrence over the positions (or
        gaps) in corpus order, each one's features by name. Words are
        featurized through ``table`` when it holds them all, and their gold
        is read from it when it was built from segmented words. ``template``
        defaults to the table's, else to the default; a table built for
        another template is refused.
        """
        if template is None:
            template = table.template if table is not None else FeatureTemplate()
        if table is not None and table.template != template:
            raise ContractError(
                f"feature table was built for {table.template}, training asks for {template}"
            )
        words = list(corpus)
        if not words:
            raise DomainError(f"train_{cls.KIND} needs a non-empty corpus")
        table, rows = table_rows(table, (w.surface for w in words), template)
        ranks, ptr, names = cls._rank_space(table, rows)
        feature_index, local = index_ranks(ranks, names)
        model = cls(
            feature_index=feature_index,
            weights=np.zeros(cls.n_weights(len(feature_index))),
            template=template,
            l2_lambda=l2_lambda,
            table=table,
            table_ids=local,
        )
        starts = table.starts(rows) if table.segmented else cut_slots(words)[:-1]
        return model, starts, (*localize(ranks, ptr, local), table.lengths[rows])

    def to_dict(self) -> dict:
        order = sorted(self.feature_index, key=self.feature_index.__getitem__)
        return {
            "kind": self.KIND,
            "template": self.template.to_dict(),
            "l2_lambda": float(self.l2_lambda),
            "features": order,
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, data: dict):
        features = list(data["features"])
        return cls(
            feature_index={f: i for i, f in enumerate(features)},
            weights=np.asarray(data["weights"], dtype=float),
            template=FeatureTemplate.from_dict(data["template"]),
            l2_lambda=float(data["l2_lambda"]),
        )
