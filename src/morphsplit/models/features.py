"""Position-indexed n-gram features over grapheme windows.

:func:`extract_features` names the features of one position.
:class:`FeatureTable` holds the features of every position of a list of
words as integer ranks, extracted once, so the cells of a run and both
feature models share one featurization of each corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from ..corpus import graphemes
from ..errors import ContractError, ValidationError


@dataclass(frozen=True)
class FeatureTemplate:
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

    def to_dict(self) -> dict:
        return {
            "max_ngram": self.max_ngram,
            "window": self.window,
            "include_position_flags": self.include_position_flags,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureTemplate":
        return cls(
            max_ngram=int(data["max_ngram"]),
            window=int(data["window"]),
            include_position_flags=bool(data["include_position_flags"]),
        )


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
    lo, hi = _window(position, n_g, template)
    return _window_features(g[lo:hi], position - lo, position == 0, position == n_g - 1, template)


def _window(position: int, n_g: int, template: FeatureTemplate) -> tuple[int, int]:
    """The graphemes [lo, hi) within ``template.window`` of ``position``."""
    return max(0, position - template.window), min(n_g, position + template.window + 1)


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


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``[s, s + n)`` for every (s, n) pair, concatenated."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = starts - np.cumsum(lengths) + lengths
    return np.repeat(shift, lengths) + np.arange(lengths.sum(), dtype=np.int64)


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers from row lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


class FeatureTable:
    """The features of every position of a list of words, as integer ranks.

    Feature names are ranked in sorted order (``names[r]``), and each
    position's ranks are stored ascending, CSR by word and position. A
    position's features depend only on its clipped window, its offset in
    the window and whether it is the first or last grapheme of its word
    (with ``window=0`` the offset cannot show the word edges), so each
    distinct key is extracted once.

    Gap features (``gap_features`` in ``baselines``) are ranks in a space
    of ``1 + 2 * V`` derived from the same ranks: ``BIAS`` is 0, ``L:f`` is
    ``1 + rank(f)`` and ``R:f`` is ``1 + V + rank(f)``. Since
    ``"BIAS" < "L:..." < "R:..."``, these ranks sort by name too.

    Surfaces are kept distinct, in first-occurrence order; ``row`` maps
    each to its row.
    """

    def __init__(self, surfaces: Iterable[str], template: FeatureTemplate) -> None:
        self.template = template
        self.surfaces = tuple(dict.fromkeys(surfaces))
        self.row = {s: i for i, s in enumerate(self.surfaces)}
        self.graphemes = [graphemes(s) for s in self.surfaces]
        self.lengths = np.fromiter(map(len, self.graphemes), dtype=np.int64, count=len(self.graphemes))
        keys: dict[tuple, int] = {}
        key_of_position = []
        for g in self.graphemes:
            n_g = len(g)
            for p in range(n_g):
                lo, hi = _window(p, n_g, template)
                key = (g[lo:hi], p - lo, p == 0, p == n_g - 1)
                key_of_position.append(keys.setdefault(key, len(keys)))
        key_feats = [_window_features(*key, template) for key in keys]
        self.names: tuple[str, ...] = tuple(sorted(set().union(*key_feats)))
        rank = {f: r for r, f in enumerate(self.names)}
        key_ranks = [sorted(rank[f] for f in feats) for feats in key_feats]
        key_len = np.fromiter(map(len, key_ranks), dtype=np.int64, count=len(key_ranks))
        flat = np.fromiter(chain.from_iterable(key_ranks), dtype=np.int64, count=key_len.sum())
        key_ptr = _ptr(key_len)
        kp = np.asarray(key_of_position, dtype=np.int64)
        counts = key_len[kp]
        self._ranks = flat[concat_ranges(key_ptr[kp], counts)]
        self._pos_ptr = _ptr(counts)
        self._word_ptr = _ptr(self.lengths)

    def __repr__(self) -> str:
        return f"FeatureTable({len(self.surfaces)} words, {len(self.names)} features, {self.template})"

    def rows(self, surfaces: Iterable[str]) -> np.ndarray | None:
        """The row of each surface, or None when one is not in the table."""
        row = self.row
        try:
            return np.fromiter((row[s] for s in surfaces), dtype=np.int64)
        except KeyError:
            return None

    def _positions(self, rows: np.ndarray) -> np.ndarray:
        return concat_ranges(self._word_ptr[rows], self.lengths[rows])

    def position_ranks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, ptr): the features of every position of the words at
        ``rows``, in order, CSR by position."""
        pos = self._positions(rows)
        counts = self._pos_ptr[pos + 1] - self._pos_ptr[pos]
        return self._ranks[concat_ranges(self._pos_ptr[pos], counts)], _ptr(counts)

    def gap_ranks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, ptr): the gap features of every gap of the words at
        ``rows``, in order, CSR by gap; gap g of a word joins its positions
        g - 1 (``L:``) and g (``R:``)."""
        pos = self._positions(rows)
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


def train_template(template: FeatureTemplate | None, table: FeatureTable | None) -> FeatureTemplate:
    """The template a training uses: ``template``, else the table's, else
    the default. Refuses a table built for another template."""
    if template is None:
        template = table.template if table is not None else FeatureTemplate()
    if table is not None and table.template != template:
        raise ContractError(
            f"feature table was built for {table.template}, training asks for {template}"
        )
    return template


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
