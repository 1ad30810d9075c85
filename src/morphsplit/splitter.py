"""Dataset partitions and experiment grids.

Three partition strategies over a corpus of word types:

* random: a seeded permutation cut at the ratio point;
* adversarial: hill climbing over single-pair swaps, maximizing the
  distance between the two sides' morpheme frequency distributions;
* heuristic: a threshold on per-word morpheme counts, which only succeeds
  when some threshold lands within tolerance of the target share.

The distance between two morpheme distributions is total variation,
``0.5 * sum(|p - q|)``, which for point masses under a 0/1 ground metric is
also the 1-Wasserstein distance. The adversarial search never decides on it
in floating point: with integer token counts, comparing
``S / (2 * TA * TB)`` across candidates reduces to exact integer
cross-multiplication.

Grids expand a plan into cells: carve a new test set from the corpus, then
split the residual into train and eval several times, recording every split
as a manifest so each cell is reconstructible.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Container, Iterable, Sequence

import numpy as np

from .corpus import Corpus, MorphemeRows, SegmentedWord
from .errors import CapacityError, DomainError, SplitError, ValidationError
from .records import Ratio, Record, as_fraction, format_ratio, parse_ratio, write_json  # noqa: F401

STRATEGIES = ("random", "adversarial", "heuristic")
STAGES = ("new_test_carving", "residual_split")

#: Strategies a grid may use for its residual train/eval splits.
GRID_STRATEGIES = ("random", "adversarial")

DEFAULT_ADVERSARIAL_BUDGET = 50_000


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a stable 64-bit seed from a master seed and a context path.

    The same arguments always produce the same value, across processes and
    platforms, so any cell of a run can be recomputed in isolation.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((int(master_seed),) + tuple(str(p) for p in parts)).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def share_b(ratio: Fraction) -> Fraction:
    """Fraction of items assigned to side b under an a:b ratio."""
    return Fraction(ratio.denominator, ratio.numerator + ratio.denominator)


@dataclass(frozen=True)
class MorphemeDistribution:
    """A token-frequency distribution over morphemes, support sorted."""

    support: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if len(self.support) != len(self.probabilities):
            raise ValidationError("support and probabilities differ in length")
        if not self.support:
            raise ValidationError("empty distribution")
        if list(self.support) != sorted(set(self.support)):
            raise ValidationError("support must be sorted and distinct")
        if any(p < 0 for p in self.probabilities):
            raise ValidationError("negative probability")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValidationError("probabilities do not sum to 1")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.support, self.probabilities))


def morpheme_distribution(words: Corpus | Iterable[SegmentedWord]) -> MorphemeDistribution:
    """Token-frequency distribution of morphemes over ``words``.

    Every morpheme occurrence counts once; raises :class:`DomainError` when
    ``words`` is empty.
    """
    counts: Counter[str] = Counter()
    for w in words:
        counts.update(w.morphemes)
    if not counts:
        raise DomainError("morpheme_distribution needs at least one word")
    total = sum(counts.values())
    support = tuple(sorted(counts))
    probs = tuple(counts[m] / total for m in support)
    return MorphemeDistribution(support=support, probabilities=probs)


def distribution_distance(p: MorphemeDistribution, q: MorphemeDistribution) -> float:
    """Total variation distance between two morpheme distributions."""
    pd, qd = p.as_dict(), q.as_dict()
    keys = set(pd) | set(qd)
    return 0.5 * sum(abs(pd.get(k, 0.0) - qd.get(k, 0.0)) for k in keys)


def split_distance(
    corpus: Corpus, side_a: Sequence[int], side_b: Sequence[int]
) -> float:
    """Correctly rounded total variation distance between two sides.

    The sides' morpheme counts come from the corpus's morpheme rows
    (:attr:`Corpus.morpheme_rows`), and the distance by the one rule every
    manifest distance follows (see ``_distance``): the exact integer
    numerator, rounded to float once. Distances of different partitions of
    the same corpus therefore compare in the same order as their exact
    values, which keeps manifest distances from different strategies
    mutually comparable.
    """
    if not len(side_a) or not len(side_b):
        raise DomainError("split_distance needs two non-empty sides")
    rows = corpus.morpheme_rows
    c_a, c_b = rows.counts(side_a), rows.counts(side_b)
    t_a, t_b = int(c_a.sum()), int(c_b.sum())
    # each term is at most t_a*t_b and they sum to at most 2*t_a*t_b
    if t_a * t_b >= _INT64_SCORES:
        c_a, c_b = c_a.astype(object), c_b.astype(object)
    return _distance(int(np.abs(c_a * t_b - c_b * t_a).sum()), t_a, t_b)


def _distance(score: int, t_a: int, t_b: int) -> float:
    """The distance ``score / (2 * t_a * t_b)`` of the integer score
    ``sum_m |cA[m]*TB - cB[m]*TA|`` of sides of t_a and t_b tokens, in
    Python integers, rounded once."""
    return score / (2 * t_a * t_b)


@dataclass(frozen=True)
class SplitManifest(Record):
    """A reproducible record of one two-way partition.

    ``indices_a`` and ``indices_b`` are sorted positions into the corpus the
    split was computed on. For random and adversarial splits the size law
    ``abs(len(indices_b) - round(share_b * N)) <= 1`` holds; heuristic splits
    answer to their share tolerance instead.
    """

    strategy: str
    stage: str
    seed: int
    indices_a: tuple[int, ...]
    indices_b: tuple[int, ...]
    target_ratio: Ratio
    achieved_distance: float
    budget_used: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices_a", tuple(int(i) for i in self.indices_a))
        object.__setattr__(self, "indices_b", tuple(int(i) for i in self.indices_b))
        object.__setattr__(self, "target_ratio", as_fraction(self.target_ratio))
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.stage not in STAGES:
            raise ValidationError(f"unknown stage {self.stage!r}")
        a, b = self.indices_a, self.indices_b
        if not a or not b:
            raise ValidationError("both sides of a split must be non-empty")
        for side in (a, b):
            if any(x >= y for x, y in zip(side, side[1:])):
                raise ValidationError("indices must be sorted ascending and distinct")
        n = len(a) + len(b)
        if set(a) | set(b) != set(range(n)) or set(a) & set(b):
            raise ValidationError("sides must partition range(N) exactly")
        if not 0.0 <= self.achieved_distance <= 1.0 + 1e-12:
            raise ValidationError(f"achieved_distance {self.achieved_distance} outside [0, 1]")
        if self.budget_used < 0:
            raise ValidationError("budget_used must be >= 0")
        if self.strategy in GRID_STRATEGIES:
            expect = round(n * share_b(self.target_ratio))
            if abs(len(b) - expect) > 1:
                raise ValidationError(
                    f"side b has {len(b)} items, expected about {expect} for "
                    f"ratio {format_ratio(self.target_ratio)} on {n}"
                )


def save_manifest(manifest: SplitManifest, path: str | Path) -> None:
    write_json(path, manifest.to_dict())


def load_manifest(path: str | Path) -> SplitManifest:
    return SplitManifest.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _side_sizes(n: int, ratio: Fraction) -> int:
    """Number of items on side b, both sides guaranteed non-empty."""
    if n < 2:
        raise SplitError(f"cannot split a corpus of {n} word(s)")
    n_b = round(n * share_b(ratio))
    if n_b < 1 or n_b > n - 1:
        raise SplitError(
            f"ratio {format_ratio(ratio)} on {n} words leaves an empty side"
        )
    return n_b


def _seeded_sides(n: int, n_b: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic random partition of range(n) into sides of n-n_b and n_b."""
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(np.sort(perm[n_b:]).tolist()), tuple(np.sort(perm[:n_b]).tolist())


def random_split(
    corpus: Corpus,
    ratio: Fraction,
    seed: int,
    stage: str = "residual_split",
) -> SplitManifest:
    """Partition ``corpus`` uniformly at random at the given a:b ratio.

    Deterministic in ``seed``. Raises :class:`SplitError` if either side
    would be empty.
    """
    ratio = as_fraction(ratio)
    n = len(corpus)
    n_b = _side_sizes(n, ratio)
    a, b = _seeded_sides(n, n_b, seed)
    return SplitManifest(
        strategy="random",
        stage=stage,
        seed=seed,
        indices_a=a,
        indices_b=b,
        target_ratio=ratio,
        achieved_distance=split_distance(corpus, a, b),
        budget_used=0,
    )


#: Swap comparisons multiply scores by side totals in int64 below this bound
#: on ``max word tokens * corpus tokens**3``, in Python integers above it; a
#: split distance's products are int64 below it on ``TA * TB``.
_INT64_SCORES = 2**62


def _search_rows(corpus: Corpus) -> tuple[MorphemeRows, bool]:
    """The morpheme rows an adversarial search of ``corpus`` reads, and
    whether its swap comparisons are exact in int64.

    Both bounds use the corpus's own totals and its own count of morpheme
    types, which a subset's rows number alone. Raises
    :class:`DomainError` for a corpus too large for exact integer scoring.
    """
    rows = corpus.morpheme_rows
    if rows.total * rows.total * max(rows.vocab_size, 1) >= 2**62:
        raise DomainError(
            "corpus too large for exact integer split scoring "
            f"({rows.total} tokens, {rows.vocab_size} morpheme types)"
        )
    # a swap's score change is below 3*tmax*T, its side-total product
    # change below 2*tmax*T, and the scores below T**2 / 2
    return rows, int(rows.tots.max()) * rows.total**3 < _INT64_SCORES


class _SwapState:
    """Integer bookkeeping for the adversarial hill climb.

    The unnormalized score is ``S = sum_m |cA[m]*TB - cB[m]*TA|`` where cA,
    cB are per-side morpheme token counts and TA, TB the side totals; the
    total variation distance equals ``S / (2*TA*TB)``. All comparisons
    between candidate swaps cross-multiply these integers exactly.

    Swapping word u (side a) for word v (side b) changes cA by
    ``D = X_v - X_u`` and TA by ``d = tot_v - tot_u``. With ``T = TA + TB``
    and ``base_m(d) = cA[m]*(TB - d) - cB[m]*(TA + d)``, the new score is
    ``S0(d) + sum over m in supp(u) | supp(v) of
    |base_m(d) + D[m]*T| - |base_m(d)|``, where ``S0(d)`` sums
    ``|base_m(d)|`` over all morphemes. Since ``base_m(d) = base_m(0) -
    d*C[m]`` for the constant corpus counts C, scoring a swap touches only
    the rows of u and v, plus one O(V) sum per distinct ``d`` per
    partition.
    """

    def __init__(self, rows: MorphemeRows, int64_exact: bool, side_a: np.ndarray):
        self.rows, self.int64_exact = rows, int64_exact
        self.c_a = rows.counts(side_a)
        self.t_a = int(rows.tots[side_a].sum())
        self.d_min = int(rows.tots.min() - rows.tots.max())
        self._s0 = np.empty(1 - 2 * self.d_min, dtype=np.int64)
        self._settle()

    @property
    def t_b(self) -> int:
        return self.rows.total - self.t_a

    def _settle(self) -> None:
        """Recompute base(0) and the score after the counts changed."""
        self.base = self.c_a * self.rows.total - self.rows.totals * self.t_a
        self.score = int(np.abs(self.base).sum())
        self._s0.fill(-1)
        self._s0[-self.d_min] = self.score

    def is_maximal(self) -> bool:
        return self.score == 2 * self.t_a * self.t_b

    def _s0_at(self, d: np.ndarray) -> np.ndarray:
        """``S0(d)`` for each entry of ``d``, each distinct value summed once."""
        at = d - self.d_min
        s0 = self._s0[at]
        if np.minimum.reduce(s0) < 0:
            for i in set(at[s0 < 0].tolist()):
                self._s0[i] = np.abs(self.base - (i + self.d_min) * self.rows.totals).sum()
            s0 = self._s0[at]
        return s0

    def first_improvement(self, us: np.ndarray, vs: np.ndarray) -> int | None:
        """Index of the first pair whose swap (``us[j]`` to side b, ``vs[j]``
        to side a) strictly raises the distance, or None when none does."""
        rows = self.rows
        d = rows.tots[vs] - rows.tots[us]
        # (slot, pair) arrays of the two rows of every pair
        u_slots, v_slots = us + rows.slot_start, vs + rows.slot_start
        u_ids, u_cnts = rows.ids[u_slots], rows.cnts[u_slots]
        v_ids, v_cnts = rows.ids[v_slots], rows.cnts[v_slots]
        same = u_ids[:, None, :] == v_ids[None, :, :]
        # D = X_v - X_u on u's morphemes, then D = X_v on v's other ones
        # (the ufunc reductions skip the ndarray method wrappers, which cost
        # more than the arithmetic on passes this small)
        ids = np.concatenate((u_ids, v_ids))
        moved = np.concatenate((
            np.add.reduce(same * v_cnts, axis=1) - u_cnts,
            np.where(np.logical_or.reduce(same, axis=0), 0, v_cnts),
        ))
        base = self.base[ids] - d * rows.totals[ids]
        gain = np.add.reduce(np.abs(base + moved * rows.total) - np.abs(base), axis=0)
        # score'/(ta'*tb') > score/(ta*tb)  <=>  (score' - score)*ta*tb > score*e
        # with e = ta'*tb' - ta*tb, compared in int64 where no product can
        # overflow it and in Python integers beyond that
        diff = self._s0_at(d) + gain - self.score
        e = d * (self.t_b - self.t_a - d)
        if not self.int64_exact:
            diff, e = diff.astype(object), e.astype(object)
        hits = (diff * (self.t_a * self.t_b) > e * self.score).nonzero()[0]
        return int(hits[0]) if len(hits) else None

    def apply_swap(self, u: int, v: int) -> None:
        rows = self.rows
        u_slots, v_slots = u + rows.slot_start[:, 0], v + rows.slot_start[:, 0]
        self.c_a[rows.ids[u_slots]] -= rows.cnts[u_slots]
        self.c_a[rows.ids[v_slots]] += rows.cnts[v_slots]
        self.t_a += int(rows.tots[v] - rows.tots[u])
        self._settle()


#: Pairs per vector pass: the first after a swap, and the most, in units of
#: the squared row width (a pass holds pairs x width x width booleans).
_FIRST_PASS = 16
_PASS_CELLS = 1 << 12


def _climb(
    state: _SwapState,
    side_a: np.ndarray,
    side_b: np.ndarray,
    budget: int | None,
    used: int,
) -> int:
    """First-improvement sweeps over single-pair swaps until a local optimum.

    A sweep visits the pairs (side_a[ia], side_b[ib]) in row-major order.
    They are scored a run at a time in one vector pass; the first strict
    improvement at run offset j is applied and charged ``j + 1``
    evaluations, and the next run starts at the pair after it, with the
    swapped words in place. A run without one is charged its length, and
    the next run is twice as long (up to a fixed size), so stretches
    without improvements cost few passes. The runs never reach past the
    sweep or the budget, which makes this the one-pair-at-a-time scan with
    the same accepted swaps and the same evaluation count. Mutates
    ``state`` and the side arrays in place; returns the updated evaluation
    count. Stops early when the distance reaches 1 or ``budget``
    evaluations have been spent overall.
    """
    n_b = len(side_b)
    sweep = len(side_a) * n_b
    longest = max(_FIRST_PASS, _PASS_CELLS // state.rows.width**2)
    improved = True
    while improved and not state.is_maximal():
        if budget is not None and used >= budget:
            return used
        improved = False
        pos, size = 0, _FIRST_PASS
        while pos < sweep:
            stop = min(sweep, pos + size)
            if budget is not None:
                stop = min(stop, pos + budget - used)
            if stop <= pos:
                return used
            ia, ib = np.divmod(np.arange(pos, stop), n_b)
            j = state.first_improvement(side_a[ia], side_b[ib])
            if j is None:
                used += stop - pos
                pos = stop
                size = min(2 * size, longest)
                continue
            used += j + 1
            ia, ib = divmod(pos + j, n_b)
            state.apply_swap(side_a[ia], side_b[ib])
            side_a[ia], side_b[ib] = side_b[ib], side_a[ia]
            improved = True
            if state.is_maximal():
                return used
            pos += j + 1
            size = _FIRST_PASS
    return used


ADVERSARIAL_STARTS = 8


def adversarial_split(
    corpus: Corpus,
    ratio: Fraction,
    seed: int,
    budget: int | None = DEFAULT_ADVERSARIAL_BUDGET,
    stage: str = "residual_split",
) -> SplitManifest:
    """Multi-start greedy single-pair-swap search maximizing distance.

    Runs up to ``ADVERSARIAL_STARTS`` first-improvement hill climbs and
    keeps the best terminal partition, ties going to the earliest start.
    The first climb starts from the seed-matched random split; the rest
    restart from partitions drawn with seeds derived from ``seed``, which
    lets the search escape local optima that trap a single climb. Each
    climb sweeps candidate swaps in deterministic order, accepting the
    first strict improvement, until a full sweep yields none, the distance
    reaches 1, or the shared evaluation ``budget`` runs out. One vector pass
    scores a run of consecutive pairs, which may span several side-a words
    (see ``_climb``), over padded slot-major morpheme-count rows (see
    :class:`MorphemeRows` and ``_SwapState``), in O(n*K + V) memory. The
    rows are the corpus's :attr:`Corpus.morpheme_rows`: counted once per
    corpus, and for a subset, such as a grid's residual, gathered from its
    parent's. Swaps and terminal partitions are compared with exact integer
    arithmetic and every manifest distance is the correctly rounded exact
    value, formed as :func:`split_distance` forms it, so the result never
    scores below the random split with the same seed, not even in the last
    bit.

    Parameters
    ----------
    budget : int or None
        Maximum number of swap evaluations across all climbs; None means
        unlimited.
    """
    ratio = as_fraction(ratio)
    if budget is not None and budget < 0:
        raise DomainError("budget must be >= 0 or None")
    n = len(corpus)
    n_b = _side_sizes(n, ratio)
    rows, int64_exact = _search_rows(corpus)
    used = 0
    best: tuple[int, int, int, tuple[int, ...], tuple[int, ...]] | None = None

    for start in range(ADVERSARIAL_STARTS):
        start_seed = seed if start == 0 else derive_seed(seed, "restart", start)
        side_a, side_b = (
            np.array(side, dtype=np.int64) for side in _seeded_sides(n, n_b, start_seed)
        )
        state = _SwapState(rows, int64_exact, side_a)
        used = _climb(state, side_a, side_b, budget, used)
        candidate = (
            state.score,
            state.t_a,
            state.t_b,
            tuple(sorted(side_a.tolist())),
            tuple(sorted(side_b.tolist())),
        )
        # cross-multiplied comparison of score/(2*t_a*t_b) in exact integers
        if best is None or candidate[0] * (best[1] * best[2]) > best[0] * (
            candidate[1] * candidate[2]
        ):
            best = candidate
        if state.is_maximal() or (budget is not None and used >= budget):
            break

    score, t_a, t_b, a, b = best
    return SplitManifest(
        strategy="adversarial",
        stage=stage,
        seed=seed,
        indices_a=a,
        indices_b=b,
        target_ratio=ratio,
        achieved_distance=_distance(score, t_a, t_b),
        budget_used=used,
    )


def heuristic_split(
    corpus: Corpus,
    ratio: Fraction,
    tolerance=Fraction(1, 50),
    stage: str = "residual_split",
) -> SplitManifest | None:
    """Split on a per-word morpheme-count threshold, if one fits.

    Words with at least ``t`` morphemes go to side b. The split succeeds
    when some threshold puts side b's share within ``tolerance`` of the
    target share; among successes the threshold with the smallest absolute
    deviation wins, ties going to the smallest threshold. Returns None when
    no threshold fits, which is a modeled outcome rather than an error.
    """
    ratio = as_fraction(ratio)
    tol = as_fraction(tolerance)
    if tol < 0:
        raise DomainError("tolerance must be >= 0")
    n = len(corpus)
    if n < 2:
        raise SplitError(f"cannot split a corpus of {n} word(s)")
    target = share_b(ratio)
    counts = [len(w.morphemes) for w in corpus]
    best = None
    for t in sorted(set(counts)):
        b = tuple(i for i, c in enumerate(counts) if c >= t)
        if not b or len(b) == n:
            continue
        deviation = abs(Fraction(len(b), n) - target)
        if deviation <= tol and (best is None or deviation < best[0]):
            best = (deviation, t, b)
    if best is None:
        return None
    _, _, b = best
    chosen = set(b)
    a = tuple(i for i in range(n) if i not in chosen)
    return SplitManifest(
        strategy="heuristic",
        stage=stage,
        seed=0,
        indices_a=a,
        indices_b=b,
        target_ratio=ratio,
        achieved_distance=split_distance(corpus, a, b),
        budget_used=0,
    )


_DEFAULT_FRACTIONS = tuple(Fraction(k, 10) for k in range(1, 6))


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid layout: which fractions, how many samples and residual splits."""

    new_test_fractions: tuple[Fraction, ...] = _DEFAULT_FRACTIONS
    samples_per_fraction: int = 10
    residual_splits: int = 3
    residual_ratio: Fraction = Fraction(9, 1)
    new_test_generation: str = "random"
    master_seed: int = 0
    adversarial_budget: int | None = DEFAULT_ADVERSARIAL_BUDGET

    def __post_init__(self) -> None:
        fracs = tuple(as_fraction(f) for f in self.new_test_fractions)
        object.__setattr__(self, "new_test_fractions", fracs)
        object.__setattr__(self, "residual_ratio", as_fraction(self.residual_ratio))
        if not fracs:
            raise ValidationError("need at least one new-test fraction")
        if len(set(fracs)) != len(fracs):
            raise ValidationError("new-test fractions must be distinct")
        if any(not 0 < f < 1 for f in fracs):
            raise ValidationError("new-test fractions must lie strictly between 0 and 1")
        if self.samples_per_fraction < 1 or self.residual_splits < 1:
            raise ValidationError("samples_per_fraction and residual_splits must be >= 1")
        if self.adversarial_budget is not None and self.adversarial_budget < 0:
            raise ValidationError("adversarial_budget must be >= 0 or None")
        if self.new_test_generation not in GRID_STRATEGIES:
            raise ValidationError(
                f"new_test_generation must be one of {GRID_STRATEGIES}, "
                f"got {self.new_test_generation!r}"
            )


@dataclass(frozen=True)
class GridCell(Record):
    """One experiment cell: disjoint train/eval/new-test index sets.

    All indices refer to the original corpus. The two manifests are the
    carve that produced the new test set (its indices are original-corpus
    positions) and the residual train/eval split (its indices are positions
    into the sorted residual, resolvable through the carve manifest).
    """

    cell_id: str
    fraction: Fraction
    sample_index: int
    split_index: int
    new_test_strategy: str
    residual_strategy: str
    train_indices: tuple[int, ...]
    eval_indices: tuple[int, ...]
    new_test_indices: tuple[int, ...]
    carve_manifest: SplitManifest
    residual_manifest: SplitManifest

    def __post_init__(self) -> None:
        for name in ("train_indices", "eval_indices", "new_test_indices"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))
        object.__setattr__(self, "fraction", as_fraction(self.fraction))
        tr, ev, nt = set(self.train_indices), set(self.eval_indices), set(self.new_test_indices)
        if not tr or not ev or not nt:
            raise ValidationError(f"cell {self.cell_id}: empty member set")
        if tr & ev or tr & nt or ev & nt:
            raise ValidationError(f"cell {self.cell_id}: member sets overlap")
        n = len(tr) + len(ev) + len(nt)
        if tr | ev | nt != set(range(n)):
            raise ValidationError(f"cell {self.cell_id}: member sets do not cover the corpus")


def _split_by(strategy: str, corpus, ratio, seed, budget, stage) -> SplitManifest:
    if strategy == "random":
        return random_split(corpus, ratio, seed, stage=stage)
    return adversarial_split(corpus, ratio, seed, budget=budget, stage=stage)


def grid_units(
    plan: ExperimentPlan, residual_strategies: Sequence[str]
) -> list[tuple[Fraction, int, list[tuple[str, int, str]]]]:
    """The grid's work units in order, one per carve: (fraction, sample,
    the (residual strategy, split, cell id) of each of its cells).

    Cell ids are a pure function of these coordinates, so the cells of a
    grid are known without splitting anything.
    """
    generation = plan.new_test_generation
    units = []
    for frac in plan.new_test_fractions:
        pct = f"{float(frac) * 100:.10g}"
        for s in range(plan.samples_per_fraction):
            units.append((frac, s, [
                (strategy, r, f"nt{pct}pct-{generation}-s{s:02d}-{strategy}-r{r}")
                for strategy in residual_strategies
                for r in range(plan.residual_splits)
            ]))
    return units


def check_capacity(n: int, fractions: Sequence[Fraction], residual_ratio: Fraction) -> None:
    """Raise :class:`CapacityError` if a grid with these new-test
    ``fractions`` and ``residual_ratio`` would leave any cell of an
    ``n``-word corpus an empty train, eval, or new-test set."""
    for frac in fractions:
        n_new = round(n * frac)
        n_res = n - n_new
        n_eval = round(n_res * share_b(residual_ratio)) if n_res > 0 else 0
        if n_new < 1 or n_res - n_eval < 1 or n_eval < 1:
            raise CapacityError(
                f"fraction {frac} on {n} words would leave an empty train, "
                "eval, or new-test set"
            )


def build_grid(
    corpus: Corpus,
    plan: ExperimentPlan,
    residual_strategy: str | Sequence[str],
    only: Container[str] | None = None,
) -> tuple[GridCell, ...]:
    """Expand ``plan`` into cells for one or more residual split strategies.

    For every (fraction, sample) pair a new test set is carved once with
    the plan's generation strategy, and shared by every strategy in
    ``residual_strategy`` (a name or a sequence of names); the residual is
    then split ``plan.residual_splits`` times with each. All seeds derive
    from the plan's master seed and the cell coordinates, so two calls with
    equal arguments produce byte-identical cells, and any subset of the
    cells can be built alone: with ``only``, a collection of cell ids, just
    those cells are built, and a carve only when one of its cells is
    wanted. Raises :class:`CapacityError` if any cell would have an empty
    member set.
    """
    strategies = (
        (residual_strategy,) if isinstance(residual_strategy, str) else tuple(residual_strategy)
    )
    for strategy in strategies:
        if strategy not in GRID_STRATEGIES:
            raise DomainError(
                f"residual strategy must be one of {GRID_STRATEGIES}, got {strategy!r}"
            )
    check_capacity(len(corpus), plan.new_test_fractions, plan.residual_ratio)
    generation = plan.new_test_generation
    cells = []
    for frac, s, unit in grid_units(plan, strategies):
        wanted = unit if only is None else [cell for cell in unit if cell[2] in only]
        if not wanted:
            continue
        carve_seed = derive_seed(plan.master_seed, "carve", generation, str(frac), s)
        carve = _split_by(
            generation, corpus, (Fraction(1) - frac) / frac, carve_seed,
            plan.adversarial_budget, "new_test_carving",
        )
        residual = carve.indices_a
        residual_corpus = corpus.subset(residual)
        for strategy, r, cell_id in wanted:
            seed = derive_seed(plan.master_seed, "residual", strategy, str(frac), s, r)
            m = _split_by(
                strategy, residual_corpus, plan.residual_ratio, seed,
                plan.adversarial_budget, "residual_split",
            )
            cells.append(
                GridCell(
                    cell_id=cell_id,
                    fraction=frac,
                    sample_index=s,
                    split_index=r,
                    new_test_strategy=generation,
                    residual_strategy=strategy,
                    train_indices=tuple(sorted(residual[i] for i in m.indices_a)),
                    eval_indices=tuple(sorted(residual[i] for i in m.indices_b)),
                    new_test_indices=carve.indices_b,
                    carve_manifest=carve,
                    residual_manifest=m,
                )
            )
    return tuple(cells)
