"""Segmentation scoring, model ranking, and cross-split aggregation.

Two F1 variants are computed throughout: boundary F1 over internal split
positions, and morpheme F1 over (start, end, string) spans. Corpus-level
scores micro-average by default (summed TP/FP/FN over words); the macro
option averages per-word precision and recall and takes their harmonic
mean. Rankings sort models by score and merge adjacent near-ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import SegmentedWord, Segmentations, unpack_slots
from .errors import ContractError, DomainError, ValidationError
from .records import Record

F1_VARIANTS = ("boundary", "morpheme")
AVERAGES = ("micro", "macro")
DEFAULT_COLLAPSE_EPSILON = 0.02


@dataclass(frozen=True)
class ScoreTriple:
    """Precision, recall, and their harmonic mean."""

    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        s = self.precision + self.recall
        want = 2 * self.precision * self.recall / s if s > 0 else 0.0
        if abs(self.f1 - want) > 1e-9:
            raise ValidationError(
                f"f1 {self.f1} inconsistent with precision/recall (want {want})"
            )

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "ScoreTriple":
        s = precision + recall
        return cls(precision, recall, 2 * precision * recall / s if s > 0 else 0.0)

    def to_dict(self) -> list[float]:
        return [self.precision, self.recall, self.f1]

    @classmethod
    def from_dict(cls, data: list[float]) -> "ScoreTriple":
        return cls(*data)


def boundary_positions(word: SegmentedWord) -> frozenset[int]:
    """Internal split positions in graphemes, excluding 0 and the length."""
    return frozenset(word.cuts[1:-1])


def morpheme_spans(word: SegmentedWord) -> frozenset[tuple[int, int, str]]:
    """(start, end, string) spans in grapheme coordinates."""
    return frozenset(zip(word.cuts, word.cuts[1:], word.morphemes))


def _prf(tp: int, fp: int, fn: int) -> ScoreTriple:
    # vacuous-truth convention: nothing to find and nothing found is perfect
    precision = tp / (tp + fp) if tp + fp > 0 else (1.0 if tp + fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn > 0 else (1.0 if tp + fp == 0 else 0.0)
    return ScoreTriple.from_pr(precision, recall)


def _counts(gold: SegmentedWord, pred: SegmentedWord, variant: str):
    if gold.surface != pred.surface:
        raise ContractError(
            f"surface mismatch: gold {gold.surface!r} vs pred {pred.surface!r}"
        )
    if variant == "boundary":
        g, p = boundary_positions(gold), boundary_positions(pred)
    elif variant == "morpheme":
        g, p = morpheme_spans(gold), morpheme_spans(pred)
    else:
        raise DomainError(f"variant must be one of {F1_VARIANTS}, got {variant!r}")
    tp = len(g & p)
    return tp, len(p) - tp, len(g) - tp


def boundary_f1(gold: SegmentedWord, pred: SegmentedWord) -> ScoreTriple:
    """F1 over internal boundary positions of a single word."""
    return _prf(*_counts(gold, pred, "boundary"))


def morpheme_f1(gold: SegmentedWord, pred: SegmentedWord) -> ScoreTriple:
    """F1 over morpheme spans of a single word."""
    return _prf(*_counts(gold, pred, "morpheme"))


def corpus_f1(
    gold: Sequence[SegmentedWord],
    pred: Sequence[SegmentedWord],
    variant: str = "boundary",
    average: str = "micro",
) -> ScoreTriple:
    """Corpus-level F1 over aligned gold/predicted segmentations.

    Both sides are scored as :class:`Segmentations`, one integer of cut
    bits each, and give the counts :func:`boundary_f1` and
    :func:`morpheme_f1` give word by word. Macro averages sum the words'
    precisions and recalls in word order, as :func:`mean_triple` does.
    """
    if len(gold) != len(pred):
        raise ContractError(f"gold has {len(gold)} words, pred has {len(pred)}")
    if not gold:
        raise DomainError("corpus_f1 needs at least one word")
    if average not in AVERAGES:
        raise DomainError(f"average must be one of {AVERAGES}, got {average!r}")
    gold, pred = Segmentations.of(gold), Segmentations.of(pred)
    if gold.surfaces != pred.surfaces:
        g, p = next((g, p) for g, p in zip(gold.surfaces, pred.surfaces) if g != p)
        raise ContractError(f"surface mismatch: gold {g!r} vs pred {p!r}")
    if variant not in F1_VARIANTS:
        raise DomainError(f"variant must be one of {F1_VARIANTS}, got {variant!r}")
    # a word's units are its bits after its first slot, up to its last; a
    # boundary is every one of them but the last
    edge = int(variant == "boundary")
    bits = (_found_in_both(gold.bits, pred.bits, variant), pred.bits, gold.bits)
    if average == "micro":
        tp, found, wanted = (b.bit_count() - 1 - edge * len(gold) for b in bits)
        return _prf(tp, found - tp, wanted - tp)
    tp, found, wanted = (_per_word(b, gold.lengths) - edge for b in bits)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(found > 0, tp / found, np.where(wanted == 0, 1.0, 0.0))
        recall = np.where(wanted > 0, tp / wanted, np.where(found == 0, 1.0, 0.0))
    n = len(gold)
    return ScoreTriple.from_pr(sum(precision.tolist()) / n, sum(recall.tolist()) / n)


def _found_in_both(gold: int, pred: int, variant: str) -> int:
    """The cut bits at which a unit of ``variant`` that both sides have
    ends: a boundary at a cut of both, a morpheme at a cut of both whose
    previous cut (of either side) is one of both's too."""
    both = gold & pred
    if variant == "boundary":
        return both
    either = gold | pred
    gaps = either ^ ((1 << either.bit_length()) - 1)
    # a bit put just after each cut that only one side has carries over
    # the gaps to the next cut: the morpheme ending there is one side's only
    lacked = (gaps + ((either ^ both) << 1)) & either
    return both & ~lacked


def _per_word(bits: int, lengths: Sequence[int]) -> np.ndarray:
    """The set bits of each word of ``lengths`` graphemes, after its first
    slot up to its last."""
    seen = np.cumsum(unpack_slots(bits, sum(lengths) + 1), dtype=np.int64)
    ends = np.cumsum(lengths)
    return seen[ends] - seen[ends - np.asarray(lengths)]


def mean_triple(triples: Sequence[ScoreTriple]) -> ScoreTriple:
    """Mean precision and mean recall, with their harmonic mean as F1."""
    p = sum(t.precision for t in triples) / len(triples)
    r = sum(t.recall for t in triples) / len(triples)
    return ScoreTriple.from_pr(p, r)


@dataclass(frozen=True)
class ModelRanking:
    """Models best to worst, with adjacent near-ties merged into groups.

    ``groups`` partitions ``models`` in order; two rankings count as equal
    when their group sequences (as sets of names) coincide.
    """

    models: tuple[str, ...]
    groups: tuple[tuple[str, ...], ...]
    collapse_epsilon: float

    def __post_init__(self) -> None:
        flat = tuple(m for grp in self.groups for m in grp)
        if flat != self.models:
            raise ValidationError("groups must partition models in order")
        if len(set(self.models)) != len(self.models):
            raise ValidationError("duplicate model names in ranking")
        if self.collapse_epsilon < 0:
            raise ValidationError("collapse_epsilon must be >= 0")

    def group_signature(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(grp) for grp in self.groups)

    def same_groups(self, other: "ModelRanking") -> bool:
        return self.group_signature() == other.group_signature()

    def to_dict(self) -> dict:
        return {
            "groups": [list(grp) for grp in self.groups],
            "collapse_epsilon": self.collapse_epsilon,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelRanking":
        groups = tuple(tuple(grp) for grp in data["groups"])
        return cls(
            models=tuple(m for grp in groups for m in grp),
            groups=groups,
            collapse_epsilon=float(data["collapse_epsilon"]),
        )


def rank_models(
    scores: Mapping[str, float],
    collapse_epsilon: float = DEFAULT_COLLAPSE_EPSILON,
) -> ModelRanking:
    """Order models by descending score, chaining near-ties into groups.

    A model joins the current tie group when its score is within
    ``collapse_epsilon`` (strictly) of the previous model's; names break
    exact score ties deterministically.
    """
    if len(scores) < 2:
        raise DomainError("rank_models needs at least two models")
    if collapse_epsilon < 0:
        raise ValidationError("collapse_epsilon must be >= 0")
    order = sorted(scores, key=lambda m: (-scores[m], m))
    groups: list[list[str]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if abs(scores[prev] - scores[cur]) < collapse_epsilon:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    return ModelRanking(
        models=tuple(order),
        groups=tuple(tuple(g) for g in groups),
        collapse_epsilon=collapse_epsilon,
    )


def morpheme_overlap(
    train: Iterable[SegmentedWord], eval_slice: Iterable[SegmentedWord]
) -> float:
    """Share of eval morpheme types that also occur in the train slice."""
    eval_types = {m for w in eval_slice for m in w.morphemes}
    if not eval_types:
        raise DomainError("morpheme_overlap needs a non-empty eval slice")
    train_types = {m for w in train for m in w.morphemes}
    return len(eval_types & train_types) / len(eval_types)


@dataclass(frozen=True)
class CellResult(Record):
    """Scores of every model on one grid cell's eval and new-test sets."""

    cell_id: str
    language_tag: str
    fraction: Fraction
    new_test_strategy: str
    residual_strategy: str
    seed_group: str
    boundary_eval: dict[str, ScoreTriple]
    boundary_new: dict[str, ScoreTriple]
    morpheme_eval: dict[str, ScoreTriple]
    morpheme_new: dict[str, ScoreTriple]
    ranking_eval: ModelRanking
    ranking_new: ModelRanking
    overlap: float
    train_size: int
    eval_size: int
    new_test_size: int

    def __post_init__(self) -> None:
        models = set(self.boundary_eval)
        for side in (self.boundary_new, self.morpheme_eval, self.morpheme_new):
            if set(side) != models:
                raise ValidationError("model sets differ across score tables")
        for ranking in (self.ranking_eval, self.ranking_new):
            if set(ranking.models) != models:
                raise ValidationError("ranking does not cover the model set")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValidationError("overlap must lie in [0, 1]")

    def models(self) -> tuple[str, ...]:
        return tuple(sorted(self.boundary_eval))

    def scores(self, variant: str, side: str) -> dict[str, ScoreTriple]:
        if variant not in F1_VARIANTS:
            raise DomainError(f"variant must be one of {F1_VARIANTS}")
        if side not in ("eval", "new"):
            raise DomainError("side must be 'eval' or 'new'")
        return getattr(self, f"{variant}_{side}")


def ranking_consistency(results: Sequence[CellResult]) -> float:
    """Fraction of cells whose eval and new-test rankings agree as groups."""
    if not results:
        raise DomainError("ranking_consistency needs at least one cell")
    same = sum(r.ranking_eval.same_groups(r.ranking_new) for r in results)
    return same / len(results)


@dataclass(frozen=True)
class GapStats:
    """Signed and absolute mean eval-minus-new F1 difference."""

    signed: float
    absolute: float


def generalization_gap(
    results: Sequence[CellResult], variant: str = "boundary"
) -> dict[str, GapStats]:
    """Per-model mean (eval F1 - new F1), signed and absolute."""
    if not results:
        raise DomainError("generalization_gap needs at least one cell")
    models = results[0].models()
    for r in results:
        if r.models() != models:
            raise ContractError("cells disagree on the model set")
    out = {}
    for m in models:
        diffs = [
            r.scores(variant, "eval")[m].f1 - r.scores(variant, "new")[m].f1
            for r in results
        ]
        out[m] = GapStats(
            signed=sum(diffs) / len(diffs),
            absolute=sum(abs(d) for d in diffs) / len(diffs),
        )
    return out


def population_sigma(values: Sequence[float]) -> float:
    """Population standard deviation of ``values``; 0.0 for one value."""
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def aggregate_rows(
    results: Sequence[CellResult], variant: str = "boundary"
) -> list[dict]:
    """Pooled per (model, residual strategy) summary rows.

    Pools every fraction and generation mode together: mean eval and new
    F1, mean absolute gap, ranking consistency, and the population sigma of
    new-test F1 across the strategy's cells.
    """
    if not results:
        raise DomainError("aggregate_rows needs at least one cell")
    by_strategy: dict[str, list[CellResult]] = {}
    for r in results:
        by_strategy.setdefault(r.residual_strategy, []).append(r)
    rows = []
    for strategy in sorted(by_strategy):
        cells = sorted(by_strategy[strategy], key=lambda c: c.cell_id)
        consistency = ranking_consistency(cells)
        gaps = generalization_gap(cells, variant)
        for m in cells[0].models():
            evals = [c.scores(variant, "eval")[m].f1 for c in cells]
            news = [c.scores(variant, "new")[m].f1 for c in cells]
            rows.append(
                {
                    "model": m,
                    "residual_strategy": strategy,
                    "mean_eval_f1": sum(evals) / len(evals),
                    "mean_new_f1": sum(news) / len(news),
                    "mean_abs_gap": gaps[m].absolute,
                    "consistency": consistency,
                    "sigma": population_sigma(news),
                }
            )
    return rows
