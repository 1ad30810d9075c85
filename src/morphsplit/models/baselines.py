"""Three lightweight segmentation baselines.

All three are :class:`~morphsplit.corpus.Segmenter` models and always
honor the concatenation invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..corpus import (
    Corpus,
    Segmentations,
    Segmenter,
    Vocabulary,
    WordTable,
    cut_slots,
    graphemes,
)
from ..errors import DomainError, ValidationError
from .features import (
    FeatureTable,
    FeatureTemplate,
    LinearFeatureModel,
    design_matrix,
    extract_features,
)
from .optim import TrainConfig, minimize


UNIGRAM_SMOOTHING = 0.1


class _PieceModel(Segmenter):
    """A model that segments each word from the morphemes among its pieces
    (:meth:`Vocabulary.pieces`), one word at a time.

    Words are looked up in one vocabulary: the ``table``'s when the model
    was trained through one, else its own; a word in the table takes its
    pieces, found once per row. Subclasses give the value of each
    vocabulary id (``_values``), an unknown piece's for a morpheme the
    model lacks, and the cuts of a word from its pieces and those values
    (``_cuts``).
    """

    table: WordTable | None

    def _segment(self, surfaces: list[str]) -> Segmentations:
        """Segment every surface, one at a time."""
        table, cuts_of = self.table, self._cuts
        vocabulary, values = self._lookup
        row = table.row if table is not None else {}
        at, lengths, offset = [], [], 0
        for surface in surfaces:
            r = row.get(surface)
            pieces = vocabulary.pieces(graphemes(surface)) if r is None else table.pieces(r)
            at.extend([offset + cut for cut in cuts_of(pieces, values)])
            lengths.append(len(pieces))
            offset += len(pieces)
        slots = np.zeros(offset + 1, dtype=bool)
        slots[at] = True
        slots[offset] = True
        return Segmentations.from_slots(surfaces, lengths, slots)

    @cached_property
    def _lookup(self) -> tuple[Vocabulary, list]:
        """The model's vocabulary and the value of each of its ids."""
        vocabulary = (self.table.vocabulary if self.table is not None
                      else Vocabulary(sorted(self._morphemes())))
        return vocabulary, self._values(vocabulary)


def _table_for(table: WordTable | None, morphemes) -> WordTable | None:
    """``table`` when its vocabulary holds every one of ``morphemes``."""
    if table is None or not table.segmented:
        return None
    return table if set(morphemes).issubset(table.vocabulary.id) else None


@dataclass
class UnigramModel(_PieceModel):
    """Max-product segmenter over smoothed morpheme unigram probabilities.

    Any substring outside the vocabulary scores ``log_oov``, and no
    morpheme scores less. Segmentation maximizes the sum of
    log-probabilities over all 2^(L-1) segmentations by dynamic
    programming; exact score ties prefer fewer morphemes, and remaining
    ties keep the longest final morpheme.

    ``table`` is the word table the model was trained through; it is not
    serialized.
    """

    KIND = "unigram_viterbi"

    log_probs: dict[str, float]
    log_oov: float
    smoothing: float
    table: WordTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        low = sorted(m for m, v in self.log_probs.items() if not v >= self.log_oov)
        if low:
            raise ValidationError(
                f"log_probs of {low[:3]!r} lie below log_oov {self.log_oov}: "
                f"a morpheme may not be less likely than an unknown string"
            )

    def _morphemes(self):
        return self.log_probs.keys()

    def _values(self, vocabulary: Vocabulary) -> list[float]:
        get, oov = self.log_probs.get, self.log_oov
        return [get(m, oov) for m in vocabulary.morphemes]

    def _cuts(self, pieces, log_probs) -> list[int]:
        """The cuts of the best segmentation, by a DP over the pieces.

        ``score[j]``, ``count[j]`` and ``back[j]`` are the best score of
        the prefix of length j, its morpheme count and its last split. A
        candidate is better when it scores higher, then when it has fewer
        morphemes, then when it splits earlier (keeping the longest final
        morpheme). Each prefix extends by the morphemes that start where
        it ends. Every other piece scores ``log_oov``, so those candidates
        are one running best over all earlier split points. That best also
        counts the split points of morphemes as if they were unknown, which
        changes nothing: no morpheme scores less than ``log_oov``, so its
        own candidate is at least as good.
        """
        n, oov = len(pieces), self.log_oov
        score = [0.0] + [-math.inf] * n
        count, back = [0] * (n + 1), [-1] * (n + 1)
        far_s, far_c, far_i = -math.inf, 0, -1
        for i, starting in enumerate(pieces):
            base, c = score[i], count[i] + 1
            for j, piece in starting:
                s = base + log_probs[piece]
                if s > score[j] or (s == score[j] and c < count[j]):
                    score[j], count[j], back[j] = s, c, i
            s = base + oov
            if s > far_s or (s == far_s and c < far_c):
                far_s, far_c, far_i = s, c, i
            j = i + 1
            s = score[j]
            if far_s > s or (far_s == s and (far_c < count[j] or far_c == count[j] and far_i < back[j])):
                score[j], count[j], back[j] = far_s, far_c, far_i
        cuts = [n]
        while cuts[-1] > 0:
            cuts.append(back[cuts[-1]])
        return cuts

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "smoothing": float(self.smoothing),
            "log_oov": float(self.log_oov),
            "log_probs": {m: float(v) for m, v in sorted(self.log_probs.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnigramModel":
        return cls(
            log_probs={m: float(v) for m, v in data["log_probs"].items()},
            log_oov=float(data["log_oov"]),
            smoothing=float(data["smoothing"]),
        )


def train_unigram_viterbi(
    corpus: Corpus, smoothing: float = UNIGRAM_SMOOTHING, table: WordTable | None = None
) -> UnigramModel:
    """Estimate add-``smoothing`` unigram probabilities with an OOV class.

    p(m) = (count(m) + smoothing) / (total + smoothing * (V + 1)); the extra
    +1 reserves one smoothed class for all out-of-vocabulary strings. The
    model segments through ``table`` when its vocabulary holds every
    training morpheme.
    """
    if smoothing <= 0:
        raise DomainError("smoothing must be > 0")
    words = list(corpus)
    if not words:
        raise DomainError("train_unigram_viterbi needs a non-empty corpus")
    counts: dict[str, int] = {}
    total = 0
    for w in words:
        for m in w.morphemes:
            counts[m] = counts.get(m, 0) + 1
            total += 1
    denom = total + smoothing * (len(counts) + 1)
    log_probs = {m: math.log((c + smoothing) / denom) for m, c in counts.items()}
    return UnigramModel(
        log_probs=log_probs,
        log_oov=math.log(smoothing / denom),
        smoothing=smoothing,
        table=_table_for(table, counts),
    )


def gap_features(
    surface: str, gap: int, template: FeatureTemplate
) -> frozenset[str]:
    """Features for the gap between grapheme ``gap - 1`` and ``gap``.

    The left position's features are tagged ``L:``, the right position's
    ``R:``, plus a constant BIAS feature.
    """
    n = len(graphemes(surface))
    if not 1 <= gap <= n - 1:
        raise DomainError(f"gap {gap} out of range for {surface!r}")
    return frozenset(
        _gap_names(
            extract_features(surface, gap - 1, template),
            extract_features(surface, gap, template),
        )
    )


def _gap_names(left, right) -> list[str]:
    """A gap's features in sorted order, from its two positions' features."""
    # "BIAS" < "L:..." < "R:...", so tagging sorted halves keeps the order
    return ["BIAS", *(f"L:{f}" for f in sorted(left)), *(f"R:{f}" for f in sorted(right))]


class BoundaryLogisticModel(LinearFeatureModel):
    """Per-gap logistic regression; a boundary opens iff p > 0.5 strictly."""

    KIND = "boundary_logistic"
    GAPS = True

    def _segment(self, surfaces: list[str]) -> Segmentations:
        """Segment every surface from one sparse product over all gaps."""
        ids, ptr, lengths = self.feature_ids(surfaces)
        starts = np.ones(int(lengths.sum()) + 1, dtype=bool)
        # sigma(z) > 0.5 iff z > 0; z == 0 stays unsplit
        starts[_gaps(lengths)] = design_matrix(ids, ptr, len(self.weights)) @ self.weights > 0.0
        return Segmentations.from_slots(surfaces, lengths.tolist(), starts)


def _gaps(lengths: np.ndarray) -> np.ndarray:
    """Whether each position of words of ``lengths`` graphemes, laid end to
    end, opens a gap: every position but a word's first, and one past the
    last."""
    gaps = np.ones(int(lengths.sum()) + 1, dtype=bool)
    gaps[np.cumsum(lengths) - lengths] = False
    gaps[-1] = False
    return gaps


def _targets(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """0/1 boundary targets of every gap, from whether a gold morpheme
    starts at each position: gap g is a boundary iff one starts at g."""
    return starts[_gaps(lengths)[:-1]].astype(float)


def logistic_objective(
    model: BoundaryLogisticModel, batch
) -> tuple[float, np.ndarray]:
    """Mean log-loss + (l2/2)*||w||^2 over the batch's gaps, with gradient."""
    words = list(batch)
    if not words:
        raise DomainError("logistic_objective needs a non-empty batch")
    ids, ptr, lengths = model.feature_ids(w.surface for w in words)
    X = design_matrix(ids, ptr, len(model.weights))
    targets = _targets(cut_slots(words)[:-1], lengths)
    return _logistic_value(model.weights, X, X.T, targets, model.l2_lambda)


def _logistic_value(weights, X, XT, targets, l2):
    """Objective and gradient; ``XT`` is ``X.T``, built once per training."""
    m = X.shape[0]
    if m == 0:
        f = 0.5 * l2 * float(weights @ weights)
        return f, l2 * weights
    z = X @ weights
    # log(1 + exp(-s*z)) with s = +-1 for target 1/0
    sign = 2.0 * targets - 1.0
    losses = np.logaddexp(0.0, -sign * z)
    sigma = 1.0 / (1.0 + np.exp(-z))
    coeff = (sigma - targets) / m
    grad = l2 * weights + XT @ coeff
    f = float(losses.mean()) + 0.5 * l2 * float(weights @ weights)
    return f, grad


def train_boundary_logistic(
    corpus: Corpus,
    template: FeatureTemplate | None = None,
    config: TrainConfig | None = None,
    table: FeatureTable | None = None,
) -> BoundaryLogisticModel:
    """Fit the per-gap boundary classifier by gradient descent, whatever
    ``config.optimizer`` says.

    The bias enters as an ordinary always-on BIAS feature and is regularized
    with everything else. A corpus with no gaps (all single-grapheme words)
    yields the zero model, which never splits. The feature index follows
    first occurrence over the gaps in corpus order, each gap's features by
    name. Words are featurized through ``table`` when it holds them all.
    """
    config = replace(config or TrainConfig(), optimizer="gradient_descent")
    model, starts, (ids, ptr, lengths) = BoundaryLogisticModel.untrained(
        corpus, template, config.l2_lambda, table
    )
    X = design_matrix(ids, ptr, len(model.weights))
    if not X.shape[0]:
        return model
    targets = _targets(starts, lengths)
    XT = X.T
    result = minimize(
        lambda w: _logistic_value(w, X, XT, targets, config.l2_lambda),
        model.weights,
        config,
        context="boundary logistic training",
    )
    return replace(model, weights=result.x)


@dataclass
class LongestMatchModel(_PieceModel):
    """Greedy left-to-right longest-match against a morpheme lexicon.

    ``table`` is the word table the model was trained through; it is not
    serialized.
    """

    KIND = "longest_match"

    lexicon: frozenset[str]
    table: WordTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lexicon = frozenset(self.lexicon)
        self._max_len = max((len(graphemes(m)) for m in self.lexicon), default=0)

    def _morphemes(self):
        return self.lexicon

    def _values(self, vocabulary: Vocabulary) -> list[bool]:
        return [m in self.lexicon for m in vocabulary.morphemes]

    def _cuts(self, pieces, in_lexicon) -> list[int]:
        n, longest = len(pieces), self._max_len
        cuts = [0]
        while (i := cuts[-1]) < n:
            # single grapheme is the fallback whether or not it is in the lexicon
            j = i + 1
            for end, piece in reversed(pieces[i]):
                if i + 1 < end <= i + longest and in_lexicon[piece]:
                    j = end
                    break
            cuts.append(j)
        return cuts

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "lexicon": sorted(self.lexicon)}

    @classmethod
    def from_dict(cls, data: dict) -> "LongestMatchModel":
        return cls(lexicon=frozenset(data["lexicon"]))


def train_longest_match(corpus: Corpus, table: WordTable | None = None) -> LongestMatchModel:
    """The lexicon of ``corpus``'s morphemes; the model segments through
    ``table`` when its vocabulary holds them all."""
    words = list(corpus)
    if not words:
        raise DomainError("train_longest_match needs a non-empty corpus")
    lexicon = frozenset(m for w in words for m in w.morphemes)
    return LongestMatchModel(lexicon=lexicon, table=_table_for(table, lexicon))
