"""Three lightweight segmentation baselines.

All three expose ``segment(surface) -> SegmentedWord`` and always honor the
concatenation invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from ..corpus import Corpus, SegmentedWord, graphemes
from ..errors import DomainError
from .features import (
    FeatureTable,
    FeatureTemplate,
    LinearFeatureModel,
    design_matrix,
    extract_features,
)
from .optim import TrainConfig, minimize


@dataclass
class UnigramModel:
    """Max-product segmenter over smoothed morpheme unigram probabilities.

    Any substring outside the vocabulary scores ``log_oov``. Segmentation
    maximizes the sum of log-probabilities over all 2^(L-1) segmentations by
    dynamic programming; exact score ties prefer fewer morphemes, and
    remaining ties keep the longest final morpheme.
    """

    log_probs: dict[str, float]
    log_oov: float
    smoothing: float

    def segment(self, surface: str) -> SegmentedWord:
        g = graphemes(surface)
        n = len(g)
        if n == 0:
            raise DomainError("surface must be non-empty")
        # best[j] = (score, morpheme count, split point) for prefix of length j
        best: list[tuple[float, int, int]] = [(0.0, 0, -1)] + [(-math.inf, 0, -1)] * n
        for j in range(1, n + 1):
            for i in range(j):
                prev = best[i]
                piece = "".join(g[i:j])
                score = prev[0] + self.log_probs.get(piece, self.log_oov)
                count = prev[1] + 1
                cur = best[j]
                if score > cur[0] or (score == cur[0] and count < cur[1]):
                    best[j] = (score, count, i)
        cuts = [n]
        while cuts[-1] > 0:
            cuts.append(best[cuts[-1]][2])
        return SegmentedWord.from_cuts(surface, g, cuts[::-1])

    def to_dict(self) -> dict:
        return {
            "kind": "unigram_viterbi",
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


def train_unigram_viterbi(corpus: Corpus, smoothing: float = 0.1) -> UnigramModel:
    """Estimate add-``smoothing`` unigram probabilities with an OOV class.

    p(m) = (count(m) + smoothing) / (total + smoothing * (V + 1)); the extra
    +1 reserves one smoothed class for all out-of-vocabulary strings.
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

    def _design(self, surfaces) -> sparse.csr_matrix:
        """The design matrix of every gap of every surface, in order."""
        ids, ptr, _ = self.feature_ids(surfaces)
        return design_matrix(ids, ptr, len(self.weights))

    def segment_batch(self, surfaces) -> list[SegmentedWord]:
        """Segment every surface from one sparse product over all gaps."""
        surfaces = list(surfaces)
        words = [graphemes(s) for s in surfaces]
        if not all(words):
            raise DomainError("surface must be non-empty")
        # sigma(z) > 0.5 iff z > 0; z == 0 stays unsplit
        split = (self._design(surfaces) @ self.weights > 0.0).tolist()
        out = []
        k = 0
        for surface, g in zip(surfaces, words):
            n = len(g)
            cuts = [0] + [gap for gap in range(1, n) if split[k + gap - 1]] + [n]
            k += n - 1
            out.append(SegmentedWord.from_cuts(surface, g, cuts))
        return out


def _targets(words) -> np.ndarray:
    """0/1 boundary targets of every gap of ``words``, in order: gap g is a
    boundary iff g is one of the word's cuts."""
    return np.asarray([float(g in w.cuts) for w in words for g in range(1, w.cuts[-1])])


def logistic_objective(
    model: BoundaryLogisticModel, batch
) -> tuple[float, np.ndarray]:
    """Mean log-loss + (l2/2)*||w||^2 over the batch's gaps, with gradient."""
    words = list(batch)
    if not words:
        raise DomainError("logistic_objective needs a non-empty batch")
    X = model._design(w.surface for w in words)
    return _logistic_value(model.weights, X, _targets(words), model.l2_lambda)


def _logistic_value(weights, X, targets, l2):
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
    grad = l2 * weights + X.T @ coeff
    f = float(losses.mean()) + 0.5 * l2 * float(weights @ weights)
    return f, grad


def train_boundary_logistic(
    corpus: Corpus,
    template: FeatureTemplate | None = None,
    config: TrainConfig | None = None,
    table: FeatureTable | None = None,
) -> BoundaryLogisticModel:
    """Fit the per-gap boundary classifier by gradient descent.

    The bias enters as an ordinary always-on BIAS feature and is regularized
    with everything else. A corpus with no gaps (all single-grapheme words)
    yields the zero model, which never splits. The feature index follows
    first occurrence over the gaps in corpus order, each gap's features by
    name. Words are featurized through ``table`` when it holds them all.
    """
    config = config if config is not None else TrainConfig(optimizer="gradient_descent")
    model, words, (ids, ptr, _) = BoundaryLogisticModel.untrained(
        corpus, template, config.l2_lambda, table
    )
    X = design_matrix(ids, ptr, len(model.weights))
    if not X.shape[0]:
        return model
    targets = _targets(words)
    result = minimize(
        lambda w: _logistic_value(w, X, targets, config.l2_lambda),
        model.weights,
        config,
        context="boundary logistic training",
    )
    return replace(model, weights=result.x)


@dataclass
class LongestMatchModel:
    """Greedy left-to-right longest-match against a morpheme lexicon."""

    lexicon: frozenset[str]

    def __post_init__(self) -> None:
        self.lexicon = frozenset(self.lexicon)
        self._max_len = max((len(graphemes(m)) for m in self.lexicon), default=0)

    def segment(self, surface: str) -> SegmentedWord:
        g = graphemes(surface)
        n = len(g)
        if n == 0:
            raise DomainError("surface must be non-empty")
        cuts = [0]
        while (i := cuts[-1]) < n:
            # single grapheme is the fallback whether or not it is in the lexicon
            taken = 1
            for length in range(min(self._max_len, n - i), 1, -1):
                if "".join(g[i:i + length]) in self.lexicon:
                    taken = length
                    break
            cuts.append(i + taken)
        return SegmentedWord.from_cuts(surface, g, cuts)

    def to_dict(self) -> dict:
        return {"kind": "longest_match", "lexicon": sorted(self.lexicon)}

    @classmethod
    def from_dict(cls, data: dict) -> "LongestMatchModel":
        return cls(lexicon=frozenset(data["lexicon"]))


def train_longest_match(corpus: Corpus) -> LongestMatchModel:
    words = list(corpus)
    if not words:
        raise DomainError("train_longest_match needs a non-empty corpus")
    return LongestMatchModel(
        lexicon=frozenset(m for w in words for m in w.morphemes)
    )
