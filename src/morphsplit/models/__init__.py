"""Segmentation model suite: CRF, three baselines, and an external adapter.

Every model is a :class:`~morphsplit.corpus.Segmenter`: ``segment(surface)
-> SegmentedWord``, and ``segment_batch`` to
:class:`~morphsplit.corpus.Segmentations`. ``train_segmenter`` is the
uniform entry point keyed by :class:`SegmenterId`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..corpus import Corpus, Segmentations, Segmenter, WordTable
from ..errors import ConfigError, ContractError
from ..records import DECODE_ERRORS
from .baselines import (
    UNIGRAM_SMOOTHING,
    BoundaryLogisticModel,
    LongestMatchModel,
    UnigramModel,
    gap_features,
    logistic_objective,
    train_boundary_logistic,
    train_longest_match,
    train_unigram_viterbi,
)
from .crf import (
    CrfModel,
    crf_gradient,
    crf_log_partition,
    train_crf,
    viterbi_raw,
)
from .external import ExternalModel, external_segment, train_external
from .features import FeatureTable, FeatureTemplate, LinearFeatureModel, extract_features
from .optim import LBFGS_MEMORY, OPTIMIZERS, OptimResult, TrainConfig, minimize

_MODEL_CLASSES = {
    cls.KIND: cls
    for cls in (CrfModel, UnigramModel, BoundaryLogisticModel, LongestMatchModel, ExternalModel)
}
BUILTIN_SEGMENTERS = tuple(sorted(_MODEL_CLASSES.keys() - {ExternalModel.KIND}))


@dataclass(frozen=True)
class SegmenterId:
    """Identifies a model: a builtin name, or ``external`` plus a command."""

    name: str
    command: str | None = None

    def __post_init__(self) -> None:
        if self.name == "external":
            if not self.command or not self.command.strip():
                raise ConfigError("external segmenter requires a command")
        elif self.name in BUILTIN_SEGMENTERS:
            if self.command is not None:
                raise ConfigError(f"builtin segmenter {self.name!r} takes no command")
        else:
            raise ConfigError(
                f"unknown segmenter {self.name!r}; choose one of "
                f"{', '.join(BUILTIN_SEGMENTERS)} or external:<command>"
            )

    @classmethod
    def parse(cls, spec: str) -> "SegmenterId":
        """Parse ``"crf"`` or ``"external:<command>"`` forms."""
        if spec.startswith("external:"):
            return cls("external", spec[len("external:"):])
        return cls(spec)

    @property
    def seeded(self) -> bool:
        """Whether training reads ``TrainConfig.seed``; only ``external`` does."""
        return self.name == "external"

    @property
    def featurized(self) -> bool:
        """Whether training reads a :class:`FeatureTable`."""
        return issubclass(_MODEL_CLASSES[self.name], LinearFeatureModel)

    def key(self) -> str:
        """Stable identifier used in result tables and rankings."""
        if self.name == "external":
            return f"external:{self.command}"
        return self.name


def train_segmenter(
    segmenter: SegmenterId | str,
    corpus: Corpus,
    template: FeatureTemplate | None = None,
    config: TrainConfig | None = None,
    unigram_smoothing: float = UNIGRAM_SMOOTHING,
    workdir: str | Path | None = None,
    table: WordTable | None = None,
):
    """Train the identified model on ``corpus`` and return it.

    ``template`` and ``config`` apply to the feature-based models; the
    unigram model takes ``unigram_smoothing``; the external adapter needs
    ``workdir`` to hold its train file. A shared ``table`` of the corpus's
    words reaches every builtin model; the feature-based ones need a
    :class:`FeatureTable`. ``config.optimizer`` governs the CRF only: the
    boundary classifier is gradient-descent trained.
    """
    if isinstance(segmenter, str):
        segmenter = SegmenterId.parse(segmenter)
    if segmenter.name == "crf":
        return train_crf(corpus, template=template, config=config, table=table)
    if segmenter.name == "unigram_viterbi":
        return train_unigram_viterbi(corpus, smoothing=unigram_smoothing, table=table)
    if segmenter.name == "boundary_logistic":
        return train_boundary_logistic(corpus, template=template, config=config, table=table)
    if segmenter.name == "longest_match":
        return train_longest_match(corpus, table=table)
    if workdir is None:
        raise ConfigError("external segmenter requires a workdir for its train file")
    seed = config.seed if config is not None else None
    return train_external(corpus, segmenter.command, workdir, seed=seed)


def segment_corpus(model: Segmenter, surfaces) -> Segmentations:
    """Segment every surface in one batch."""
    return model.segment_batch(surfaces)


def save_model(model, path: str | Path) -> None:
    """Serialize a trained model to JSON with a ``kind`` discriminator."""
    data = model.to_dict()
    if data.get("kind") not in _MODEL_CLASSES:
        raise ContractError(f"model serialization lacks a known kind: {data.get('kind')!r}")
    Path(path).write_text(
        json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_model(path: str | Path):
    """Load a model saved by :func:`save_model`; a file that does not
    decode to one raises :class:`ContractError` naming it."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
        kind = data.get("kind")
        cls = _MODEL_CLASSES.get(kind)
        if cls is None:
            raise ContractError(f"unknown model kind {kind!r} in {path}")
        return cls.from_dict(data)
    except DECODE_ERRORS as exc:
        raise ContractError(f"damaged model file {path}: {exc}") from None


__all__ = [
    "BUILTIN_SEGMENTERS",
    "BoundaryLogisticModel",
    "CrfModel",
    "ExternalModel",
    "FeatureTable",
    "FeatureTemplate",
    "LBFGS_MEMORY",
    "LongestMatchModel",
    "OPTIMIZERS",
    "OptimResult",
    "Segmenter",
    "SegmenterId",
    "TrainConfig",
    "UNIGRAM_SMOOTHING",
    "UnigramModel",
    "crf_gradient",
    "crf_log_partition",
    "external_segment",
    "extract_features",
    "gap_features",
    "load_model",
    "logistic_objective",
    "minimize",
    "save_model",
    "segment_corpus",
    "train_boundary_logistic",
    "train_crf",
    "train_external",
    "train_longest_match",
    "train_segmenter",
    "train_unigram_viterbi",
    "viterbi_raw",
]
