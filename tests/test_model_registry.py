"""Model identification, training dispatch, and serialization."""

import shlex
import sys

import numpy as np
import pytest

from morphsplit.corpus import Corpus, SegmentedWord, Segmentations, Segmenter
from morphsplit.errors import ConfigError, ContractError, DomainError
from morphsplit.models import (
    BUILTIN_SEGMENTERS,
    BoundaryLogisticModel,
    CrfModel,
    ExternalModel,
    FeatureTable,
    FeatureTemplate,
    LongestMatchModel,
    SegmenterId,
    TrainConfig,
    UnigramModel,
    load_model,
    save_model,
    segment_corpus,
    train_boundary_logistic,
    train_segmenter,
)


def toy_corpus():
    return Corpus(
        (
            SegmentedWord("walked", ("walk", "ed")),
            SegmentedWord("talked", ("talk", "ed")),
            SegmentedWord("walks", ("walk", "s")),
            SegmentedWord("talks", ("talk", "s")),
        ),
        language_tag="toy",
    )


class TestSegmenterId:
    def test_parse_builtin(self):
        sid = SegmenterId.parse("crf")
        assert sid.name == "crf"
        assert sid.command is None
        assert sid.key() == "crf"

    def test_parse_external(self):
        sid = SegmenterId.parse("external:python3 seg.py --fast")
        assert sid.name == "external"
        assert sid.command == "python3 seg.py --fast"
        assert sid.key() == "external:python3 seg.py --fast"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            SegmenterId.parse("transformer")

    def test_external_needs_command(self):
        with pytest.raises(ConfigError):
            SegmenterId("external")
        with pytest.raises(ConfigError):
            SegmenterId.parse("external:")

    def test_builtin_takes_no_command(self):
        with pytest.raises(ConfigError):
            SegmenterId("crf", command="python3 x.py")


class TestDispatch:
    @pytest.mark.parametrize("name", BUILTIN_SEGMENTERS)
    def test_builtin_training_and_round_trip(self, name, tmp_path):
        corpus = toy_corpus()
        template = FeatureTemplate(max_ngram=2, window=1)
        model = train_segmenter(name, corpus, template=template)
        got = model.segment("walked")
        assert "".join(got.morphemes) == "walked"
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.segment("walked") == got

    def test_external_requires_workdir(self):
        sid = SegmenterId.parse("external:true")
        with pytest.raises(ConfigError):
            train_segmenter(sid, toy_corpus())

    def test_segment_corpus_matches_per_word_calls(self):
        corpus = toy_corpus()
        model = train_segmenter("unigram_viterbi", corpus)
        surfaces = [w.surface for w in corpus]
        batch = segment_corpus(model, surfaces)
        assert batch == [model.segment(s) for s in surfaces]

    def test_load_model_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(ContractError):
            load_model(path)


MODEL_CLASSES = (BoundaryLogisticModel, CrfModel, ExternalModel, LongestMatchModel, UnigramModel)
KINDS = tuple(cls.KIND for cls in MODEL_CLASSES)
TEMPLATE = FeatureTemplate(max_ngram=2, window=1)
# the toy corpus's words, then words it lacks
SURFACES = ["walked", "talked", "walks", "talks", "talking", "stalk", "s"]

# an external segmenter that splits off each word's last grapheme
SPLIT_LAST = """\
import sys
with open(sys.argv[2]) as f, open(sys.argv[3], "w") as g:
    for line in f:
        toks = line.split()
        g.write(" ".join(toks[:-1] + ["!"] + toks[-1:] if len(toks) > 1 else toks) + "\\n")
"""


def trained(kind, tmp_path):
    """A model of ``kind`` on the toy corpus, builtins through a shared table."""
    corpus = toy_corpus()
    if kind == "external":
        script = tmp_path / "split_last.py"
        script.write_text(SPLIT_LAST)
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        return train_segmenter(SegmenterId("external", command), corpus, workdir=tmp_path)
    table = FeatureTable(corpus, TEMPLATE)
    return train_segmenter(kind, corpus, template=TEMPLATE, table=table)


class TestSegmenterContract:
    """Every model, the external adapter included, segments through
    :class:`Segmenter` to :class:`Segmentations`."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_per_word_segment(self, kind, tmp_path):
        model = trained(kind, tmp_path)
        assert isinstance(model, Segmenter)
        batch = model.segment_batch(SURFACES)
        assert isinstance(batch, Segmentations)
        assert batch == [model.segment(s) for s in SURFACES]
        assert segment_corpus(model, iter(SURFACES)) == batch

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_list_gives_empty_segmentations(self, kind, tmp_path):
        got = trained(kind, tmp_path).segment_batch([])
        assert isinstance(got, Segmentations) and len(got) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_surface_refused(self, kind, tmp_path):
        model = trained(kind, tmp_path)
        with pytest.raises(DomainError):
            model.segment_batch(["ab", ""])
        with pytest.raises(DomainError):
            model.segment("")

    @pytest.mark.parametrize("kind", KINDS)
    def test_save_load_round_trip(self, kind, tmp_path):
        model = trained(kind, tmp_path)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert type(clone) is type(model)
        assert clone.to_dict() == model.to_dict() and clone.to_dict()["kind"] == kind
        assert clone.segment_batch(SURFACES) == model.segment_batch(SURFACES)

    def test_kinds_are_unique_and_name_the_builtins(self):
        assert len(set(KINDS)) == len(KINDS)
        assert BUILTIN_SEGMENTERS == tuple(sorted(k for k in KINDS if k != "external"))

    def test_boundary_logistic_ignores_the_optimizer(self):
        corpus = toy_corpus()
        gd = train_boundary_logistic(corpus, template=TEMPLATE)
        lb = train_boundary_logistic(
            corpus, template=TEMPLATE, config=TrainConfig(optimizer="lbfgs")
        )
        np.testing.assert_array_equal(gd.weights, lb.weights)
