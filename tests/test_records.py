"""The field-derived JSON codec shared by every persisted record."""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest

from morphsplit.errors import ValidationError
from morphsplit.evaluation import ScoreTriple
from morphsplit.records import Ratio, Record


@dataclass(frozen=True)
class Sample(Record):
    name: str
    share: Fraction
    ratio: Ratio
    sizes: tuple[int, ...]
    scores: dict[str, ScoreTriple]
    weight: float = 1.0


SAMPLE = Sample(
    name="a",
    share=Fraction(1, 10),
    ratio=Fraction(9, 1),
    sizes=(3, 4),
    scores={"crf": ScoreTriple.from_pr(0.5, 0.5)},
)


def test_one_format_per_field_type():
    assert SAMPLE.to_dict() == {
        "name": "a",
        "share": "1/10",
        "ratio": "9:1",
        "sizes": [3, 4],
        "scores": {"crf": [0.5, 0.5, 0.5]},
        "weight": 1.0,
    }
    assert Sample.from_dict(json.loads(json.dumps(SAMPLE.to_dict()))) == SAMPLE


def test_missing_key_takes_the_default_and_unknown_keys_are_ignored():
    data = {**SAMPLE.to_dict(), "extra": 1}
    del data["weight"]
    assert Sample.from_dict(data) == SAMPLE


def test_missing_required_key_names_record_and_key():
    data = SAMPLE.to_dict()
    del data["ratio"]
    with pytest.raises(ValidationError, match="Sample lacks the key 'ratio'"):
        Sample.from_dict(data)


def test_scalars_are_coerced_to_their_declared_type():
    data = {**SAMPLE.to_dict(), "sizes": ["3", 4.0], "weight": 1}
    decoded = Sample.from_dict(data)
    assert decoded == SAMPLE
    assert type(decoded.weight) is float
    assert all(type(size) is int for size in decoded.sizes)


def test_non_object_is_rejected():
    with pytest.raises(ValidationError, match="must be a JSON object"):
        Sample.from_dict([1, 2])
