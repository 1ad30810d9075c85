"""The field-derived JSON codec shared by every persisted record."""

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphsplit.errors import ValidationError
from morphsplit.evaluation import ScoreTriple
from morphsplit.records import Ratio, Record, write_json


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


class Level(IntEnum):
    LOW = 1


leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.sampled_from([Level.LOW, True, 2**63, -(2**64) - 1])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | st.text(st.characters(codec=None, exclude_categories=("Cs",)))
    | st.sampled_from(["", "\x00\x1f\u2028", 'q"\\/', "é✓😀", "a,b: [c]{d}"])
)
json_trees = st.recursive(
    leaves,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(max_size=6), children)
    ),
    max_leaves=40,
)


def written(tmp_path, data) -> bytes:
    path = tmp_path / "out" / "data.json"
    write_json(path, data)
    assert not path.with_name("data.json.tmp").exists()
    return path.read_bytes()


def dumped(data) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=json_trees)
def test_writer_writes_the_bytes_of_json_dumps(tmp_path_factory, data):
    assert written(tmp_path_factory.mktemp("w"), data) == dumped(data)


@pytest.mark.parametrize("data", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [[{}]]], "d": ()},
    [math.nan, math.inf, -math.inf, 0.1, -0.0],
    {"flat": [1, 2.5, True, None, "x"], "nested": [{"k": (1, 2)}, [3, [4]]]},
    {"ü": "\x07ü\U0001f600", "big": [2**64, -(2**70)], "level": [Level.LOW, 1]},
    (1, (2, (3,))),
    "text",
    2**100,
    None,
])
def test_writer_matches_json_dumps_on_edge_cases(tmp_path, data):
    assert written(tmp_path, data) == dumped(data)


@pytest.mark.parametrize("data", [
    {"a": Fraction(1, 2)},
    [1, Fraction(1, 2)],
    {"a": [{"b": {1, 2}}]},
    {1: "int key"},
    {"a": {None: 1}},
])
def test_writer_rejects_what_it_cannot_write(tmp_path, data):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", data)
