"""External segmenter adapter: wire format and subprocess protocol."""

import re
import textwrap

import pytest

from morphsplit.corpus import Corpus, SegmentedWord
from morphsplit.errors import AdapterError
from morphsplit.models import (
    ExternalModel,
    external_segment,
    load_model,
    save_model,
    train_external,
)
from morphsplit.models.external import (
    encode_input_line,
    encode_train_line,
    parse_output_line,
    write_train_file,
)


def make_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("import sys\n" + textwrap.dedent(body))
    return f"python3 {path}"

IDENTITY = """
    train, inp, out = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(inp) as f, open(out, "w") as g:
        for line in f:
            g.write(line)
"""

LAST_TOKEN_SUFFIX = """
    train, inp, out = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(inp) as f, open(out, "w") as g:
        for line in f:
            toks = line.split()
            if len(toks) > 1:
                toks = toks[:-1] + ["!"] + toks[-1:]
            g.write(" ".join(toks) + "\\n")
"""


@pytest.fixture
def train_file(tmp_path):
    words = [
        SegmentedWord("avocados", ("avocado", "s")),
        SegmentedWord("walked", ("walk", "ed")),
        SegmentedWord("a", ("a",)),
    ]
    path = tmp_path / "train.txt"
    write_train_file(words, path)
    return path


class TestWireFormat:
    def test_train_line_bytes(self):
        word = SegmentedWord("avocados", ("avocado", "s"))
        assert encode_train_line(word) == "a v o c a d o s\ta v o c a d o ! s"

    def test_single_morpheme_train_line(self):
        word = SegmentedWord("ab", ("ab",))
        assert encode_train_line(word) == "a b\ta b"

    def test_input_line_spaces_graphemes(self):
        assert encode_input_line("walked") == "w a l k e d"
        assert encode_input_line("móza") == "m ó z a"

    def test_boundary_grapheme_rejected(self):
        with pytest.raises(AdapterError):
            encode_input_line("a!b")

    def test_whitespace_grapheme_rejected(self):
        with pytest.raises(AdapterError):
            encode_input_line("a b")

    def test_train_file_round_trip(self, train_file):
        lines = train_file.read_text().splitlines()
        assert lines == [
            "a v o c a d o s\ta v o c a d o ! s",
            "w a l k e d\tw a l k ! e d",
            "a\ta",
        ]
        for line in lines:
            inp, annotated = line.split("\t")
            surface = inp.replace(" ", "")
            word = parse_output_line(annotated, surface)
            assert "".join(word.morphemes) == surface

    def test_parse_output_line(self):
        word = parse_output_line("w a l k ! e d", "walked")
        assert word.morphemes == ("walk", "ed")

    def test_parse_rejects_concat_mismatch(self):
        with pytest.raises(AdapterError):
            parse_output_line("w a l k ! e d", "walker")

    def test_parse_rejects_an_edge_inside_a_grapheme(self):
        # the tool splits the combining acute from its base letter
        line = "e ! \u0301 x"
        with pytest.raises(AdapterError, match=re.escape(repr(line))):
            parse_output_line(line, "e\u0301x")

    @pytest.mark.parametrize(
        "line", ["! a b", "a b !", "a ! ! b", "a  b", ""]
    )
    def test_parse_rejects_malformed_lines(self, line):
        with pytest.raises(AdapterError):
            parse_output_line(line, "ab")


class TestExternalSegment:
    def test_identity_command(self, tmp_path, train_file):
        cmd = make_script(tmp_path, "ident.py", IDENTITY)
        out = external_segment(cmd, train_file, ["walked", "dog"])
        assert [w.morphemes for w in out] == [("walked",), ("dog",)]

    def test_suffix_command_and_order(self, tmp_path, train_file):
        cmd = make_script(tmp_path, "suf.py", LAST_TOKEN_SUFFIX)
        out = external_segment(cmd, train_file, ["walked", "a", "dogs"])
        assert [w.morphemes for w in out] == [
            ("walke", "d"), ("a",), ("dog", "s"),
        ]

    def test_empty_input_skips_invocation(self, train_file):
        assert external_segment("definitely-not-a-command", train_file, []) == []

    def test_missing_train_file(self, tmp_path):
        with pytest.raises(AdapterError):
            external_segment("true", tmp_path / "nope.txt", ["ab"])

    def test_nonzero_exit_reports_stderr(self, tmp_path, train_file):
        cmd = make_script(
            tmp_path, "fail.py",
            """
            sys.stderr.write("model exploded")
            sys.exit(3)
            """,
        )
        with pytest.raises(AdapterError, match="exited 3") as err:
            external_segment(cmd, train_file, ["walked"])
        assert "model exploded" in str(err.value)

    def test_missing_binary(self, train_file):
        with pytest.raises(AdapterError, match="cannot execute"):
            external_segment("/no/such/binary-xyz", train_file, ["ab"])

    def test_no_output_file(self, tmp_path, train_file):
        cmd = make_script(tmp_path, "noop.py", "\npass\n")
        with pytest.raises(AdapterError, match="no output file"):
            external_segment(cmd, train_file, ["walked"])

    def test_wrong_line_count(self, tmp_path, train_file):
        cmd = make_script(
            tmp_path, "short.py",
            """
            train, inp, out = sys.argv[1], sys.argv[2], sys.argv[3]
            lines = open(inp).read().splitlines()
            open(out, "w").write(lines[0] + "\\n")
            """,
        )
        with pytest.raises(AdapterError, match="output lines"):
            external_segment(cmd, train_file, ["walked", "dog"])

    def test_concat_mismatch_from_command(self, tmp_path, train_file):
        cmd = make_script(
            tmp_path, "wrong.py",
            """
            train, inp, out = sys.argv[1], sys.argv[2], sys.argv[3]
            n = len(open(inp).read().splitlines())
            open(out, "w").write("x y\\n" * n)
            """,
        )
        with pytest.raises(AdapterError, match="concatenate"):
            external_segment(cmd, train_file, ["walked"])

    def test_seed_reaches_subprocess(self, tmp_path, train_file):
        seed_sink = tmp_path / "seen_seed.txt"
        cmd = make_script(
            tmp_path, "seeded.py",
            f"""
            import os
            train, inp, out = sys.argv[1], sys.argv[2], sys.argv[3]
            open({str(seed_sink)!r}, "w").write(os.environ.get("MORPHSPLIT_SEED", ""))
            with open(inp) as f, open(out, "w") as g:
                for line in f:
                    g.write(line)
            """,
        )
        external_segment(cmd, train_file, ["ab"], seed=1234)
        assert seed_sink.read_text() == "1234"

    def test_timeout(self, tmp_path, train_file):
        cmd = make_script(
            tmp_path, "slow.py",
            """
            import time
            time.sleep(30)
            """,
        )
        with pytest.raises(AdapterError, match="timed out"):
            external_segment(cmd, train_file, ["ab"], timeout=0.5)


class TestExternalModel:
    def test_train_writes_wire_file_and_segments(self, tmp_path):
        corpus = Corpus(
            (
                SegmentedWord("walked", ("walk", "ed")),
                SegmentedWord("talks", ("talk", "s")),
            ),
            language_tag="toy",
        )
        cmd = make_script(tmp_path, "suf.py", LAST_TOKEN_SUFFIX)
        model = train_external(corpus, cmd, tmp_path / "work", seed=7)
        lines = (tmp_path / "work" / "external_train.txt").read_text().splitlines()
        assert lines == ["w a l k e d\tw a l k ! e d", "t a l k s\tt a l k ! s"]
        assert model.segment("dogs").morphemes == ("dog", "s")
        assert [w.morphemes for w in model.segment_batch(["ab", "cd"])] == [
            ("a", "b"), ("c", "d"),
        ]

    def test_save_load_round_trip(self, tmp_path, train_file):
        cmd = make_script(tmp_path, "ident.py", IDENTITY)
        model = ExternalModel(command=cmd, train_path=str(train_file), seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert isinstance(clone, ExternalModel)
        assert clone.command == model.command
        assert clone.train_path == model.train_path
        assert clone.seed == 5
        assert clone.segment("walked").morphemes == ("walked",)
