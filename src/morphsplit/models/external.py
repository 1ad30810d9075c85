"""Adapter for external segmenter processes.

Wire format, bit exact: the train file has one word per line as
``c1 c2 ... cn<TAB>c1 c2 ... ! ...`` where the right side repeats the
graphemes with `` ! `` marking each morpheme boundary; the input file has
one space-separated grapheme sequence per line; the output file must
contain one ``!``-annotated sequence per line, in input order.

The adapter invokes ``command`` (shell-split) with three positional
arguments: train file, input file, output file. A seed, when given, is
passed in the MORPHSPLIT_SEED environment variable. Any protocol breach
(nonzero exit, malformed or misaligned output, a segmentation that does not
concatenate to its input or splits a grapheme cluster) raises
:class:`AdapterError` carrying captured diagnostics.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..corpus import Corpus, SegmentedWord, Segmentations, Segmenter, graphemes
from ..errors import AdapterError, DomainError, ValidationError

_BOUNDARY = "!"


def _checked_graphemes(surface: str) -> tuple[str, ...]:
    g = graphemes(surface)
    for cluster in g:
        if cluster == _BOUNDARY or any(ch.isspace() for ch in cluster):
            raise AdapterError(
                f"surface {surface!r} cannot be wire-encoded: grapheme "
                f"{cluster!r} collides with the token or boundary separator"
            )
    return g


def encode_input_line(surface: str) -> str:
    return " ".join(_checked_graphemes(surface))


def encode_train_line(word: SegmentedWord) -> str:
    g = _checked_graphemes(word.surface)
    pieces = [" ".join(g[a:b]) for a, b in zip(word.cuts, word.cuts[1:])]
    return f"{' '.join(g)}\t{f' {_BOUNDARY} '.join(pieces)}"


def write_train_file(words: Iterable[SegmentedWord], path: str | Path) -> None:
    Path(path).write_text(
        "".join(encode_train_line(w) + "\n" for w in words), encoding="utf-8"
    )


def parse_output_line(line: str, surface: str) -> SegmentedWord:
    """Parse one ``!``-annotated output line against its input surface."""
    tokens = line.rstrip("\n").split(" ")
    if "" in tokens:
        raise AdapterError(f"blank token in output line {line!r}")
    morphemes = [""]
    for tok in tokens:
        if tok == _BOUNDARY:
            morphemes.append("")
        else:
            morphemes[-1] += tok
    try:
        return SegmentedWord(surface, tuple(morphemes))
    except ValidationError as exc:
        raise AdapterError(f"output line {line!r} for input {surface!r}: {exc}") from None


def external_segment(
    command: str,
    train_file: str | Path,
    input_words: Sequence[str],
    seed: int | None = None,
    timeout: float | None = 600.0,
) -> list[SegmentedWord]:
    """Run an external segmenter over ``input_words``.

    ``command`` is shell-split and invoked with the train, input, and
    output paths appended as arguments.
    """
    if not command or not command.strip():
        raise DomainError("external command must be non-empty")
    train_file = Path(train_file)
    if not train_file.exists():
        raise AdapterError(f"train file {train_file} does not exist")
    if not input_words:
        return []
    with tempfile.TemporaryDirectory(prefix="morphsplit-ext-") as tmp:
        input_path = Path(tmp) / "input.txt"
        output_path = Path(tmp) / "output.txt"
        input_path.write_text(
            "".join(encode_input_line(s) + "\n" for s in input_words),
            encoding="utf-8",
        )
        env = dict(os.environ)
        if seed is not None:
            env["MORPHSPLIT_SEED"] = str(seed)
        argv = shlex.split(command) + [str(train_file), str(input_path), str(output_path)]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=env, timeout=timeout
            )
        except FileNotFoundError as exc:
            raise AdapterError(f"cannot execute {argv[0]!r}: {exc}") from None
        except subprocess.TimeoutExpired:
            raise AdapterError(
                f"external command timed out after {timeout}s: {command!r}"
            ) from None
        if proc.returncode != 0:
            raise AdapterError(
                f"external command exited {proc.returncode}: {command!r}\n"
                f"stdout: {proc.stdout[-2000:]!r}\nstderr: {proc.stderr[-2000:]!r}"
            )
        if not output_path.exists():
            raise AdapterError(
                f"external command wrote no output file: {command!r}\n"
                f"stderr: {proc.stderr[-2000:]!r}"
            )
        lines = output_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(input_words):
        raise AdapterError(
            f"expected {len(input_words)} output lines, got {len(lines)}"
        )
    return [parse_output_line(line, s) for line, s in zip(lines, input_words)]


@dataclass
class ExternalModel(Segmenter):
    """Handle to an external segmenter: a command plus its train file."""

    KIND = "external"

    command: str
    train_path: str
    seed: int | None = None

    def _segment(self, surfaces: list[str]) -> Segmentations:
        return Segmentations.of(
            external_segment(self.command, self.train_path, surfaces, seed=self.seed)
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "command": self.command,
            "train_path": str(self.train_path),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExternalModel":
        return cls(
            command=data["command"],
            train_path=data["train_path"],
            seed=data.get("seed"),
        )


def train_external(
    corpus: Corpus, command: str, workdir: str | Path, seed: int | None = None
) -> ExternalModel:
    """Write the wire-format train file and wrap the command as a model."""
    if not command or not command.strip():
        raise DomainError("external command must be non-empty")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    train_path = workdir / "external_train.txt"
    write_train_file(corpus, train_path)
    return ExternalModel(command=command, train_path=str(train_path), seed=seed)
