"""Command line interface.

Subcommands cover single-step utilities (``synth``, ``split``, ``train``,
``segment``, ``evaluate``, ``regress``) and full experiment orchestration
(``experiment``, ``resume``, ``report``).

``experiment`` reads an optional flat ``key = value`` config file whose keys
are the :class:`~morphsplit.runner.RunConfig` field names; ``#`` starts a
comment. Each field is also a flag: its name with dashes, except for the
six spellings in ``_FLAG_OPTIONS``.
Precedence per setting: command line flag, then the ``MORPHSPLIT_OUTPUT_DIR``
environment variable (output directory only), then the config file, then the
built-in default. List-valued keys are comma separated.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .corpus import (
    SyntheticSpec,
    generate_synthetic_corpus,
    parse_corpus,
    write_corpus,
)
from .errors import ConfigError, MorphsplitError, ParseError
from .evaluation import F1_VARIANTS, AVERAGES, corpus_f1
from .models import (
    OPTIMIZERS,
    UNIGRAM_SMOOTHING,
    FeatureTemplate,
    SegmenterId,
    TrainConfig,
    load_model,
    save_model,
    segment_corpus,
    train_segmenter,
)
from .records import DECODE_ERRORS
from .runner import (
    OUTPUT_DIR_ENV,
    REPORT_KINDS,
    RunConfig,
    report,
    resume,
    run_experiment,
)
from .splitter import (
    STRATEGIES,
    adversarial_split,
    as_fraction,
    heuristic_split,
    parse_ratio,
    random_split,
    save_manifest,
)
from .stats import RegressionRecord, fit_regression


# What the RunConfig field types do not give: the flag where its spelling
# differs from the field name, choices, and help text. Every field is both
# an ``experiment`` flag and a config-file key, parsed by its field type.
_FLAG_OPTIONS: dict[str, dict] = {
    "corpus_paths": {"flag": "--corpus", "action": "append", "metavar": "PATH",
                     "help": "corpus file (repeatable)"},
    "output_dir": {"help": "run output directory"},
    "fractions": {"help": "comma-separated new-test fractions"},
    "residual_ratio": {"help": "train:eval ratio, e.g. 9:1"},
    "new_test_generations": {"flag": "--generations",
                             "help": "comma-separated new-test modes"},
    "residual_strategies": {"flag": "--strategies",
                            "help": "comma-separated residual strategies"},
    "models": {"help": "comma-separated model specs"},
    "f1_variant": {"choices": F1_VARIANTS},
    "f1_average": {"flag": "--average", "choices": AVERAGES},
    "adversarial_budget": {"flag": "--budget",
                           "help": "adversarial swap-evaluation budget"},
    "optimizer": {"choices": OPTIMIZERS},
    "unigram_smoothing": {"flag": "--smoothing", "help": "unigram additive smoothing"},
}
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def parse_config_file(path: str | Path) -> dict:
    """Read a flat ``key = value`` config file into typed RunConfig kwargs."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    kwargs = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            kwargs[key] = RunConfig.parse_field(key, value)
        except MorphsplitError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return kwargs


def _experiment_config(args: argparse.Namespace) -> RunConfig:
    """Merge file, environment, and flags into a RunConfig."""
    kwargs: dict = {}
    if args.config:
        kwargs.update(parse_config_file(args.config))
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        kwargs["output_dir"] = env_out
    kwargs.update(
        {key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key) is not None}
    )
    if "corpus_paths" not in kwargs:
        raise ConfigError("no corpus given (use --corpus or corpus_paths in the config file)")
    if "output_dir" not in kwargs:
        raise ConfigError(
            "no output directory given (use --output-dir, the "
            f"{OUTPUT_DIR_ENV} environment variable, or output_dir in the config file)"
        )
    return RunConfig(**kwargs)


def _flag_type(parse):
    """argparse ``type`` that reads a flag with ``parse``; bad text is a
    usage error."""
    def checked(text: str):
        try:
            return parse(text)
        except (MorphsplitError, ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad value {text!r} ({type(exc).__name__}: {exc})"
            ) from exc
    return checked


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for key in _CONFIG_KEYS:
        options = dict(_FLAG_OPTIONS.get(key, {}))
        flag = options.pop("flag", "--" + key.replace("_", "-"))
        if "action" not in options:
            options["type"] = _flag_type(partial(RunConfig.parse_field, key))
        sub.add_argument(flag, dest=key, **options)


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        num_words=args.words,
        stems=args.stems,
        suffixes=args.suffixes,
        min_suffixes=args.min_suffixes,
        max_suffixes=args.max_suffixes,
        seed=args.seed,
        language_tag=args.language_tag,
    )
    corpus = generate_synthetic_corpus(spec)
    write_corpus(corpus, args.output)
    print(f"wrote {len(corpus)} words to {args.output}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    corpus = parse_corpus(args.corpus)
    ratio = parse_ratio(args.ratio)
    if args.strategy == "random":
        manifest = random_split(corpus, ratio, args.seed)
    elif args.strategy == "adversarial":
        manifest = adversarial_split(corpus, ratio, args.seed, budget=args.budget)
    else:
        manifest = heuristic_split(corpus, ratio, args.tolerance)
        if manifest is None:
            print("heuristic split: no morpheme-count threshold fits the "
                  "requested share within tolerance")
            return 0
    print(f"strategy={manifest.strategy} side_a={len(manifest.indices_a)} "
          f"side_b={len(manifest.indices_b)} "
          f"distance={manifest.achieved_distance:.6f}")
    if args.output:
        save_manifest(manifest, args.output)
        print(f"manifest written to {args.output}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = parse_corpus(args.corpus)
    sid = SegmenterId.parse(args.model)
    template = FeatureTemplate(max_ngram=args.max_ngram, window=args.window)
    config = TrainConfig(
        optimizer=args.optimizer,
        max_iterations=args.max_iterations,
        convergence_tol=args.convergence_tol,
        l2_lambda=args.l2_lambda,
        seed=args.seed,
    )
    model = train_segmenter(
        sid,
        corpus,
        template=template,
        config=config,
        unigram_smoothing=args.smoothing,
        workdir=args.workdir,
    )
    save_model(model, args.output)
    print(f"trained {sid.key()} on {len(corpus)} words -> {args.output}")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    surfaces = [
        line.strip()
        for line in Path(args.input).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    words = segment_corpus(model, surfaces)
    lines = [f"{w.surface}\t{' '.join(w.morphemes)}" for w in words]
    if args.output:
        Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"segmented {len(words)} words -> {args.output}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    gold = parse_corpus(args.gold)
    pred = parse_corpus(args.pred)
    variants = F1_VARIANTS if args.variant == "both" else (args.variant,)
    for variant in variants:
        triple = corpus_f1(list(gold), list(pred), variant, args.average)
        print(f"{variant} precision={triple.precision:.6f} "
              f"recall={triple.recall:.6f} f1={triple.f1:.6f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    ledger = run_experiment(config)
    return _summarize_ledger(ledger)


def _cmd_resume(args: argparse.Namespace) -> int:
    ledger = resume(args.ledger)
    return _summarize_ledger(ledger)


def _summarize_ledger(ledger) -> int:
    done = ledger.done_keys()
    failed = ledger.failed_keys()
    print(f"cells: {len(done)} done, {len(failed)} failed")
    for note in ledger.notes:
        print(f"note: {note}")
    for key in failed:
        print(f"failed: {key}")
    print(f"ledger: {ledger.path()}")
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    paths = report(args.ledger, args.kind)
    if not paths:
        print("nothing to report (see the ledger notes)")
        return 0
    for path in paths:
        print(path)
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    with open(args.records, newline="", encoding="utf-8") as fh:
        numbered = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    records = []
    for row in reader:
        try:
            records.append(RegressionRecord.from_dict(row))
        except DECODE_ERRORS as exc:
            lineno = numbered[reader.line_num - 1][0]
            raise ParseError(f"{args.records}:{lineno}: {exc}") from None
    result = fit_regression(records)
    print(f"n={result.n} dof={result.dof} r_squared={result.r_squared:.6g}")
    print(f"{'term':<42} {'beta':>12} {'se':>12} {'t':>10} {'p':>10} stars")
    for row in result.rows():
        print(f"{row['term']:<42} {row['beta']:>12.6g} {row['se']:>12.6g} "
              f"{row['t']:>10.4g} {row['p']:>10.4g} {row['stars']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphsplit",
        description="Segmentation-model generalization experiments over "
                    "dataset split strategies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("synth", help="generate a synthetic corpus file")
    sub.add_argument("--output", required=True)
    sub.add_argument("--words", type=int, required=True)
    sub.add_argument("--stems", type=int, default=SyntheticSpec.stems)
    sub.add_argument("--suffixes", type=int, default=SyntheticSpec.suffixes)
    sub.add_argument("--min-suffixes", type=int, default=SyntheticSpec.min_suffixes)
    sub.add_argument("--max-suffixes", type=int, default=SyntheticSpec.max_suffixes)
    sub.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    sub.add_argument("--language-tag", default=SyntheticSpec.language_tag)
    sub.set_defaults(func=_cmd_synth)

    sub = subs.add_parser("split", help="compute one two-way split")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--strategy", choices=STRATEGIES, required=True)
    sub.add_argument("--ratio", default="9:1", help="side_a:side_b ratio")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=None,
                     help="adversarial swap-evaluation budget (default unlimited)")
    sub.add_argument("--tolerance", type=_flag_type(as_fraction), default="1/50",
                     help="heuristic share tolerance")
    sub.add_argument("--output", help="write the split manifest JSON here")
    sub.set_defaults(func=_cmd_split)

    sub = subs.add_parser("train", help="train one model on a corpus")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--model", required=True,
                     help="boundary_logistic | crf | longest_match | "
                          "unigram_viterbi | external:CMD")
    sub.add_argument("--output", required=True, help="model JSON path")
    sub.add_argument("--max-ngram", type=int, default=FeatureTemplate.max_ngram)
    sub.add_argument("--window", type=int, default=FeatureTemplate.window)
    sub.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    sub.add_argument("--max-iterations", type=int, default=TrainConfig.max_iterations)
    sub.add_argument("--convergence-tol", type=float,
                     default=TrainConfig.convergence_tol)
    sub.add_argument("--l2-lambda", type=float, default=TrainConfig.l2_lambda)
    sub.add_argument("--seed", type=int, default=TrainConfig.seed)
    sub.add_argument("--smoothing", type=float, default=UNIGRAM_SMOOTHING)
    sub.add_argument("--workdir", help="working directory (external models)")
    sub.set_defaults(func=_cmd_train)

    sub = subs.add_parser("segment", help="segment words with a saved model")
    sub.add_argument("--model", required=True, help="model JSON path")
    sub.add_argument("--input", required=True, help="one surface per line")
    sub.add_argument("--output", help="corpus-format output (default stdout)")
    sub.set_defaults(func=_cmd_segment)

    sub = subs.add_parser("evaluate", help="score predictions against gold")
    sub.add_argument("--gold", required=True, help="gold corpus file")
    sub.add_argument("--pred", required=True, help="predicted corpus file")
    sub.add_argument("--variant", choices=F1_VARIANTS + ("both",),
                     default="both")
    sub.add_argument("--average", choices=AVERAGES, default="micro")
    sub.set_defaults(func=_cmd_evaluate)

    sub = subs.add_parser("experiment", help="run the full split-grid experiment")
    _add_experiment_flags(sub)
    sub.set_defaults(func=_cmd_experiment)

    sub = subs.add_parser("resume", help="recompute pending/failed cells of a run")
    sub.add_argument("--ledger", required=True,
                     help="ledger.json path or run directory")
    sub.set_defaults(func=_cmd_resume)

    sub = subs.add_parser("report", help="regenerate reports from a finished run")
    sub.add_argument("--ledger", required=True,
                     help="ledger.json path or run directory")
    sub.add_argument("--kind", choices=REPORT_KINDS, required=True)
    sub.set_defaults(func=_cmd_report)

    sub = subs.add_parser("regress", help="fit the F1 regression on a records CSV")
    sub.add_argument("--records", required=True,
                     help="records.csv emitted by an experiment run")
    sub.set_defaults(func=_cmd_regress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MorphsplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
