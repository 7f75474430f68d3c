"""Command-line front end wiring the pipeline stages together.

Subcommands mirror the pipeline: ``synth`` generates a seeded corpus,
``validate`` checks one, ``classify`` produces the assignment table,
``indicators`` computes the report tables, and ``report`` re-emits a table
directory after validation. This module parses arguments, reads and hashes
files and prints errors. Every input rule is checked by the module that
owns its data, so a library call gets the same error for the same input:
``build_report_tables``, for one, holds the rule that an assignment table
agrees with the taxonomy. The checks made here are only the usage checks
on flags and paths and the JSON form of the synth config file, which no
library call reads. Each command that writes files writes them all with one
:func:`~refclass.report.write_files_atomic` call, so a failure leaves no
temp file behind and its outputs hold all their prior bytes or all their
new ones. An output that resolves to one of the command's inputs is a usage
error before any file is read. Every error, an interrupt included, is a
single line ``error:<code>:<message>`` on stderr with exit code 1 (2 for
usage errors).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from . import __version__
from .classifier import (
    MODES,
    TIE_POLICIES,
    ClassifierConfig,
    classify,
    emit_assignments,
    read_assignments,
)
from .corpus import _utf8, _whole, emit_corpus, validate_corpus
from .corpus import read_corpus_file as read_corpus  # the name perfbench's tracer wraps
from .errors import ConfigError, RefclassError, UsageError
from .indicators import IndicatorConfig
from .report import (
    MANIFEST_FILE,
    TABLE_FILES,
    RunManifest,
    _knobs,
    build_report_tables,
    emit_report,
    read_table_dir,
    write_files_atomic,
    write_table_dir,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .taxonomy import emit_taxonomy, load_taxonomy


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit(2)
        raise UsageError(message)


def _year_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B year range, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="refclass", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--config", required=True, help="JSON file with SyntheticConfig fields")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-taxonomy", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="report corpus counts and cross-check the taxonomy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--taxonomy", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="run the iterative reference-based classification")
    p.add_argument("--corpus", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--max-iter", type=int, default=10)
    p.add_argument("--min-votes", type=int, default=1)
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default=TIE_POLICIES[0])
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("indicators", help="compute impact, prestige, and share tables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--kappa", type=float, default=1.04)
    p.add_argument("--if-years", type=_year_range, default=(2007, 2016), metavar="A:B")
    p.add_argument("--pub-years", type=_year_range, default=(2005, 2015), metavar="A:B")
    p.add_argument("--journals", required=True, help="comma-separated journal ids")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_indicators)

    p = sub.add_parser("report", help="validate and re-emit a table directory")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def _read_file(path: str | Path, read):
    """``read`` over the lines of the UTF-8 file ``path``, streamed; a byte
    that is not UTF-8 anywhere in the file wins over every fault in its lines."""
    with _utf8(path), open(path, "r", encoding="utf-8") as fh:
        return _whole(fh, read)


def _sha256(path: str | Path) -> str:
    # Hashed in blocks: reading the corpus whole can set the indicators peak RSS.
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _apart(flag: str, outputs: list[str | Path], inputs: dict[str, str]) -> None:
    """Raise :class:`UsageError` when an output path resolves to one of the
    ``inputs`` (flag -> path), before any file is read or written."""
    real = {os.path.realpath(path): name for name, path in inputs.items()}
    for out in outputs:
        name = real.get(os.path.realpath(out))
        if name is not None:
            raise UsageError(f"{flag} would overwrite the input {name}")


def _unique(pairs: list[tuple]) -> dict:
    """``dict(pairs)``; raises :class:`ConfigError` for a key that repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"synth config repeats the key {key!r}")
        obj[key] = value
    return obj


def _cmd_synth(ns: argparse.Namespace) -> int:
    outputs = (ns.out_corpus, ns.out_truth, ns.out_taxonomy)
    if len(set(map(os.path.realpath, outputs))) < len(outputs):
        raise UsageError("--out-corpus, --out-truth and --out-taxonomy must name different files")
    for flag, out in zip(("--out-corpus", "--out-truth", "--out-taxonomy"), outputs):
        _apart(flag, [out], {"--config": ns.config})
    with open(ns.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"synth config is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("synth config must be a JSON object")
    allowed = {f.name for f in dataclass_fields(SyntheticConfig)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown synth config keys: {', '.join(unknown)}")
    if "seed" in raw:
        raise ConfigError("synth config must not set seed: the seed comes from --seed")
    try:
        config = SyntheticConfig(**raw, seed=ns.seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None
    corpus, truth, taxonomy = generate_synthetic(config)
    truth_lines = ["# article_id\tfield\tcategory\tbroad_area"] + truth.as_lines(taxonomy)
    write_files_atomic(
        {
            ns.out_corpus: emit_corpus(corpus),
            ns.out_truth: "\n".join(truth_lines) + "\n",
            ns.out_taxonomy: emit_taxonomy(taxonomy),
        }
    )
    return 0


def _cmd_validate(ns: argparse.Namespace) -> int:
    taxonomy = _read_file(ns.taxonomy, load_taxonomy)
    corpus = read_corpus(ns.corpus)
    taxonomy.check_journals(corpus.journals.values())
    report = validate_corpus(corpus)
    for line in report.as_lines():
        print(line)
    return 0


def _cmd_classify(ns: argparse.Namespace) -> int:
    _apart("--out", [ns.out], {"--corpus": ns.corpus, "--taxonomy": ns.taxonomy})
    config = ClassifierConfig(
        max_iterations=ns.max_iter,
        min_votes=ns.min_votes,
        tie_policy=ns.tie_policy,
        mode=ns.mode,
    )
    taxonomy = _read_file(ns.taxonomy, load_taxonomy)
    corpus = read_corpus(ns.corpus)
    result = classify(corpus, taxonomy, config)
    # The result keeps the ids; the references make room for the text.
    del corpus
    write_files_atomic({ns.out: emit_assignments(result)})
    return 0


def _cmd_indicators(ns: argparse.Namespace) -> int:
    journals = tuple(j.strip() for j in ns.journals.split(",") if j.strip())
    if not journals:
        raise UsageError("--journals must list at least one journal id")
    outputs = [Path(ns.out_dir) / name for name in TABLE_FILES + (MANIFEST_FILE,)]
    inputs = {"--corpus": ns.corpus, "--taxonomy": ns.taxonomy, "--assignments": ns.assignments}
    _apart("--out-dir", outputs, inputs)
    config = IndicatorConfig(
        window=ns.window,
        kappa=ns.kappa,
        if_year_range=ns.if_years,
        pub_window=ns.pub_years,
    )
    taxonomy = _read_file(ns.taxonomy, load_taxonomy)
    corpus = read_corpus(ns.corpus)
    assignments = _read_file(ns.assignments, lambda lines: read_assignments(lines, corpus))
    tables = build_report_tables(corpus, assignments, taxonomy, journals, config)
    manifest = RunManifest(
        command="indicators",
        version=__version__,
        config={**_knobs(config), "journals": ",".join(tables.journals)},
        inputs={
            "corpus": _sha256(ns.corpus),
            "taxonomy": _sha256(ns.taxonomy),
            "assignments": _sha256(ns.assignments),
        },
    )
    emit_report(tables, manifest, ns.out_dir)
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    _apart("--out-dir", [ns.out_dir], {"--in-dir": ns.in_dir})
    in_dir = Path(ns.in_dir)
    texts = read_table_dir(in_dir)
    digests = {name: _sha256(in_dir / name) for name in texts}
    in_manifest = in_dir / MANIFEST_FILE
    if in_manifest.is_file():
        digests[MANIFEST_FILE] = _sha256(in_manifest)
    manifest = RunManifest(command="report", version=__version__, config={}, inputs=digests)
    write_table_dir(ns.out_dir, texts, manifest)
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        return ns.func(ns)
    except UsageError as exc:
        print(f"error:usage:{exc}", file=sys.stderr)
        return 2
    except RefclassError as exc:
        print(f"error:{exc.code}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io:{exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error:memory:out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error:interrupt:interrupted", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
