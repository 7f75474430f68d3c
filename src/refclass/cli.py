"""Command-line front end wiring the pipeline stages together.

Subcommands mirror the pipeline: ``synth`` generates a seeded corpus,
``validate`` checks one, ``classify`` produces the assignment table,
``indicators`` computes the report tables, and ``report`` re-emits a table
directory after validation. Each command that writes files writes them all
with one :func:`~refclass.report.write_files_atomic` call: every output is
staged as a uniquely named temp and renamed into place, and if any step
fails every prior file is put back. So a failure leaves no temp file behind,
no output is ever absent, and the outputs of one command (the three
``synth`` files, or a whole table directory) hold all their prior bytes or
all their new ones. A crash in the middle of the renames is not covered.
Every error is a single line ``error:<code>:<message>`` on stderr with exit
code 1 (2 for usage errors).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import (
    MODES,
    TIE_POLICIES,
    AssignmentTable,
    ClassifierConfig,
    classify,
    emit_assignments,
    read_assignments,
)
from .corpus import Corpus, emit_corpus, read_corpus, validate_corpus
from .errors import ConfigError, ParseError, RefclassError, UsageError, ValidationError
from .indicators import IndicatorConfig
from .report import (
    MANIFEST_FILE,
    TABLE_COLUMNS,
    TABLE_FILES,
    RunManifest,
    build_report_tables,
    emit_report,
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


def _read_lines(path: str | Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _read_corpus_file(path: str | Path) -> Corpus:
    # The whole file is decoded before any line is parsed, so a non-UTF-8
    # file is still one parse error. Only the iterator holds the line list,
    # which read_corpus copies into its own list and empties once every line
    # is checked, so no line is left when the corpus arrays are built.
    return read_corpus(iter(_read_lines(path)))


def _sha256(path: str | Path) -> str:
    # Hashed in blocks: reading the corpus whole can set the indicators peak RSS.
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cmd_synth(ns: argparse.Namespace) -> int:
    with open(ns.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"synth config is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("synth config must be a JSON object")
    allowed = {f.name for f in dataclass_fields(SyntheticConfig)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown synth config keys: {', '.join(unknown)}")
    raw["seed"] = ns.seed
    try:
        rate = raw.get("field_citation_rate")
        if isinstance(rate, dict):
            raw["field_citation_rate"] = {int(k): v for k, v in rate.items()}
        config = SyntheticConfig(**raw)
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


def _check_journal_categories(corpus, taxonomy) -> None:
    bad = []
    for j_id, journal in corpus.journals.items():
        for cat in journal.categories:
            if cat not in taxonomy:
                bad.append(f"{j_id}:{cat}")
    if bad:
        raise ValidationError("journals reference unknown categories: " + ", ".join(sorted(bad)))


def _check_assignments(assignments: AssignmentTable, corpus, taxonomy) -> None:
    rows = assignments.corpus_rows(corpus)
    strangers = sorted(assignments.ids[r] for r in np.flatnonzero(rows < 0).tolist())
    if strangers:
        raise ValidationError(
            f"assignments name {len(strangers)} article(s) not in the corpus", token=strangers[0]
        )
    # Per category name, the code of its taxonomy area in the table; a name
    # missing from the taxonomy, or whose area no row names, gets -2, which
    # matches no row.
    area_code = {area: code for code, area in enumerate(assignments.areas)}
    expected = np.array(
        [
            area_code.get(taxonomy.broad_area_of(cat), -2) if cat in taxonomy else -2
            for cat in assignments.categories
        ],
        dtype=np.int64,
    )
    category = assignments.category
    filed = np.flatnonzero(category >= 0)
    wrong = filed[expected[category[filed]] != assignments.area[filed]]
    if len(wrong) == 0:
        return
    a_id = assignments.ids[wrong[0]]
    entry = assignments[a_id]
    if entry.category not in taxonomy:
        raise ValidationError(
            f"assignment of {a_id!r} names a category missing from the taxonomy",
            token=entry.category,
        )
    area = taxonomy.broad_area_of(entry.category)
    raise ValidationError(
        f"assignment of {a_id!r} files {entry.category!r} under "
        f"{entry.broad_area!r}; the taxonomy says {area!r}"
    )


def _cmd_validate(ns: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(_read_lines(ns.taxonomy))
    corpus = _read_corpus_file(ns.corpus)
    _check_journal_categories(corpus, taxonomy)
    report = validate_corpus(corpus)
    for line in report.as_lines():
        print(line)
    return 0


def _cmd_classify(ns: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(_read_lines(ns.taxonomy))
    corpus = _read_corpus_file(ns.corpus)
    _check_journal_categories(corpus, taxonomy)
    config = ClassifierConfig(
        max_iterations=ns.max_iter,
        min_votes=ns.min_votes,
        tie_policy=ns.tie_policy,
        mode=ns.mode,
    )
    result = classify(corpus, taxonomy, config)
    write_files_atomic({ns.out: emit_assignments(result)})
    return 0


def _cmd_indicators(ns: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(_read_lines(ns.taxonomy))
    corpus = _read_corpus_file(ns.corpus)
    # As for the corpus, the list iterator lets the lines go once parsed.
    assignments = read_assignments(iter(_read_lines(ns.assignments)))
    _check_assignments(assignments, corpus, taxonomy)
    journals = tuple(j.strip() for j in ns.journals.split(",") if j.strip())
    if not journals:
        raise UsageError("--journals must list at least one journal id")
    config = IndicatorConfig(
        window=ns.window,
        kappa=ns.kappa,
        if_year_range=ns.if_years,
        pub_window=ns.pub_years,
    )
    tables = build_report_tables(corpus, assignments, taxonomy, journals, config)
    manifest = RunManifest(
        command="indicators",
        version=__version__,
        config={
            "window": str(config.window),
            "kappa": f"{config.kappa:.6f}",
            "if_years": f"{config.if_year_range[0]}:{config.if_year_range[1]}",
            "pub_years": f"{config.pub_window[0]}:{config.pub_window[1]}",
            "journals": ",".join(tables.journals),
        },
        inputs={
            "corpus": _sha256(ns.corpus),
            "taxonomy": _sha256(ns.taxonomy),
            "assignments": _sha256(ns.assignments),
        },
    )
    emit_report(tables, manifest, ns.out_dir)
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    in_dir = Path(ns.in_dir)
    texts: dict[str, str] = {}
    digests: dict[str, str] = {}
    for name in TABLE_FILES:
        path = in_dir / name
        if not path.is_file():
            raise ValidationError(f"missing table file: {path}")
        text = "".join(_read_lines(path))
        lines = text.splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        if not lines or not lines[0].startswith("#"):
            raise ValidationError(f"{name}: missing config header line")
        if not data or data[0] != "\t".join(TABLE_COLUMNS[name]):
            raise ValidationError(f"{name}: unexpected column header")
        width = len(TABLE_COLUMNS[name])
        for row in data[1:]:
            if len(row.split("\t")) != width:
                raise ValidationError(f"{name}: row with wrong column count: {row!r}")
        texts[name] = text
        digests[name] = _sha256(path)
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


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
