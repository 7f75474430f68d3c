"""Deterministic TSV report tables and their bit-exact emission.

Every file is UTF-8 with LF endings, starts with a ``#`` header line that
records the indicator configuration, then a column-name line, then data rows.
Every cell is rendered by one rule: ``None`` is an empty cell ("undefined"),
a bool is ``true`` or ``false``, a float has 6 decimal places (round-half-even,
as produced by ``format(x, '.6f')``), and anything else is its ``str``. The
header and the manifest's ``config.*`` lines write the knobs one way.

:func:`write_files_atomic` is the one staged-write helper: every CLI command
that writes files calls it once for all of them. It stages uniquely named
temps, keeps each prior file under a hard-linked backup name while its temp
is renamed over it, and puts every prior file back if any step fails, so the
outputs of one command change together. A crash in the middle of the renames
is not covered.
"""

from __future__ import annotations

import errno
import os
import secrets
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .classifier import AssignmentTable, _check_assignments
from .corpus import Corpus, _items, _utf8
from .errors import ConfigError, EmptyScopeError, UndefinedValueError, ValidationError
from .indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    CompositionTable,
    IndicatorConfig,
    MeanIfValue,
    PrestigeValue,
    RankingTable,
    RepresentationTable,
    SummaryRow,
    count_cube,
    prestige,
)
from .taxonomy import Taxonomy

#: Scope label for the pooled --journals set in composition rows.
COMBINED_SCOPE = "COMBINED"

TABLE_FILES = (
    "summary.tsv",
    "composition.tsv",
    "representation.tsv",
    "field_if.tsv",
    "prestige.tsv",
    "ranking.tsv",
)

MANIFEST_FILE = "manifest.tsv"

#: Every file of a table directory, as the manifest lists them.
_OUTPUTS = ",".join(sorted(TABLE_FILES + (MANIFEST_FILE,)))

TABLE_COLUMNS = {
    "summary.tsv": ("journal_id", "articles", "articles_classified", "citations", "mean_if"),
    "composition.tsv": ("scope", "area", "count", "share"),
    "representation.tsv": ("area", "share_set", "share_all_sources", "ratio"),
    "field_if.tsv": ("journal_id", "area", "year", "numerator", "denominator", "value", "skipped_years"),
    "prestige.tsv": ("journal_id", "area", "journal_if", "baseline_if", "value"),
    "ranking.tsv": ("area", "rank", "journal_id", "value", "field_restricted"),
}


def fmt_float(x: float) -> str:
    """Fixed 6-decimal rendering; IEEE correct rounding is round-half-even."""
    return f"{x:.6f}"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted alongside every table set.

    Contains no timestamps or absolute paths, so identical inputs and flags
    produce a byte-identical manifest.
    """

    command: str
    version: str
    config: dict[str, str]
    inputs: dict[str, str]

    def to_lines(self) -> list[str]:
        lines = ["key\tvalue", f"command\t{self.command}", f"version\t{self.version}"]
        lines += [f"config.{k}\t{v}" for k, v in sorted(self.config.items())]
        lines += [f"input.{k}.sha256\t{v}" for k, v in sorted(self.inputs.items())]
        lines.append(f"outputs\t{_OUTPUTS}")
        return lines


@dataclass(frozen=True)
class ReportTables:
    """All computed indicator tables for one run."""

    config: IndicatorConfig
    journals: tuple[str, ...]
    summary: tuple[SummaryRow, ...]
    compositions: tuple[tuple[str, CompositionTable], ...]
    representation: RepresentationTable | None
    field_if: tuple[MeanIfValue, ...]
    prestige: tuple[PrestigeValue, ...]
    rankings: tuple[RankingTable, ...]


def build_report_tables(
    corpus: Corpus,
    assignments: AssignmentTable,
    taxonomy: Taxonomy,
    journals: Iterable[str],
    config: IndicatorConfig | None = None,
) -> ReportTables:
    """Compute every report table for the given journal list.

    Scopes or cells whose value is undefined (zero denominator, nothing
    classified) are skipped rather than fabricated; the emitters render
    whatever is present. Every cell is a slice of one :class:`CountCube`.
    ``journals`` is read as :func:`count_cube` reads it: a string or a
    non-iterable raises :class:`ConfigError`, and an id that is not a corpus
    journal, one that is not a ``str`` included, :class:`UnknownNameError`.
    A journal named
    :data:`COMBINED_SCOPE` or :data:`ALL_SOURCES` would share its rows with
    the pooled set or every journal, so either raises :class:`ConfigError`, as
    do a ``config`` that is not an :class:`IndicatorConfig` and
    ``assignments`` that are not an :class:`AssignmentTable`.

    The table must agree with the taxonomy: its first row, in corpus order,
    whose category the taxonomy lacks or files under another broad area
    raises :class:`ValidationError`, and this check comes first. A corpus
    journal that names a category missing from the taxonomy, or a table over
    another corpus's articles, also raises :class:`ValidationError` before
    anything is counted.
    """
    if isinstance(assignments, AssignmentTable):  # anything else is count_cube's to refuse
        _check_assignments(assignments, taxonomy)
    taxonomy.check_journals(corpus.journals.values())
    if config is None:
        config = IndicatorConfig()
    requested = list(_items(journals, "journals", "journal ids", ConfigError))
    if COMBINED_SCOPE in requested:
        raise ConfigError(f"journals must not name {COMBINED_SCOPE}, the scope of the pooled set")
    cube = count_cube(corpus, assignments, requested, config)
    journal_list = tuple(sorted(set(requested)))  # known journal ids now
    areas = tuple(sorted({taxonomy.broad_area_of(c) for c in taxonomy.assignment_targets}))

    summary = [cube.summary_row(j) for j in (ALL_SOURCES,) + journal_list]

    compositions: list[tuple[str, CompositionTable]] = []
    for scope, journal_set in [(COMBINED_SCOPE, journal_list)] + [(j, (j,)) for j in journal_list]:
        try:
            compositions.append((scope, cube.composition(journal_set)))
        except EmptyScopeError:
            continue

    try:
        rep = cube.representation(journal_list)
    except EmptyScopeError:
        rep = None

    field_if: list[MeanIfValue] = []
    for j in (ALL_SOURCES,) + journal_list:
        for area in (ALL_AREAS,) + areas:
            try:
                field_if.append(cube.mean_impact_factor(j, area))
            except UndefinedValueError:
                continue

    means = {(m.journal_id, m.area): m.value for m in field_if}
    prestige_rows: list[PrestigeValue] = []
    for j in journal_list:
        for area in areas:
            value, base = means.get((j, area)), means.get((ALL_SOURCES, area))
            if value is not None and base is not None and base > 0:
                prestige_rows.append(prestige(value, base, journal_id=j, area=area))

    rankings = [cube.ranking(taxonomy, area) for area in areas]

    return ReportTables(
        config=config,
        journals=journal_list,
        summary=tuple(summary),
        compositions=tuple(compositions),
        representation=rep,
        field_if=tuple(field_if),
        prestige=tuple(prestige_rows),
        rankings=tuple(rankings),
    )


def _knobs(config: IndicatorConfig) -> dict[str, str]:
    """The indicator knobs as the table headers and the manifest write them."""
    return {
        "window": str(config.window),
        "kappa": fmt_float(config.kappa),
        "if_years": "{}:{}".format(*config.if_year_range),
        "pub_years": "{}:{}".format(*config.pub_window),
    }


def _config_header(config: IndicatorConfig) -> str:
    knobs = " ".join(f"{key}={value}" for key, value in _knobs(config).items())
    return f"# {knobs} denominator_doc_types=article citing_doc_types=article,other,review"


def _cell(value: object) -> str:
    """The text of one table cell: empty for ``None``, ``true`` or ``false``
    for a bool, :func:`fmt_float` for a float, ``str`` for anything else."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _table(
    name: str, config: IndicatorConfig, rows: list[tuple], comments: Iterable[str] = ()
) -> str:
    lines = [_config_header(config), *comments, "\t".join(TABLE_COLUMNS[name])]
    lines += ["\t".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render_tables(tables: ReportTables) -> dict[str, str]:
    """Render every table file to its exact text, keyed by file name."""
    cfg = tables.config

    rows = [
        (r.journal_id, r.articles, r.articles_classified, r.citations, r.mean_if)
        for r in sorted(tables.summary, key=lambda r: r.journal_id)
    ]
    out = {"summary.tsv": _table("summary.tsv", cfg, rows)}

    rows = [
        (scope, area, comp.counts[area], comp.share(area))
        for scope, comp in sorted(tables.compositions, key=lambda sc: sc[0])
        for area in sorted(comp.counts)
    ]
    out["composition.tsv"] = _table("composition.tsv", cfg, rows)

    rows, comments = [], []
    rep = tables.representation
    if rep is not None:
        rows = [
            (area, rep.share_set.get(area, 0.0), rep.share_all[area], rep.ratios[area])
            for area in sorted(rep.ratios)
        ]
        if rep.omitted_areas:
            comments.append("# omitted_areas=" + ";".join(rep.omitted_areas))
    out["representation.tsv"] = _table("representation.tsv", cfg, rows, comments)

    rows = []
    for m in sorted(tables.field_if, key=lambda m: (m.journal_id, m.area)):
        rows += [
            (m.journal_id, m.area, v.year, v.numerator, v.denominator, v.value, None)
            for v in m.yearly
        ]
        skipped = ";".join(str(y) for y in m.skipped_years)
        rows.append((m.journal_id, m.area, "mean", None, None, m.value, skipped))
    out["field_if.tsv"] = _table("field_if.tsv", cfg, rows)

    rows = [
        (p.journal_id, p.area, p.journal_if, p.baseline_if, p.value)
        for p in sorted(tables.prestige, key=lambda p: (p.journal_id, p.area))
    ]
    out["prestige.tsv"] = _table("prestige.tsv", cfg, rows)

    rows = [
        (ranking.area, e.rank, e.journal_id, e.value, e.field_restricted)
        for ranking in sorted(tables.rankings, key=lambda r: r.area)
        for e in ranking.entries
    ]
    out["ranking.tsv"] = _table("ranking.tsv", cfg, rows)
    return out


#: Characters per write of :func:`write_files_atomic`.
_WRITE_CHARS = 1 << 16


def _temp_path(path: Path, kind: str) -> Path:
    """A sibling name unique to this call: pid plus a random suffix."""
    return path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(6)}.{kind}")


@contextmanager
def _naming(target: Path):
    """Re-raise a file error as one that names ``target``, not its temp or backup."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(target)) from exc


def write_files_atomic(files: Mapping[Path | str, str]) -> None:
    """Write ``files`` (path -> text) in the order given: all or nothing.

    Every file is staged as a uniquely named sibling temp first. Then, in
    order, each existing target is kept under a backup name by a hard link
    and its temp renamed over it, so no target is ever absent. If any step
    fails, the replaced files are put back, newest first, so every target
    holds its prior bytes (or stays absent) and no temp is left. A crash in
    the middle of the renames is not covered. Keeping a target needs hard
    links: where the file system has none, rewriting an existing file fails
    and the prior files stay. An existing target that is not a regular file
    (a directory, symlink, FIFO, socket or device) is refused before anything
    is written. A failed step raises an :class:`OSError` that names its
    target path.
    """
    for path in files:
        try:
            mode = os.lstat(path).st_mode
        except OSError:  # absent or unreachable: staging it reports that
            continue
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not stat.S_ISREG(mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file", str(path))
    staged: list[tuple[Path, Path]] = []
    placed: list[tuple[Path, Path | None]] = []
    try:
        for path, text in files.items():
            final = Path(path)
            tmp = _temp_path(final, "tmp")
            with _naming(final), open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, final))
                # In slices: a whole text encoded at once is a second copy of it.
                for at in range(0, len(text), _WRITE_CHARS):
                    fh.write(text[at : at + _WRITE_CHARS])
        for tmp, final in staged:
            backup = None
            with _naming(final):
                # A directory made since the check is not kept; the rename fails on it.
                if final.is_file() or final.is_symlink():
                    backup = _temp_path(final, "old")
                    os.link(final, backup, follow_symlinks=False)
                placed.append((final, backup))
                os.replace(tmp, final)
    except BaseException:
        # Best effort: a backup that cannot be put back stays on disk.
        for final, backup in reversed(placed):
            with suppress(OSError):
                if backup is None:
                    final.unlink()
                else:
                    os.replace(backup, final)
                    # Still there if its swap failed: renaming a link over
                    # another link to the same file does nothing.
                    backup.unlink(missing_ok=True)
        for tmp, _final in staged:
            tmp.unlink(missing_ok=True)
        raise
    for _final, backup in placed:
        if backup is not None:
            backup.unlink()


def write_table_dir(
    out_dir: Path | str, texts: Mapping[str, str], manifest: RunManifest
) -> list[str]:
    """Write ``texts`` (table file name -> content) and ``manifest`` into ``out_dir``.

    Creates the directory, then makes one :func:`write_files_atomic` call
    with the tables in file-name order and ``manifest.tsv`` last. Returns
    the written paths in file-name order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {out / name: texts[name] for name in sorted(texts)}
    files[out / MANIFEST_FILE] = "\n".join(manifest.to_lines()) + "\n"
    write_files_atomic(files)
    return sorted(map(str, files))


def read_table_dir(in_dir: Path | str) -> dict[str, str]:
    """Every table file of ``in_dir``, read as UTF-8 with universal newlines,
    by name. Raises :class:`ValidationError` for a missing file, a missing
    ``#`` header line, a column-name line other than :data:`TABLE_COLUMNS`
    or a row of another width, and :class:`ParseError` for bytes that are
    not UTF-8."""
    texts: dict[str, str] = {}
    for name in TABLE_FILES:
        path = Path(in_dir) / name
        if not path.is_file():
            raise ValidationError(f"missing table file: {path}")
        with _utf8(path), open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # Universal newlines leave only "\n" as a line end; str.splitlines
        # would also split ids at characters such as "\x1c".
        lines = text.removesuffix("\n").split("\n")
        if not lines[0].startswith("#"):
            raise ValidationError(f"{name}: missing config header line")
        header, *rows = [ln for ln in lines if not ln.startswith("#")] or [""]
        if header != "\t".join(TABLE_COLUMNS[name]):
            raise ValidationError(f"{name}: unexpected column header")
        for row in rows:
            if row.count("\t") != header.count("\t"):
                raise ValidationError(f"{name}: row with wrong column count: {row!r}")
        texts[name] = text
    return texts


def emit_report(tables: ReportTables, manifest: RunManifest, out_dir: Path | str) -> list[str]:
    """Write all table files plus ``manifest.tsv`` into ``out_dir``.

    Staged through :func:`write_table_dir`. Returns the written paths in
    file-name order. Re-running on identical tables produces byte-identical
    files.
    """
    return write_table_dir(out_dir, render_tables(tables), manifest)
