"""Fuzzed CLI inputs: every run exits 0, 1 or 2, and a failure is one error line
that leaves no output and no temp file."""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from refclass.cli import run_cli
from refclass.report import MANIFEST_FILE, TABLE_COLUMNS, TABLE_FILES

from conftest import TOY_TAXONOMY_TEXT

ERROR_LINE = re.compile(r"^error:[a-z]+:")
# Tab, comma, semicolon, hash, newline, digits and letters; the one byte
# that is not UTF-8 is spliced in separately. Most fields come from small
# pools of valid values, so many runs get past parsing.
NOISE = st.text(alphabet="\t,;#\n0123456789APJXabz ", max_size=40)
TOKEN = st.text(alphabet="0123456789APJXab;#, ", max_size=5)


def mostly(*values: str) -> st.SearchStrategy[str]:
    return st.one_of(st.sampled_from(values), st.sampled_from(values), TOKEN)


IDS = mostly("P1", "P2", "P3", "G1", "G2", "X9")
YEARS = st.one_of(st.integers(2000, 2010).map(str), st.integers(1890, 2110).map(str), TOKEN)
ARTICLE = st.builds(
    lambda *f: "A\t" + "\t".join(f),
    IDS,
    mostly("JA", "JO", "JG", "J9"),
    YEARS,
    mostly("article", "review", "other"),
    st.lists(IDS, max_size=4).map(",".join),
)
JOURNAL = st.builds(
    lambda j, c: f"J\t{j}\tName\t{c}",
    mostly("JA", "JO", "JG"),
    mostly(
        "Astronomy & Astrophysics", "Oncology", "Multidisciplinary Sciences", "Oncology;Cell Biology"
    ),
)
JOURNAL_ROWS = (
    "J\tJA\tAstro\tAstronomy & Astrophysics\n"
    "J\tJO\tOnco\tOncology\n"
    "J\tJG\tGeneral\tMultidisciplinary Sciences\n"
)
ASSIGNMENT = st.builds(
    lambda *f: "\t".join(f),
    IDS,
    mostly("Astronomy & Astrophysics", "Oncology", ""),
    mostly("Astronomy", "Medicine", ""),
    mostly("journal-seeded", "reference-classified", "tie-broken", "unclassified"),
    mostly("0", "1", "2"),
    mostly("0", "3"),
)
WILD = st.integers(-(10**12), 10**12) | st.integers(-10, 3000)
# (window, if-years, pub-years): valid knobs, or anything at all.
KNOBS = st.one_of(
    st.tuples(
        st.integers(1, 3).map(str),
        st.builds(lambda lo, n: f"{lo}:{lo + n}", st.integers(2000, 2010), st.integers(0, 4)),
        st.builds(lambda lo, n: f"{lo}:{lo + n}", st.integers(2000, 2010), st.integers(0, 4)),
    ),
    st.tuples(
        WILD.map(str) | TOKEN,
        st.builds(lambda lo, hi: f"{lo}:{hi}", WILD, WILD) | TOKEN,
        st.builds(lambda lo, hi: f"{lo}:{hi}", WILD, WILD) | TOKEN,
    ),
)


@st.composite
def file_bytes(draw, row, header: str = "") -> bytes:
    text = "\n".join(draw(st.lists(st.one_of(row, row, NOISE), max_size=8))) + "\n"
    data = (header if draw(st.booleans()) else "").encode() + text.encode()
    if draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def run(argv: list[str], outputs: tuple[Path, ...] = ()) -> int:
    """Run the CLI; on failure, no path of ``outputs`` holds a file.

    Every staged temp is named ``.<name>.<pid>.<suffix>``, so no dot file
    may be left next to an output either way.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), err.getvalue()
        for path in outputs:
            assert not path.is_file() and not any(path.glob("*")), path
    for path in outputs:
        assert not any(path.parent.rglob(".*")), path.parent
    return code


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    corpus=file_bytes(ARTICLE | JOURNAL, JOURNAL_ROWS),
    assignments=file_bytes(ASSIGNMENT),
    knobs=KNOBS,
    journals=st.sampled_from(["JA,JG", "JA,JG", "JG", "", " , ", "JA,COMBINED", "J9"]),
)
def test_cli_fuzz_exits_cleanly(corpus, assignments, knobs, journals):
    window, if_years, pub_years = knobs
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus.tsv").write_bytes(corpus)
        (d / "taxonomy.tsv").write_text(TOY_TAXONOMY_TEXT)
        (d / "given.tsv").write_bytes(assignments)
        common = ["--corpus", str(d / "corpus.tsv"), "--taxonomy", str(d / "taxonomy.tsv")]
        run(["validate", *common])
        assigned = d / "assigned.tsv"
        classified = run(["classify", *common, "--out", str(assigned)], (assigned,)) == 0
        for source in ["given.tsv"] + (["assigned.tsv"] if classified else []):
            tables = d / f"tables-{source}"
            run(
                [
                    "indicators",
                    *common,
                    "--assignments",
                    str(d / source),
                    f"--window={window}",
                    f"--if-years={if_years}",
                    f"--pub-years={pub_years}",
                    f"--journals={journals}",
                    "--out-dir",
                    str(tables),
                ],
                (tables,),
            )


# A synth config that generates a few dozen articles in milliseconds. Each
# fuzzed value is as small, or rejected whatever the other keys hold: at
# least 2**31, negative, not a number or of the wrong type.
SYNTH_BASE = {
    "num_fields": 2,
    "journals_per_field": 1,
    "num_general_journals": 1,
    "articles_per_journal_year": 3,
    "year_range": [2000, 2001],
    "mean_refs": 2.0,
    "p_intra": 0.8,
    "field_citation_rate": 1.0,
    "general_field_mix": [0.5, 0.5],
}
SYNTH_VALUE = st.one_of(
    st.integers(-1, 4),
    st.floats(0, 4),
    st.sampled_from(
        [
            *(2**31, 1e300, -0.5, None, True, "x", [], {}),
            *([2001, 2000], [1800, 2000], [2000, 2001, 1], [0.5, 0.5], [1.0, 2.0]),
            *({"0": 1.0, "1": 2.0}, {"0": 1.0}, {"a": 1.0}),
        ]
    ),
)
NOT_A_JSON_OBJECT = [b"{", b"[]", b"\xff", b"3", b"", b'"x"', b"null"]


@st.composite
def synth_config(draw) -> bytes:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(NOT_A_JSON_OBJECT))
    config = dict(SYNTH_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(SYNTH_BASE) + ["seed", "bogus"]), max_size=2)):
        if draw(st.integers(0, 3)) == 0:
            config.pop(key, None)
        else:
            config[key] = draw(SYNTH_VALUE)
    return json.dumps(config).encode()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=synth_config(), seed=st.sampled_from(["7", "-1", "x", str(2**64)]))
def test_synth_fuzz_exits_cleanly(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "synth.json").write_bytes(config)
        outputs = tuple(d / "out" / f"{name}.tsv" for name in ("corpus", "truth", "taxonomy"))
        outputs[0].parent.mkdir()
        argv = ["synth", "--config", str(d / "synth.json"), f"--seed={seed}"]
        argv += [f"--out-{path.stem}={path}" for path in outputs]
        if run(argv, outputs) == 0:
            assert all(path.is_file() for path in outputs)


ROWS = st.lists(
    st.lists(st.sampled_from(["", "1", "0.5", "JA", "#x", "a b"]), min_size=7, max_size=7),
    max_size=3,
)
FAULT = st.tuples(
    st.sampled_from(TABLE_FILES),
    st.sampled_from(["missing file", "no header line", "column header", "row width", "not UTF-8"]),
)


def table_bytes(name: str, rows: list[list[str]], faults: set[str]) -> bytes | None:
    """A well-formed table file with ``faults`` put in; ``None`` for a missing file."""
    if "missing file" in faults:
        return None
    columns = TABLE_COLUMNS[name]
    lines = [] if "no header line" in faults else ["# window=2 kappa=1.040000"]
    lines.append("\t".join(columns[:-1] if "column header" in faults else columns))
    lines += ["\t".join(row[: len(columns)]) for row in rows]
    if "row width" in faults:
        lines.append("\t".join(rows[0][: len(columns) - 1]) if rows else "1")
    data = ("\n".join(lines) + "\n").encode()
    return data + b"\xff\n" if "not UTF-8" in faults else data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.tuples(*[ROWS] * len(TABLE_FILES)),
    faults=st.lists(FAULT, max_size=2),
    manifest=st.sampled_from([None, b"key\tvalue\n", b"\xff"]),
)
def test_report_fuzz_exits_cleanly(rows, faults, manifest):
    tables = [
        table_bytes(name, table_rows, {fault for where, fault in faults if where == name})
        for name, table_rows in zip(TABLE_FILES, rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        in_dir, out_dir = d / "in", d / "out"
        in_dir.mkdir()
        for name, data in zip(TABLE_FILES + (MANIFEST_FILE,), tables + [manifest]):
            if data is not None:
                (in_dir / name).write_bytes(data)
        if run(["report", "--in-dir", str(in_dir), "--out-dir", str(out_dir)], (out_dir,)) == 0:
            for name, data in zip(TABLE_FILES, tables):
                assert (out_dir / name).read_bytes() == data
