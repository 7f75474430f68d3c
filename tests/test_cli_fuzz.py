"""Fuzzed CLI inputs: every run exits 0, 1 or 2, and a failure is one error line."""

from __future__ import annotations

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from refclass.cli import run_cli

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


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), err.getvalue()
    return code


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    corpus=file_bytes(ARTICLE | JOURNAL, JOURNAL_ROWS),
    assignments=file_bytes(ASSIGNMENT),
    knobs=KNOBS,
)
def test_cli_fuzz_exits_cleanly(corpus, assignments, knobs):
    window, if_years, pub_years = knobs
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus.tsv").write_bytes(corpus)
        (d / "taxonomy.tsv").write_text(TOY_TAXONOMY_TEXT)
        (d / "given.tsv").write_bytes(assignments)
        common = ["--corpus", str(d / "corpus.tsv"), "--taxonomy", str(d / "taxonomy.tsv")]
        run(["validate", *common])
        classified = run(["classify", *common, "--out", str(d / "assigned.tsv")]) == 0
        for source in ["given.tsv"] + (["assigned.tsv"] if classified else []):
            run(
                [
                    "indicators",
                    *common,
                    "--assignments",
                    str(d / source),
                    f"--window={window}",
                    f"--if-years={if_years}",
                    f"--pub-years={pub_years}",
                    "--journals=JA,JG",
                    "--out-dir",
                    str(d / "tables"),
                ]
            )
