"""CLI subcommands: grammar, exit codes, diagnostics, file outputs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import refclass
import refclass.corpus as corpus_module
import refclass.report as report_module
from refclass.classifier import STATUSES, read_assignments
from refclass.cli import run_cli
from refclass.corpus import read_corpus
from refclass.errors import ValidationError
from refclass.report import MANIFEST_FILE, TABLE_FILES, build_report_tables
from refclass.taxonomy import load_taxonomy

from conftest import TOY_TAXONOMY_TEXT

FORK_BYTES = corpus_module._FORK_BYTES
DATA = Path(__file__).resolve().parents[1] / "data"

TOY_CORPUS_TEXT = """\
# toy corpus
J\tJA\tAstro Letters\tAstronomy & Astrophysics
J\tJO\tOncology Reports\tOncology
J\tJG\tGeneral Science\tMultidisciplinary Sciences
A\tP1\tJA\t2006\tarticle\t
A\tP2\tJA\t2007\tarticle\t
A\tP3\tJO\t2006\tarticle\t
A\tG1\tJG\t2006\tarticle\tP1
A\tG2\tJG\t2007\tarticle\tP1,P3
A\tC1\tJO\t2008\tarticle\tG1,P2
A\tC2\tJO\t2008\tarticle\tG1,P2
"""

SYNTH_CONFIG = {
    "num_fields": 3,
    "journals_per_field": 2,
    "num_general_journals": 1,
    "articles_per_journal_year": 15,
    "year_range": [2000, 2003],
    "mean_refs": 6.0,
    "p_intra": 0.8,
    "field_citation_rate": [1.0, 1.5, 2.0],
    "general_field_mix": [0.4, 0.3, 0.3],
}


@pytest.fixture
def toy_files(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(TOY_CORPUS_TEXT)
    taxonomy = tmp_path / "taxonomy.tsv"
    taxonomy.write_text(TOY_TAXONOMY_TEXT)
    return corpus, taxonomy


def test_classify_happy_path(toy_files, tmp_path, capsys):
    corpus, taxonomy = toy_files
    out = tmp_path / "assignments.tsv"
    code = run_cli(
        ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    ids = [ln.split("\t")[0] for ln in lines]
    assert ids == sorted(ids)
    assert len(ids) == 7
    by_id = {ln.split("\t")[0]: ln.split("\t") for ln in lines}
    assert by_id["P1"][3] == "journal-seeded"
    assert by_id["G1"][1] == "Astronomy & Astrophysics"


def test_missing_corpus_is_io_error(toy_files, tmp_path, capsys):
    _, taxonomy = toy_files
    code = run_cli(
        [
            "classify",
            "--corpus",
            str(tmp_path / "missing.tsv"),
            "--taxonomy",
            str(taxonomy),
            "--out",
            str(tmp_path / "out.tsv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:io:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize(
    "command, present",
    [
        pytest.param("classify", False, id="classify"),
        pytest.param("indicators", False, id="indicators"),
        pytest.param("classify", True, id="classify-present"),
        pytest.param("indicators", True, id="indicators-present"),
    ],
)
def test_a_bad_knob_is_rejected_before_any_file_is_read(tmp_path, capsys, command, present):
    # With every input file missing, the config error also wins over error:io.
    corpus, taxonomy = tmp_path / "corpus.tsv", tmp_path / "taxonomy.tsv"
    assignments = tmp_path / "assignments.tsv"
    if present:
        corpus.write_text(TOY_CORPUS_TEXT)
        taxonomy.write_text(TOY_TAXONOMY_TEXT)
        _classify_toy(corpus, taxonomy, tmp_path)
    out = tmp_path / "out"
    if command == "classify":
        args = ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--out", str(out)]
        args.append("--max-iter=0")
        expected = "error:config:max_iterations must be an integer >= 1\n"
    else:
        args = _indicators_args(corpus, taxonomy, assignments, out)
        args.append("--window=0")
        expected = "error:config:window must be an integer in [1, 200]\n"
    assert [p.exists() for p in (corpus, taxonomy, assignments)] == [present] * 3
    assert run_cli(args) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_missing_output_directory_is_io_error_naming_the_output(toy_files, tmp_path, capsys):
    corpus, taxonomy = toy_files
    out = tmp_path / "missing" / "assignments.tsv"
    code = run_cli(
        ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error:io:[Errno 2] No such file or directory: '{out}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "taxonomy.tsv"]


def test_malformed_corpus_is_parse_error(tmp_path, toy_files, capsys):
    _, taxonomy = toy_files
    bad = tmp_path / "bad.tsv"
    bad.write_text("A\tP1\tJ1\tNOTAYEAR\tarticle\t\n")
    code = run_cli(
        [
            "classify",
            "--corpus",
            str(bad),
            "--taxonomy",
            str(taxonomy),
            "--out",
            str(tmp_path / "o.tsv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:parse:")


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["classify", "--frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    assert run_cli(["no-such-command"]) == 2


def test_validate_prints_counts(toy_files, capsys):
    corpus, taxonomy = toy_files
    assert run_cli(["validate", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]) == 0
    out = capsys.readouterr().out
    assert "articles\t7" in out
    assert "journals\t3" in out
    assert "journal.JG\t2" in out


def test_validate_rejects_unknown_journal_category(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("J\tJ1\tX\tNo Such Category\nA\tP1\tJ1\t2010\tarticle\t\n")
    taxonomy = tmp_path / "t.tsv"
    taxonomy.write_text(TOY_TAXONOMY_TEXT)
    assert run_cli(["validate", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]) == 1
    assert capsys.readouterr().err.startswith("error:validation:")


def test_synth_writes_deterministic_outputs(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    outs = {}
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        code = run_cli(
            [
                "synth",
                "--config",
                str(config),
                "--seed",
                "99",
                "--out-corpus",
                str(d / "corpus.tsv"),
                "--out-truth",
                str(d / "truth.tsv"),
                "--out-taxonomy",
                str(d / "taxonomy.tsv"),
            ]
        )
        assert code == 0
        outs[run] = tuple((d / n).read_bytes() for n in ("corpus.tsv", "truth.tsv", "taxonomy.tsv"))
    assert outs["one"] == outs["two"]


def test_failed_synth_keeps_every_prior_output(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    out = tmp_path / "out"
    out.mkdir()
    corpus, truth, taxonomy = (out / n for n in ("c.tsv", "t.tsv", "x.tsv"))
    outs = ["--out-corpus", corpus, "--out-truth", truth, "--out-taxonomy", taxonomy]

    def synth(seed: str) -> int:
        return run_cli(["synth", "--config", str(config), "--seed", seed, *map(str, outs)])

    assert synth("1") == 0
    prior = {p: p.read_bytes() for p in (corpus, truth)}
    taxonomy.unlink()
    taxonomy.mkdir()  # the last output is blocked
    assert synth("2") == 1
    # the error names the blocked output, not the temp file renamed onto it
    assert capsys.readouterr().err == f"error:io:[Errno 21] Is a directory: '{taxonomy}'\n"
    assert {p: p.read_bytes() for p in (corpus, truth)} == prior
    assert sorted(p.name for p in out.iterdir()) == ["c.tsv", "t.tsv", "x.tsv"]


@pytest.mark.parametrize("truth", ["x.tsv", "./x.tsv"])
def test_synth_rejects_two_outputs_that_name_one_file(tmp_path, monkeypatch, capsys, truth):
    monkeypatch.chdir(tmp_path)
    Path("synth.json").write_text(json.dumps(SYNTH_CONFIG))
    Path("x.tsv").write_bytes(b"prior bytes\n")
    args = ["synth", "--config", "synth.json", "--seed", "1", "--out-corpus", "x.tsv"]
    assert run_cli(args + ["--out-truth", truth, "--out-taxonomy", "taxonomy.tsv"]) == 2
    assert capsys.readouterr().err == (
        "error:usage:--out-corpus, --out-truth and --out-taxonomy must name different files\n"
    )
    assert Path("x.tsv").read_bytes() == b"prior bytes\n"
    assert sorted(os.listdir()) == ["synth.json", "x.tsv"]


@pytest.mark.parametrize("spelling", ["", "./"])
@pytest.mark.parametrize("flag", ["--out-corpus", "--out-truth", "--out-taxonomy"])
def test_synth_rejects_an_output_that_names_its_config(
    tmp_path, monkeypatch, capsys, flag, spelling
):
    monkeypatch.chdir(tmp_path)
    Path("synth.json").write_text(json.dumps(SYNTH_CONFIG))
    outputs = {"--out-corpus": "c.tsv", "--out-truth": "t.tsv", "--out-taxonomy": "x.tsv"}
    outputs[flag] = spelling + "synth.json"
    prior = _snapshot(tmp_path)
    args = ["synth", "--config", "synth.json", "--seed", "1"]
    assert run_cli(args + [x for pair in outputs.items() for x in pair]) == 2
    assert capsys.readouterr().err == f"error:usage:{flag} would overwrite the input --config\n"
    assert _snapshot(tmp_path) == prior


def _snapshot(directory: Path) -> dict[str, bytes | None]:
    """Every path under ``directory`` with its bytes (``None`` for a directory)."""
    return {
        str(p.relative_to(directory)): None if p.is_dir() else p.read_bytes()
        for p in sorted(directory.rglob("*"))
    }


@pytest.mark.parametrize("spelling", ["", "./"])
@pytest.mark.parametrize(
    "command, flag, named",
    [
        ("classify", "--out", "--corpus"),
        ("classify", "--out", "--taxonomy"),
        ("indicators", "--out-dir", "--assignments"),
        ("indicators", "--out-dir", "--corpus"),
        ("report", "--out-dir", "--in-dir"),
    ],
)
def test_an_output_that_names_an_input_is_a_usage_error(
    tmp_path, monkeypatch, capsys, spelling, command, flag, named
):
    monkeypatch.chdir(tmp_path)
    Path("corpus.tsv").write_text(TOY_CORPUS_TEXT)
    Path("taxonomy.tsv").write_text(TOY_TAXONOMY_TEXT)
    common = ["--corpus", "corpus.tsv", "--taxonomy", "taxonomy.tsv"]
    assert run_cli(["classify", *common, "--out", "assignments.tsv"]) == 0
    tables = ["--if-years", "2008:2008", "--journals", "JG", "--out-dir", spelling + "tables"]
    assert run_cli(["indicators", *common, "--assignments", "assignments.tsv", *tables]) == 0
    if command == "classify":
        args = ["classify", *common, "--out", spelling + named.lstrip("-") + ".tsv"]
    elif command == "report":
        args = ["report", "--in-dir", "tables", "--out-dir", spelling + "tables"]
    else:
        # The input is a table, or the manifest, that the directory would hold.
        inputs = {"--corpus": "corpus.tsv", "--assignments": "assignments.tsv"}
        inputs[named] = "tables/manifest.tsv" if named == "--corpus" else "tables/summary.tsv"
        flags = [x for pair in inputs.items() for x in pair]
        args = ["indicators", "--taxonomy", "taxonomy.tsv", *flags, *tables]
    prior = _snapshot(tmp_path)
    assert run_cli(args) == 2
    assert capsys.readouterr().err == f"error:usage:{flag} would overwrite the input {named}\n"
    assert _snapshot(tmp_path) == prior


def test_an_interrupt_is_one_error_line(toy_files, tmp_path, monkeypatch, capsys):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr("refclass.cli.read_corpus", interrupted)
    corpus, taxonomy = toy_files
    out = tmp_path / "assignments.tsv"
    args = ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--out", str(out)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == "error:interrupt:interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "taxonomy.tsv"]


@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_an_output_that_is_not_a_regular_file_is_refused(toy_files, tmp_path, capsys, kind):
    corpus, taxonomy = toy_files
    real = tmp_path / "real.tsv"
    real.write_bytes(b"prior bytes\n")
    out = tmp_path / "out.tsv"
    if kind == "symlink":
        out.symlink_to(real)
    else:
        os.mkfifo(out)  # never opened: a reader or writer would block
    args = ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy), "--out", str(out)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err == f"error:io:[Errno 17] exists and is not a regular file: '{out}'\n"
    mode = os.lstat(out).st_mode
    assert stat.S_ISLNK(mode) if kind == "symlink" else stat.S_ISFIFO(mode)
    assert real.read_bytes() == b"prior bytes\n"
    expected = ["corpus.tsv", "out.tsv", "real.tsv", "taxonomy.tsv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected


def test_a_directory_output_is_refused_before_any_temp_is_written(tmp_path, monkeypatch, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    taxonomy = tmp_path / "x"
    taxonomy.mkdir()

    def no_temp(path, kind):
        raise AssertionError(f"a temp was named for {path}")

    monkeypatch.setattr(report_module, "_temp_path", no_temp)
    outs = ["--out-corpus", tmp_path / "c.tsv", "--out-truth", tmp_path / "t.tsv"]
    args = ["synth", "--config", config, "--seed", "1", *outs, "--out-taxonomy", taxonomy]
    assert run_cli(list(map(str, args))) == 1
    assert capsys.readouterr().err == f"error:io:[Errno 21] Is a directory: '{taxonomy}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json", "x"]
    assert not any(taxonomy.iterdir())


def _synth(tmp_path, name: str = "synth") -> tuple:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    paths = tuple(tmp_path / f"{name}-{n}.tsv" for n in ("corpus", "truth", "taxonomy"))
    args = ["--out-corpus", "--out-truth", "--out-taxonomy"]
    flags = [x for pair in zip(args, map(str, paths)) for x in pair]
    assert run_cli(["synth", "--config", str(config), "--seed", "7", *flags]) == 0
    return paths


def test_classify_and_indicators_build_no_article_records(tmp_path, monkeypatch):
    from refclass.corpus import ArticleRecord

    corpus, _truth, taxonomy = _synth(tmp_path)

    def refuse(self):
        raise AssertionError("an ArticleRecord was built")

    monkeypatch.setattr(ArticleRecord, "__post_init__", refuse)
    assignments = tmp_path / "assignments.tsv"
    common = ["--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    assert run_cli(["classify", *common, "--out", str(assignments)]) == 0
    indicators = [
        "indicators",
        *common,
        "--assignments",
        str(assignments),
        "--if-years=2001:2003",
        "--pub-years=2000:2003",
        "--journals=JG00,JF00S00",
        "--out-dir",
        str(tmp_path / "tables"),
    ]
    assert run_cli(indicators) == 0


def test_classify_and_indicators_build_no_assignment_records(tmp_path, monkeypatch):
    from refclass.classifier import Assignment, VoteTally

    corpus, _truth, taxonomy = _synth(tmp_path)
    built = []
    for cls in (Assignment, VoteTally):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assignments = tmp_path / "assignments.tsv"
    common = ["--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    assert run_cli(["classify", *common, "--out", str(assignments)]) == 0
    indicators = [
        "indicators",
        *common,
        "--assignments",
        str(assignments),
        "--if-years=2001:2003",
        "--pub-years=2000:2003",
        "--journals=JG00,JF00S00",
        "--out-dir",
        str(tmp_path / "tables"),
    ]
    assert run_cli(indicators) == 0
    assert built == []


def test_synth_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "frobnicate": 1}))
    code = run_cli(
        [
            "synth",
            "--config",
            str(config),
            "--seed",
            "1",
            "--out-corpus",
            str(tmp_path / "c.tsv"),
            "--out-truth",
            str(tmp_path / "t.tsv"),
            "--out-taxonomy",
            str(tmp_path / "x.tsv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:config:")


def test_indicators_and_report_stages(toy_files, tmp_path, capsys):
    corpus, taxonomy = toy_files
    assignments = tmp_path / "assignments.tsv"
    assert (
        run_cli(
            [
                "classify",
                "--corpus",
                str(corpus),
                "--taxonomy",
                str(taxonomy),
                "--out",
                str(assignments),
            ]
        )
        == 0
    )
    ind_dir = tmp_path / "ind"
    code = run_cli(
        [
            "indicators",
            "--corpus",
            str(corpus),
            "--taxonomy",
            str(taxonomy),
            "--assignments",
            str(assignments),
            "--kappa",
            "1.0",
            "--if-years",
            "2008:2008",
            "--pub-years",
            "2005:2015",
            "--journals",
            "JG",
            "--out-dir",
            str(ind_dir),
        ]
    )
    assert code == 0
    for name in TABLE_FILES + (MANIFEST_FILE,):
        assert (ind_dir / name).is_file()
    manifest = (ind_dir / MANIFEST_FILE).read_text()
    assert "command\tindicators" in manifest
    assert "config.kappa\t1.000000" in manifest

    rep_dir = tmp_path / "rep"
    code = run_cli(["report", "--in-dir", str(ind_dir), "--out-dir", str(rep_dir)])
    assert code == 0
    for name in TABLE_FILES:
        assert (rep_dir / name).read_bytes() == (ind_dir / name).read_bytes()
    assert "command\treport" in (rep_dir / MANIFEST_FILE).read_text()


# The ``open`` benchmark workload at 40 articles per journal and year, and
# records appended to its corpus: a tie, an article without references, one
# with a reference that leaves the corpus, a journal whose impact value is
# undefined in 2002 and 2003, and one whose impact value is never defined.
PINNED_SYNTH = {
    "num_fields": 10,
    "journals_per_field": 1,
    "num_general_journals": 40,
    "articles_per_journal_year": 40,
    "year_range": [2000, 2004],
    "mean_refs": 20.0,
    "p_intra": 0.8,
    "field_citation_rate": 0.5,
    "general_field_mix": [0.1] * 10,
}
PINNED_APPENDIX = """\
A\tX0000001\tJG00\t2003\tarticle\tA0000000,A0000200
A\tX0000002\tJG00\t2003\tarticle\t
A\tX0000003\tJG01\t2004\treview\tA0000400,NOSUCH01
J\tJX00\tLate Journal\tfield-03
A\tX0000004\tJX00\t2003\tarticle\tA0000600
J\tJX01\tNew Journal\tfield-03
A\tX0000005\tJX01\t2004\tarticle\tX0000004
"""
PINNED_DIGESTS = {
    "assignments.tsv": "a45dc2e8568fa797569d4c934d969802b005723eca019405c74da37387c95af7",
    "corpus.tsv": "a5c1a1de91bae8ea2c11c7571a3e7ea498846cbcf62153b295ad23772116f984",
    "indicators/composition.tsv": "56b96b7e58e50222770bdde8b2e9fc97119bc244e48966390c9649c296622828",
    "indicators/field_if.tsv": "8eb79112ade2e8b97dd2233dc4c24c3a1a04bb0d1ea85b43683f1c2f844947e7",
    "indicators/manifest.tsv": "db191fe407b18725cf4e809f3b24e787ed51eda5245723db883cd3af1df3e68b",
    "indicators/prestige.tsv": "c30107897aed401d6c78e87404635c654eda7b4279e30c5ab6dc4e25de80445e",
    "indicators/ranking.tsv": "c13133885cc5f6e134a8e4307ffb7fe39f9e89dee6a60038bcade7e69073194f",
    "indicators/representation.tsv": "b64eff423364a286fa154207c19f552f97652123ce8eab22d11891d4ccd98363",
    "indicators/summary.tsv": "f20a5282c997a0be2226356eecbf31203b6be1361b979f4b0e573cab6307ac94",
    "report/composition.tsv": "56b96b7e58e50222770bdde8b2e9fc97119bc244e48966390c9649c296622828",
    "report/field_if.tsv": "8eb79112ade2e8b97dd2233dc4c24c3a1a04bb0d1ea85b43683f1c2f844947e7",
    "report/manifest.tsv": "85887a0435d5b858c50b86bdde45d5045db99ae1489f51ef0c90b2da38ccd1a7",
    "report/prestige.tsv": "c30107897aed401d6c78e87404635c654eda7b4279e30c5ab6dc4e25de80445e",
    "report/ranking.tsv": "c13133885cc5f6e134a8e4307ffb7fe39f9e89dee6a60038bcade7e69073194f",
    "report/representation.tsv": "b64eff423364a286fa154207c19f552f97652123ce8eab22d11891d4ccd98363",
    "report/summary.tsv": "f20a5282c997a0be2226356eecbf31203b6be1361b979f4b0e573cab6307ac94",
    "taxonomy.tsv": "6c4de699a14f3112d4d86254c76f681a8231df004553c311b6006b17e4b681e7",
    "truth.tsv": "276d99dfc57ce0e81ab45555fcb0b324697a86cd1c22d4fa395a0ea25840c28f",
}


def _pipeline_digests(out: Path) -> dict[str, str]:
    out.mkdir()
    config = out / "synth.json"
    config.write_text(json.dumps(PINNED_SYNTH))
    corpus, taxonomy = out / "corpus.tsv", out / "taxonomy.tsv"
    assignments, tables = out / "assignments.tsv", out / "indicators"
    inputs = ["--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    synth = ["synth", "--config", str(config), "--seed", "20250810", "--out-corpus", str(corpus)]
    synth += ["--out-truth", str(out / "truth.tsv"), "--out-taxonomy", str(taxonomy)]
    assert run_cli(synth) == 0
    with corpus.open("a") as fh:
        fh.write(PINNED_APPENDIX)
    assert run_cli(["classify", *inputs, "--out", str(assignments)]) == 0
    assert run_cli(
        ["indicators", *inputs, "--assignments", str(assignments), "--out-dir", str(tables)]
        + ["--if-years", "2002:2004", "--pub-years", "2000:2004"]
        + ["--journals", "JG00,JG01,JF03S00,JX00,JX01"]
    ) == 0
    assert run_cli(["report", "--in-dir", str(tables), "--out-dir", str(out / "report")]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path != config
    }


def test_every_output_byte_of_the_pipeline_is_pinned(forks, monkeypatch, tmp_path):
    """synth, classify, indicators and report through ``run_cli``; every file's sha256.

    Recorded at commit 93a2061 with Python 3.11.7 and numpy 2.4.6; numpy 1.22
    was not run when they were recorded. The corpus is a file of 10,057
    lines, past the fork threshold, so each read of it forks under a two-CPU
    affinity mask and stays in one process under a one-CPU mask; both give
    these bytes. ``assignments.tsv`` holds every status, and the tables hold
    skipped years and undefined cells.
    """
    monkeypatch.setattr(corpus_module, "_FORK_BYTES", FORK_BYTES)
    assert _pipeline_digests(tmp_path / "two") == PINNED_DIGESTS
    assert (tmp_path / "two" / "corpus.tsv").stat().st_size >= FORK_BYTES
    assert len(forks) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pipeline_digests(tmp_path / "one") == PINNED_DIGESTS
    assert len(forks) == 4
    statuses = {line.split("\t")[3] for line in (tmp_path / "one" / "assignments.tsv").open()}
    assert statuses >= set(STATUSES)


# The smoke corpus: 52 journals x 32 articles x 5 years = 8,320 articles.
SMOKE_SYNTH = {
    **PINNED_SYNTH,
    "journals_per_field": 5,
    "num_general_journals": 2,
    "articles_per_journal_year": 32,
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    """A directory holding the smoke corpus, synthesized with seed 7 (1.79 MB,
    past the fork threshold), as ``corpus.tsv``; the same file with its
    article rows reversed as ``reversed-corpus.tsv``; ``taxonomy.tsv``; and
    the corpus's ``assignments.tsv``."""
    inputs = tmp_path_factory.mktemp("smoke")
    config, corpus = inputs / "synth.json", inputs / "corpus.tsv"
    taxonomy = inputs / "taxonomy.tsv"
    config.write_text(json.dumps(SMOKE_SYNTH))
    synth = ["synth", "--config", str(config), "--seed", "7", "--out-corpus", str(corpus)]
    synth += ["--out-truth", str(inputs / "truth.tsv"), "--out-taxonomy", str(taxonomy)]
    assert run_cli(synth) == 0
    assert corpus.stat().st_size >= FORK_BYTES
    lines = corpus.read_text().splitlines(keepends=True)
    journal_rows = [ln for ln in lines if ln.startswith("J")]
    article_rows = [ln for ln in lines if ln.startswith("A")]
    (inputs / "reversed-corpus.tsv").write_text("".join(journal_rows + article_rows[::-1]))
    classify = ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    assert run_cli(classify + ["--out", str(inputs / "assignments.tsv")]) == 0
    return inputs


def _refclass(args: list[str], cwd: Path, cpus: set[int] | None = None) -> tuple[int, str]:
    """Run ``python -m refclass`` with ``args``, under the affinity mask
    ``cpus`` if given (as ``taskset -c`` sets it); returns the exit code and
    what it printed on stderr."""
    src = str(Path(refclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "refclass", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    return proc.returncode, proc.stderr


def _smoke_outputs(inputs: Path, out: Path, cpus: set[int] | None) -> dict[str, bytes]:
    """Every file, by name, that classify (of ``corpus.tsv`` and of
    ``reversed-corpus.tsv`` in ``inputs``) and indicators (with the harness
    knobs, also on the assignment rows reversed, and with the widest knobs)
    write into ``out``."""
    out.mkdir()
    corpus, reversed_corpus = inputs / "corpus.tsv", inputs / "reversed-corpus.tsv"
    taxonomy = inputs / "taxonomy.tsv"
    journals = ",".join(ln.split("\t")[1] for ln in corpus.open() if ln.startswith("J\t"))
    for name, path in (("assignments.tsv", corpus), ("reversed.tsv", reversed_corpus)):
        classify = ["classify", "--corpus", str(path), "--taxonomy", str(taxonomy)]
        assert _refclass(classify + ["--out", str(out / name)], out, cpus) == (0, "")
    rows = (out / "assignments.tsv").read_text().splitlines(keepends=True)
    (out / "reversed-rows.tsv").write_text("".join(rows[::-1]))
    harness = ["--if-years", "2002:2004", "--pub-years", "2000:2004"]
    harness += ["--journals", "JF00S00,JF05S02,JG00"]
    widest = ["--if-years", "1900:2100", "--pub-years", "1900:2100", "--window", "200"]
    widest += ["--journals", journals]
    for name, assignments, knobs in (
        ("tables", "assignments.tsv", harness),
        ("tables-reversed", "reversed-rows.tsv", harness),
        ("wide", "assignments.tsv", widest),
    ):
        indicators = ["indicators", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]
        indicators += ["--assignments", str(out / assignments), *knobs]
        assert _refclass(indicators + ["--out-dir", str(out / name)], out, cpus) == (0, "")
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_reads_in_one_process_and_in_two_write_the_same_files(smoke, tmp_path):
    """``python -m refclass`` on the 8,320-article smoke corpus, past the fork
    threshold: under the default affinity mask each corpus read forks two
    workers where the host has two CPUs, and under a one-CPU mask it stays in
    one process. classify of the corpus and of its article rows reversed,
    and indicators with the harness knobs and with the widest ones, write
    the same bytes either way; the reversed corpus classifies the same, and
    the assignment rows reversed write the same tables (only the manifest's
    digest of the assignments file differs)."""
    default = _smoke_outputs(smoke, tmp_path / "default", None)
    assert default["assignments.tsv"].count(b"\n") == 8320
    assert default["reversed.tsv"] == default["assignments.tsv"]
    tables, reordered = (
        {name.split("/")[1]: data for name, data in default.items() if name.split("/")[0] == d}
        for d in ("tables", "tables-reversed")
    )
    assert tables.keys() == reordered.keys() == set(TABLE_FILES + (MANIFEST_FILE,))
    assert {name for name in tables if tables[name] != reordered[name]} == {MANIFEST_FILE}
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("one CPU: the default reads already stay in one process")
    assert _smoke_outputs(smoke, tmp_path / "one", {cpus[0]}) == default


@pytest.mark.parametrize(
    "fault, command, expected",
    [
        pytest.param(
            "bad-year",
            "indicators",
            "error:parse:non-integer year, line 53, token '20x0'\n",
            id="bad-year",
        ),
        pytest.param(
            "repeated-last-article",
            "classify",
            "error:validation:duplicate article id, token 'A0008319'\n",
            id="repeated-last-article",
        ),
        pytest.param(
            "hash-id",
            "classify",
            "error:parse:article id has a leading '#', line 53, token '#A0000000'\n",
            id="hash-id",
        ),
    ],
)
def test_reads_in_one_process_and_in_two_print_the_same_error(
    smoke, tmp_path, fault, command, expected
):
    """A fault in the smoke corpus, past the fork threshold: ``python -m
    refclass`` prints one error line, exits 1 and writes no output, under the
    default affinity mask and under a one-CPU mask. The faults: the first
    article row's year is not an integer, the last article row is repeated
    after itself, or the first article id is led by ``#`` (its assignment
    line would read as a comment)."""
    lines = (smoke / "corpus.tsv").read_text().splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("A\t"))
    fields = lines[first].split("\t")
    if fault == "bad-year":
        fields[3] = "20x0"
    elif fault == "hash-id":
        fields[1] = "#" + fields[1]
    else:
        lines.append(lines[-1])
    lines[first] = "\t".join(fields)
    corpus, out = tmp_path / "corpus.tsv", tmp_path / "out"
    corpus.write_text("".join(lines))
    assert corpus.stat().st_size >= FORK_BYTES
    args = [command, "--corpus", str(corpus), "--taxonomy", str(smoke / "taxonomy.tsv")]
    if command == "classify":
        args += ["--out", str(out)]
    else:
        args += ["--assignments", str(smoke / "assignments.tsv")]
        args += ["--if-years", "2002:2004", "--pub-years", "2000:2004"]
        args += ["--journals", "JF00S00,JF05S02,JG00", "--out-dir", str(out)]
    one_cpu = [{min(os.sched_getaffinity(0))}] if hasattr(os, "sched_getaffinity") else []
    for cpus in [None, *one_cpu]:
        assert _refclass(args, tmp_path, cpus) == (1, expected), cpus
        assert not out.exists()


def _classify_toy(corpus, taxonomy, tmp_path):
    assignments = tmp_path / "assignments.tsv"
    args = ["classify", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    assert run_cli(args + ["--out", str(assignments)]) == 0
    return assignments


def _indicators_args(corpus, taxonomy, assignments, out_dir):
    return [
        "indicators",
        "--corpus",
        str(corpus),
        "--taxonomy",
        str(taxonomy),
        "--assignments",
        str(assignments),
        "--if-years",
        "2008:2008",
        "--journals",
        "JG",
        "--out-dir",
        str(out_dir),
    ]


@pytest.mark.parametrize("kappa", ["inf", "nan", "-inf"])
def test_indicators_rejects_non_finite_kappa(toy_files, tmp_path, capsys, kappa):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    code = run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir) + [f"--kappa={kappa}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_indicators_rejects_a_kappa_that_overflows_an_impact_value(toy_files, tmp_path, capsys):
    # all-sources values 2/3 and 4/5 in 2007 and 2008: their sum overflows
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    args = _indicators_args(corpus, taxonomy, assignments, out_dir)
    assert run_cli(args + ["--if-years=2007:2008", "--kappa=1.5e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:kappa=")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("token", ["COMBINED", "ALL_SOURCES"])
def test_indicators_rejects_a_journal_named_like_a_scope_token(tmp_path, capsys, token):
    corpus, taxonomy = tmp_path / "corpus.tsv", tmp_path / "taxonomy.tsv"
    corpus.write_text(TOY_CORPUS_TEXT.replace("JG", token))
    taxonomy.write_text(TOY_TAXONOMY_TEXT)
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    args = _indicators_args(corpus, taxonomy, assignments, out_dir)
    args[args.index("JG")] = f"{token},JA"
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:journals ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "classify", "indicators-JG", "indicators-JA"])
def test_every_command_rejects_a_journal_category_missing_from_the_taxonomy(
    tmp_path, capsys, command
):
    # The shipped toy corpus with JA filed under a category the taxonomy
    # lacks; the assignments come from the unchanged corpus.
    taxonomy = DATA / "taxonomy_small.tsv"
    assignments = _classify_toy(DATA / "corpus_toy.tsv", taxonomy, tmp_path)
    text = (DATA / "corpus_toy.tsv").read_text(encoding="utf-8")
    row = "J\tJA\tAstronomy Letters\tAstronomy & Astrophysics\n"
    assert row in text
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(text.replace(row, "J\tJA\tAstronomy Letters\tNonexistent Category\n"))
    out = tmp_path / "out"
    args = [command.split("-")[0], "--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    if command == "classify":
        args.append(f"--out={out}")
    elif command != "validate":
        args += [f"--assignments={assignments}", "--if-years=2007:2008", "--pub-years=2005:2008"]
        args += [f"--journals={command.split('-')[1]}", f"--out-dir={out}"]
    capsys.readouterr()
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error:validation:journals reference unknown categories: JA:Nonexistent Category\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "classify", "indicators"])
def test_every_command_rejects_a_journal_id_led_by_hash(tmp_path, capsys, command):
    # Its rows in summary.tsv and the other tables would read back as comments.
    taxonomy = DATA / "taxonomy_small.tsv"
    assignments = _classify_toy(DATA / "corpus_toy.tsv", taxonomy, tmp_path)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text((DATA / "corpus_toy.tsv").read_text().replace("\tJG\t", "\t#JG\t"))
    out = tmp_path / "out"
    args = [command, "--corpus", str(corpus), "--taxonomy", str(taxonomy)]
    if command == "classify":
        args.append(f"--out={out}")
    elif command == "indicators":
        args += [f"--assignments={assignments}", "--if-years=2007:2008", "--pub-years=2005:2008"]
        args += ["--journals=#JG", f"--out-dir={out}"]
    capsys.readouterr()
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error:parse:journal id has a leading '#', token '#JG', line 6, token '#JG'\n"
    assert not out.exists()


def _toy_inputs(tmp_path) -> dict[str, Path]:
    """The shipped toy corpus and taxonomy and their assignments, by flag."""
    corpus, taxonomy = DATA / "corpus_toy.tsv", DATA / "taxonomy_small.tsv"
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    return {"--corpus": corpus, "--taxonomy": taxonomy, "--assignments": assignments}


def _toy_indicators(inputs: dict, out_dir: Path) -> int:
    args = [f"{flag}={path}" for flag, path in inputs.items()]
    args += ["--if-years=2007:2008", "--pub-years=2005:2008", "--journals=JG"]
    return run_cli(["indicators", *args, f"--out-dir={out_dir}"])


def test_indicators_opens_each_input_once(tmp_path, opened):
    """The manifest's digests come from the read that parsed each input."""
    inputs = _toy_inputs(tmp_path)
    opened.clear()
    assert _toy_indicators(inputs, tmp_path / "out") == 0
    log = list(opened)
    assert [log.count(str(path)) for path in inputs.values()] == [1, 1, 1]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_indicators_writes_the_same_manifest_for_pipes_as_for_files(tmp_path):
    """A pipe is read once, so a second read would hash nothing."""
    inputs = _toy_inputs(tmp_path)
    assert _toy_indicators(inputs, tmp_path / "files") == 0
    pipes = {}
    try:
        for flag, path in inputs.items():
            data = path.read_bytes()
            assert len(data) < 4096  # fits in the pipe, so the write does not block
            r, w = os.pipe()
            pipes[flag] = r
            os.write(w, data)
            os.close(w)
        assert _toy_indicators({f: f"/dev/fd/{r}" for f, r in pipes.items()}, tmp_path / "pipes") == 0
    finally:
        for r in pipes.values():
            os.close(r)
    for name in TABLE_FILES + (MANIFEST_FILE,):
        assert (tmp_path / "pipes" / name).read_bytes() == (tmp_path / "files" / name).read_bytes()


def test_report_records_the_digest_of_each_file_as_it_is_on_disk(tmp_path):
    """Tables with CRLF line ends decode like LF ones, yet each is recorded
    under the digest of its own bytes."""
    assert _toy_indicators(_toy_inputs(tmp_path), tmp_path / "lf") == 0
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for path in (tmp_path / "lf").iterdir():
        (crlf / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run_cli(["report", f"--in-dir={crlf}", f"--out-dir={tmp_path / 'out'}"]) == 0
    lines = (tmp_path / "out" / MANIFEST_FILE).read_text().splitlines()
    recorded = dict(line.split("\t") for line in lines if line.startswith("input."))
    assert recorded == {
        f"input.{name}.sha256": hashlib.sha256((crlf / name).read_bytes()).hexdigest()
        for name in TABLE_FILES + (MANIFEST_FILE,)
    }
    for name in TABLE_FILES:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()


@pytest.mark.parametrize("kappa", ["1e-320", "4e-7", "5e-7"])
def test_indicators_rejects_a_kappa_the_tables_write_as_zero(toy_files, tmp_path, capsys, kappa):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    code = run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir) + [f"--kappa={kappa}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:kappa=")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_indicators_accepts_the_least_kappa_the_tables_write_as_nonzero(
    toy_files, tmp_path, capsys
):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    out_dir = tmp_path / "ind"
    kappa = math.nextafter(5e-7, 1)
    code = run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir) + [f"--kappa={kappa!r}"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert " kappa=0.000001 " in (out_dir / "summary.tsv").read_text().splitlines()[0]


@pytest.mark.parametrize(
    "flag",
    [
        "--if-years=2001:99999999999",
        "--window=99999999999",
        "--pub-years=1:99999999",
        "--window=0",
        "--if-years=1899:2008",
    ],
)
def test_indicators_rejects_out_of_bounds_years_and_window(toy_files, tmp_path, capsys, flag):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    assert run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir) + [flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "target, row, expected",
    [
        (
            "P1",
            "ZZZ_NOT_IN_CORPUS\tAstronomy & Astrophysics\tAstronomy\tjournal-seeded\t0\t0",
            "validation:assignments name 1 article(s) not in the corpus, token 'ZZZ_NOT_IN_CORPUS'",
        ),
        (
            "P1",
            "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
            "validation:assignment of 'P1' names a category missing from the taxonomy, "
            "token 'No Such Category'",
        ),
        (
            "P1",
            "P1\tOncology\tAstronomy\tjournal-seeded\t0\t0",
            "validation:assignment of 'P1' files 'Oncology' under 'Astronomy'; "
            "the taxonomy says 'Medicine'",
        ),
        # The second line, C2, with its id blanked: it repeats the first line's head.
        (
            "C2",
            "\tOncology\tMedicine\tjournal-seeded\t0\t0",
            "parse:empty article id, line 2, "
            "token '\\tOncology\\tMedicine\\tjournal-seeded\\t0\\t0\\n'",
        ),
    ],
    ids=[
        "id-not-in-corpus",
        "category-not-in-taxonomy",
        "category-in-wrong-broad-area",
        "blank-id-on-a-repeated-head",
    ],
)
def test_indicators_rejects_inconsistent_assignments(
    toy_files, tmp_path, capsys, target, row, expected
):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    lines = assignments.read_text().splitlines()
    lines = [row if ln.split("\t")[0] == target else ln for ln in lines]
    assignments.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    assert run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir)) == 1
    assert capsys.readouterr().err == f"error:{expected}\n"
    assert not out_dir.exists()


def test_corpus_that_is_not_utf8_is_one_line_parse_error(tmp_path, toy_files, capsys):
    _, taxonomy = toy_files
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"J\tJ1\tX\tOncology\nA\tP1\tJ1\t2010\tarticle\t\xff\n")
    assert run_cli(["validate", "--corpus", str(bad), "--taxonomy", str(taxonomy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("bad_byte_half", ["first", "second"])
def test_a_byte_not_utf8_in_either_half_beats_a_line_fault_in_the_other(
    bad_byte_half, cpus, forks, monkeypatch, toy_files, tmp_path, capsys
):
    _, taxonomy = toy_files
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    pad = b"#\n" * 200
    fault, bad = b"J\tJ1\tX\tOncology\nA\tP1\tJ1\t2010\n", b"#\xff\n"
    halves = (bad, fault) if bad_byte_half == "first" else (fault, bad)
    corpus = tmp_path / "bad.tsv"
    corpus.write_bytes(halves[0] + pad + halves[1])
    assert run_cli(["validate", "--corpus", str(corpus), "--taxonomy", str(taxonomy)]) == 1
    err = capsys.readouterr().err
    assert err == f"error:parse:{corpus}: not valid UTF-8 (invalid start byte)\n"
    assert len(forks) == 2 * (len(cpus) - 1)


def test_assignments_that_are_not_utf8_after_a_bad_row_are_one_utf8_error(
    toy_files, tmp_path, capsys
):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    with open(assignments, "ab") as fh:
        fh.write(b"P1\tOncology\n" + b"#\n" * 10_000 + b"\xff\n")
    out_dir = tmp_path / "ind"
    assert run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir)) == 1
    err = capsys.readouterr().err
    assert err == f"error:parse:{assignments}: not valid UTF-8 (invalid start byte)\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "content",
    [b'{"num_fields": 3,', b"\xff{}", json.dumps(SYNTH_CONFIG)[:-1].encode() + b', "mean_refs": 9.0}'],
    ids=["truncated", "not-utf8", "repeated-key"],
)
def test_synth_config_that_is_not_json_is_one_line_config_error(tmp_path, capsys, content):
    config = tmp_path / "synth.json"
    config.write_bytes(content)
    code = run_cli(
        [
            "synth",
            "--config",
            str(config),
            "--seed",
            "1",
            "--out-corpus",
            str(tmp_path / "c.tsv"),
            "--out-truth",
            str(tmp_path / "t.tsv"),
            "--out-taxonomy",
            str(tmp_path / "x.tsv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param(
            {"journals_per_field": 2.5},
            "journals_per_field must be an integer >= 1",
            id="float-count",
        ),
        pytest.param(
            {"num_general_journals": "1"},
            "num_general_journals must be an integer >= 0",
            id="string-count",
        ),
        pytest.param(
            {"articles_per_journal_year": True},
            "articles_per_journal_year must be an integer >= 1",
            id="bool-count",
        ),
        pytest.param(
            {"year_range": 2000}, "year_range must be a pair of integers", id="scalar-year-range"
        ),
        pytest.param(
            {"year_range": [2000.5, 2001]}, "year_range must be a pair of integers", id="float-year"
        ),
        pytest.param(
            {"year_range": [2000, 2001, 2002]},
            "year_range must be a pair of integers",
            id="three-years",
        ),
        pytest.param(
            {"field_citation_rate": {"0": 1.0, "1": 1.5, "2": 2.0}},
            "field_citation_rate must be a number or a list, not a mapping",
            id="rate-object",
        ),
        pytest.param(
            {"mean_refs": True},
            "mean_refs must be positive and below 2**31 / 105 articles",
            id="bool-mean-refs",
        ),
        pytest.param(
            {"mean_refs": float("inf")},
            "mean_refs must be positive and below 2**31 / 105 articles",
            id="infinite-mean-refs",
        ),
        pytest.param(
            {"mean_refs": 1e30},
            "mean_refs must be positive and below 2**31 / 105 articles",
            id="huge-mean-refs",
        ),
        pytest.param(
            {"field_citation_rate": float("inf")},
            "field_citation_rate must be positive and below 2**31 / 420",
            id="infinite-citation-rate",
        ),
        pytest.param(
            {"field_citation_rate": 1e19},
            "field_citation_rate must be positive and below 2**31 / 420",
            id="huge-citation-rate",
        ),
        pytest.param(
            {"general_field_mix": [float("nan"), 0.5, 0.5]},
            "general_field_mix entries must be numbers in [0, 1]",
            id="nan-field-mix",
        ),
    ],
)
def test_synth_config_with_wrong_types_is_one_line_config_error(
    tmp_path, capsys, override, message
):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, **override}))
    code = run_cli(
        [
            "synth",
            "--config",
            str(config),
            "--seed",
            "1",
            "--out-corpus",
            str(tmp_path / "c.tsv"),
            "--out-truth",
            str(tmp_path / "t.tsv"),
            "--out-taxonomy",
            str(tmp_path / "x.tsv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error:config:{message}\n"
    assert os.listdir(tmp_path) == ["synth.json"]


def test_synth_config_that_sets_the_seed_is_refused(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "seed": 999}))
    outs = [tmp_path / f"{name}.tsv" for name in ("c", "t", "x")]
    flags = ["--out-corpus", outs[0], "--out-truth", outs[1], "--out-taxonomy", outs[2]]
    assert run_cli(list(map(str, ["synth", "--config", config, "--seed", "1", *flags]))) == 1
    err = capsys.readouterr().err
    assert err == "error:config:synth config must not set seed: the seed comes from --seed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"]


@pytest.mark.parametrize(
    "override, knob",
    [
        pytest.param(
            {
                "journals_per_field": 5,
                "num_general_journals": 2,
                "articles_per_journal_year": 10**12,
            },
            "articles_per_journal_year",
            id="seeded-with-10**12-articles-per-journal-year",
        ),
        pytest.param(
            {
                "num_fields": 2,
                "num_general_journals": 0,
                "articles_per_journal_year": 1,
                "year_range": [2000, 2000],
                "mean_refs": 2**62,
                "general_field_mix": [0.5, 0.5],
            },
            "mean_refs",
            id="two-articles-with-mean-refs-2**62",
        ),
    ],
)
def test_synth_config_too_large_to_generate_is_one_line_config_error(
    tmp_path, capsys, override, knob
):
    # PINNED_SYNTH is the open workload; the first override makes it the seeded one.
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**PINNED_SYNTH, **override}))
    out = [f"--out-{name}={tmp_path / name}.tsv" for name in ("corpus", "truth", "taxonomy")]
    assert run_cli(["synth", "--config", str(config), "--seed", "1", *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:config:{knob} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "corpus.tsv").exists()


def test_running_out_of_memory_is_one_line(tmp_path):
    # The seeded workload at 20,000 articles per journal-year (5.2M articles,
    # within every config bound) cannot be generated in 400 MB of address
    # space. One BLAS thread keeps numpy's own start-up well below that.
    resource = pytest.importorskip("resource")
    limit = 400 * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    seeded = {"journals_per_field": 5, "num_general_journals": 2}
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**PINNED_SYNTH, **seeded, "articles_per_journal_year": 20000}))
    src = str(Path(refclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    out = [f"--out-{name}={tmp_path / name}.tsv" for name in ("corpus", "truth", "taxonomy")]
    proc = subprocess.run(
        [sys.executable, "-m", "refclass", "synth", "--config", str(config), "--seed", "1", *out],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error:memory:out of memory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["synth.json"]


def test_report_table_that_is_not_utf8_is_one_line_parse_error(toy_files, tmp_path, capsys):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    in_dir = tmp_path / "ind"
    assert run_cli(_indicators_args(corpus, taxonomy, assignments, in_dir)) == 0
    with open(in_dir / "summary.tsv", "ab") as fh:
        fh.write(b"\xff\n")
    out_dir = tmp_path / "out"
    assert run_cli(["report", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_report_round_trips_a_journal_id_that_splitlines_would_split(toy_files, tmp_path, char):
    corpus, taxonomy = toy_files
    journal_id = f"J{char}G"
    corpus.write_text(TOY_CORPUS_TEXT.replace("JG", journal_id), encoding="utf-8")
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    in_dir, out_dir = tmp_path / "ind", tmp_path / "out"
    args = _indicators_args(corpus, taxonomy, assignments, in_dir)
    args[args.index("JG")] = journal_id
    assert run_cli(args) == 0
    assert journal_id in (in_dir / "summary.tsv").read_text(encoding="utf-8")
    assert run_cli(["report", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]) == 0
    for name in TABLE_FILES:
        assert (out_dir / name).read_bytes() == (in_dir / name).read_bytes()


def test_report_rejects_missing_or_corrupt_tables(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    code = run_cli(["report", "--in-dir", str(in_dir), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:validation:")


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["refclass", "refclass.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    src = str(Path(refclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    args = ["validate", "--corpus", "missing", "--taxonomy", "missing"]
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:io:")
    assert proc.stderr.count("\n") == 1


def test_indicators_does_not_import_numpy_ma(toy_files, tmp_path):
    """Importing ``numpy.ma`` costs a fresh process 11-18 ms; no command needs it."""
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    args = _indicators_args(corpus, taxonomy, assignments, tmp_path / "tables")
    script = (
        "import sys\n"
        "from refclass.cli import run_cli\n"
        f"assert run_cli({args!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(refclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
    assert (tmp_path / "tables" / "summary.tsv").is_file()


def test_every_public_name_resolves():
    missing = [name for name in refclass.__all__ if not hasattr(refclass, name)]
    assert missing == []


# assignment rows checked against the toy corpus and taxonomy -> the error
# they raise: (message, token), the one the CLI prints. A table's rows are
# the corpus's, so the first inconsistent row in corpus order wins whatever
# the file order.
INCONSISTENT_ASSIGNMENTS = {
    "astronomy-filed-under-medicine": (
        ["P1\tAstronomy & Astrophysics\tMedicine\tjournal-seeded\t0\t0"],
        (
            "assignment of 'P1' files 'Astronomy & Astrophysics' under 'Medicine'; "
            "the taxonomy says 'Astronomy'",
            None,
        ),
    ),
    "stranger-before-bad-category": (
        [
            "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
            "ZZ\t\t\tunclassified\t0\t0",
            "AA\t\t\tunclassified\t0\t0",
        ],
        ("assignments name 2 article(s) not in the corpus", "AA"),
    ),
    "missing-category-first-in-corpus-order": (
        [
            "P3\tOncology\tAstronomy\tjournal-seeded\t0\t0",
            "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
        ],
        ("assignment of 'P1' names a category missing from the taxonomy", "No Such Category"),
    ),
    "wrong-area-first-in-corpus-order": (
        [
            "P3\tNo Such Category\tMedicine\tjournal-seeded\t0\t0",
            "P1\tOncology\tAstronomy\tjournal-seeded\t0\t0",
        ],
        (
            "assignment of 'P1' files 'Oncology' under 'Astronomy'; the taxonomy says 'Medicine'",
            None,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT_ASSIGNMENTS))
def test_check_assignments_raises_the_first_inconsistency(name):
    rows, (message, token) = INCONSISTENT_ASSIGNMENTS[name]
    taxonomy = load_taxonomy(TOY_TAXONOMY_TEXT.splitlines(keepends=True))
    corpus = read_corpus(TOY_CORPUS_TEXT.splitlines(keepends=True))
    with pytest.raises(ValidationError) as exc:
        table = read_assignments([row + "\n" for row in rows], corpus)
        build_report_tables(corpus, table, taxonomy, ("JG",))
    assert (exc.value.line_no, exc.value.token) == (None, token)
    assert str(exc.value) == str(ValidationError(message, token=token))
