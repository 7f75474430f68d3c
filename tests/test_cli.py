"""CLI subcommands: grammar, exit codes, diagnostics, file outputs."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refclass
import refclass.corpus as corpus_module
from refclass.classifier import STATUSES, read_assignments
from refclass.cli import _check_assignments, run_cli
from refclass.corpus import read_corpus
from refclass.errors import ValidationError
from refclass.report import MANIFEST_FILE, TABLE_FILES
from refclass.taxonomy import load_taxonomy

from conftest import TOY_TAXONOMY_TEXT

FORK_LINES = corpus_module._FORK_LINES

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
    was not run when they were recorded. The corpus has 10,057 lines, so each
    read of it forks under a two-CPU affinity mask and stays in one process
    under a one-CPU mask; both give these bytes. ``assignments.tsv`` holds
    every status, and the tables hold skipped years and undefined cells.
    """
    monkeypatch.setattr(corpus_module, "_FORK_LINES", FORK_LINES)
    assert _pipeline_digests(tmp_path / "two") == PINNED_DIGESTS
    assert len(forks) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pipeline_digests(tmp_path / "one") == PINNED_DIGESTS
    assert len(forks) == 2
    statuses = {line.split("\t")[3] for line in (tmp_path / "one" / "assignments.tsv").open()}
    assert statuses >= set(STATUSES)


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
    "row",
    [
        "ZZZ_NOT_IN_CORPUS\tAstronomy & Astrophysics\tAstronomy\tjournal-seeded\t0\t0",
        "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
        "P1\tOncology\tAstronomy\tjournal-seeded\t0\t0",
    ],
    ids=["id-not-in-corpus", "category-not-in-taxonomy", "category-in-wrong-broad-area"],
)
def test_indicators_rejects_inconsistent_assignments(toy_files, tmp_path, capsys, row):
    corpus, taxonomy = toy_files
    assignments = _classify_toy(corpus, taxonomy, tmp_path)
    lines = [ln for ln in assignments.read_text().splitlines() if not ln.startswith("P1\t")]
    assignments.write_text("\n".join(sorted(lines + [row])) + "\n")
    capsys.readouterr()
    out_dir = tmp_path / "ind"
    assert run_cli(_indicators_args(corpus, taxonomy, assignments, out_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:validation:")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_corpus_that_is_not_utf8_is_one_line_parse_error(tmp_path, toy_files, capsys):
    _, taxonomy = toy_files
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"J\tJ1\tX\tOncology\nA\tP1\tJ1\t2010\tarticle\t\xff\n")
    assert run_cli(["validate", "--corpus", str(bad), "--taxonomy", str(taxonomy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", [b'{"num_fields": 3,', b"\xff{}"], ids=["truncated", "not-utf8"])
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


@pytest.mark.parametrize(
    "override",
    [
        pytest.param({"journals_per_field": 2.5}, id="float-count"),
        pytest.param({"num_general_journals": "1"}, id="string-count"),
        pytest.param({"articles_per_journal_year": True}, id="bool-count"),
        pytest.param({"year_range": 2000}, id="scalar-year-range"),
        pytest.param({"year_range": [2000.5, 2001]}, id="float-year"),
        pytest.param({"year_range": [2000, 2001, 2002]}, id="three-years"),
        pytest.param({"field_citation_rate": {"zero": 1.0}}, id="non-integer-field-key"),
        pytest.param({"field_citation_rate": {"0": True, "1": 1, "2": 1}}, id="bool-field-rate"),
        pytest.param({"field_citation_rate": {"0": "5", "1": 1, "2": 1}}, id="string-field-rate"),
        pytest.param({"mean_refs": True}, id="bool-mean-refs"),
        pytest.param({"mean_refs": float("inf")}, id="infinite-mean-refs"),
        pytest.param({"mean_refs": 1e30}, id="huge-mean-refs"),
        pytest.param({"field_citation_rate": float("inf")}, id="infinite-citation-rate"),
        pytest.param({"field_citation_rate": 1e19}, id="huge-citation-rate"),
        pytest.param({"general_field_mix": [float("nan"), 0.5, 0.5]}, id="nan-field-mix"),
    ],
)
def test_synth_config_with_wrong_types_is_one_line_config_error(tmp_path, capsys, override):
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
    err = capsys.readouterr().err
    assert err.startswith("error:config:")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.tsv").exists()


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


def test_every_public_name_resolves():
    missing = [name for name in refclass.__all__ if not hasattr(refclass, name)]
    assert missing == []


# assignment rows checked against the toy corpus and taxonomy -> the error
# the parent raised: (message, token)
INCONSISTENT_ASSIGNMENTS = {
    "stranger-before-bad-category": (
        [
            "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
            "ZZ\t\t\tunclassified\t0\t0",
            "AA\t\t\tunclassified\t0\t0",
        ],
        ("assignments name 2 article(s) not in the corpus", "AA"),
    ),
    "wrong-area-first-in-file": (
        [
            "P3\tOncology\tAstronomy\tjournal-seeded\t0\t0",
            "P1\tNo Such Category\tAstronomy\tjournal-seeded\t0\t0",
        ],
        (
            "assignment of 'P3' files 'Oncology' under 'Astronomy'; the taxonomy says 'Medicine'",
            None,
        ),
    ),
    "missing-category-first-in-file": (
        [
            "P3\tNo Such Category\tMedicine\tjournal-seeded\t0\t0",
            "P1\tOncology\tAstronomy\tjournal-seeded\t0\t0",
        ],
        ("assignment of 'P3' names a category missing from the taxonomy", "No Such Category"),
    ),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT_ASSIGNMENTS))
def test_check_assignments_raises_the_first_inconsistency(name):
    rows, (message, token) = INCONSISTENT_ASSIGNMENTS[name]
    taxonomy = load_taxonomy(TOY_TAXONOMY_TEXT.splitlines(keepends=True))
    corpus = read_corpus(TOY_CORPUS_TEXT.splitlines(keepends=True))
    with pytest.raises(ValidationError) as exc:
        _check_assignments(read_assignments([row + "\n" for row in rows]), corpus, taxonomy)
    assert (exc.value.line_no, exc.value.token) == (None, token)
    assert str(exc.value) == str(ValidationError(message, token=token))
