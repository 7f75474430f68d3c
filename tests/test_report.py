"""Table rendering rules, atomic emission, manifests."""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

import refclass.report as report_module
from refclass.classifier import classify, read_assignments
from refclass.corpus import build_corpus
from refclass.errors import ValidationError
from refclass.indicators import IndicatorConfig, PrestigeValue, count_cube
from refclass.report import (
    MANIFEST_FILE,
    TABLE_COLUMNS,
    TABLE_FILES,
    ReportTables,
    RunManifest,
    build_report_tables,
    emit_report,
    fmt_float,
    read_table_dir,
    render_tables,
    write_files_atomic,
)

from conftest import article, journal, traced_peak

ASTRO = "Astronomy & Astrophysics"
ONCO = "Oncology"
MULTI = "Multidisciplinary Sciences"


def toy_tables(toy_taxonomy):
    """One general journal drawing from two fields, plus citing filler."""
    records = [
        journal("JG", MULTI),
        journal("JA", ASTRO),
        journal("JO", ONCO),
        article("A1", "JA", 2006),
        article("A2", "JA", 2007),
        article("O1", "JO", 2006),
        article("G1", "JG", 2006, refs=("A1",)),
        article("G2", "JG", 2006, refs=("A1",)),
        article("G3", "JG", 2007, refs=("O1",)),
        *[article(f"C{i}", "JO", 2008, refs=("G1", "A2")) for i in range(3)],
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    config = IndicatorConfig(kappa=1.0, if_year_range=(2008, 2008), pub_window=(2005, 2015))
    return build_report_tables(corpus, assignments, toy_taxonomy, ("JG",), config)


def manifest_for(tables) -> RunManifest:
    return RunManifest(
        command="indicators",
        version="0.1.0",
        config={"window": str(tables.config.window), "kappa": fmt_float(tables.config.kappa)},
        inputs={"corpus": "0" * 64},
    )


def test_float_rendering_rules():
    assert fmt_float(35.3 / 2.2) == "16.045455"
    assert fmt_float(0.1) == "0.100000"
    assert fmt_float(2.0) == "2.000000"


def test_composition_rows_for_two_field_general_journal(toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    text = render_tables(tables)["composition.tsv"]
    lines = text.splitlines()
    assert lines[1] == "\t".join(TABLE_COLUMNS["composition.tsv"])
    data = lines[2:]
    # single journal in the set: COMBINED rows equal the per-journal rows
    combined = [ln for ln in data if ln.startswith("COMBINED\t")]
    assert len(combined) == 2
    shares = [float(ln.split("\t")[3]) for ln in combined]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_prestige_row_rendering(toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    crafted = ReportTables(
        config=tables.config,
        journals=tables.journals,
        summary=tables.summary,
        compositions=tables.compositions,
        representation=tables.representation,
        field_if=tables.field_if,
        prestige=(PrestigeValue("JG", "Astronomy", 35.3, 2.2, 35.3 / 2.2),),
        rankings=tables.rankings,
    )
    text = render_tables(crafted)["prestige.tsv"]
    row = [ln for ln in text.splitlines() if ln.startswith("JG\tAstronomy")][0]
    assert row.split("\t") == ["JG", "Astronomy", "35.300000", "2.200000", "16.045455"]


def test_header_records_config(toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    for name, text in render_tables(tables).items():
        head = text.splitlines()[0]
        assert head.startswith("# window=2 kappa=1.000000 if_years=2008:2008")
        assert "pub_years=2005:2015" in head


def test_every_field_if_cell_reproducible_from_library_ops(toy_taxonomy):
    records = [
        journal("JG", MULTI),
        journal("JA", ASTRO),
        journal("JO", ONCO),
        article("A1", "JA", 2006),
        article("A2", "JA", 2007),
        article("O1", "JO", 2006),
        article("G1", "JG", 2006, refs=("A1",)),
        article("G2", "JG", 2006, refs=("A1",)),
        article("G3", "JG", 2007, refs=("O1",)),
        *[article(f"C{i}", "JO", 2008, refs=("G1", "A2")) for i in range(3)],
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    config = IndicatorConfig(kappa=1.0, if_year_range=(2008, 2008), pub_window=(2005, 2015))
    tables = build_report_tables(corpus, assignments, toy_taxonomy, ("JG",), config)
    cube = count_cube(corpus, assignments, ("JG",), config)
    rows = [
        ln.split("\t")
        for ln in render_tables(tables)["field_if.tsv"].splitlines()
        if not ln.startswith("#")
    ][1:]
    assert rows, "expected at least one field_if row"
    for cols in rows:
        journal_id, area, year_s, num_s, den_s, value_s, _skipped = cols
        if year_s == "mean":
            direct = cube.mean_impact_factor(journal_id, area)
            assert fmt_float(direct.value) == value_s
        else:
            direct = cube.impact_factor(journal_id, int(year_s), area)
            assert (str(direct.numerator), str(direct.denominator)) == (num_s, den_s)
            assert fmt_float(direct.value) == value_s


def test_emit_report_is_deterministic(tmp_path, toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    manifest = manifest_for(tables)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    paths_a = emit_report(tables, manifest, dir_a)
    paths_b = emit_report(tables, manifest, dir_b)
    assert [p.split("/")[-1] for p in paths_a] == [p.split("/")[-1] for p in paths_b]
    for name in TABLE_FILES + (MANIFEST_FILE,):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    # re-running into the same directory is also byte-stable
    emit_report(tables, manifest, dir_a)
    for name in TABLE_FILES:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_read_table_dir_reads_back_what_emit_report_wrote(tmp_path, toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    emit_report(tables, manifest_for(tables), tmp_path)
    assert read_table_dir(tmp_path) == render_tables(tables)


def test_build_report_tables_rejects_a_journal_category_missing_from_the_taxonomy(toy_taxonomy):
    # JX is not among the requested journals, and nothing is counted.
    corpus = build_corpus(
        [journal("JA", ASTRO), journal("JX", (ONCO, "No Such")), article("A1", "JA", 2006)]
    )
    unclassified = read_assignments((), corpus)
    with pytest.raises(ValidationError, match="unknown categories: JX:No Such$"):
        build_report_tables(corpus, unclassified, toy_taxonomy, ("JA",))
    # Without JX the same call runs, under the default config.
    corpus = build_corpus([journal("JA", ASTRO), article("A1", "JA", 2006)])
    tables = build_report_tables(corpus, unclassified, toy_taxonomy, ("JA",))
    assert tables.config == IndicatorConfig()


def test_emit_report_failure_leaves_prior_state(tmp_path, toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    manifest = manifest_for(tables)
    out = tmp_path / "out"
    out.mkdir()
    # a directory squatting on the first staged rename target forces failure
    (out / "composition.tsv").mkdir()
    with pytest.raises(OSError):
        emit_report(tables, manifest, out)
    leftovers = [p.name for p in out.iterdir() if p.name != "composition.tsv"]
    assert leftovers == []


def test_emit_report_later_rename_failure_keeps_prior_manifest(tmp_path, toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    out = tmp_path / "out"
    emit_report(tables, manifest_for(tables), out)
    prior = {name: (out / name).read_bytes() for name in TABLE_FILES + (MANIFEST_FILE,)}
    # summary.tsv is the last table renamed; a directory squatting on it
    # fails the run after the other tables are in place
    (out / "summary.tsv").unlink()
    (out / "summary.tsv").mkdir()
    rerun = RunManifest(
        command="indicators",
        version="0.1.0",
        config={"window": "3"},
        inputs={"corpus": "1" * 64},
    )
    changed = replace(tables, config=replace(tables.config, kappa=2.0))
    assert render_tables(changed)["composition.tsv"].encode() != prior["composition.tsv"]
    with pytest.raises(OSError):
        emit_report(changed, rerun, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(TABLE_FILES + (MANIFEST_FILE,))
    assert (out / MANIFEST_FILE).read_bytes() == prior[MANIFEST_FILE]
    for name in TABLE_FILES:
        if name != "summary.tsv":
            assert (out / name).read_bytes() == prior[name], name


def test_write_files_atomic(tmp_path):
    target = tmp_path / "x.tsv"
    # a temp another run is still writing under the old fixed name
    other = tmp_path / ".x.tsv.tmp"
    other.write_text("other run\n")
    write_files_atomic({target: "a\tb\n"})
    assert target.read_text() == "a\tb\n"
    assert sorted(tmp_path.iterdir()) == [other, target]
    assert other.read_text() == "other run\n"
    plain = tmp_path / "plain.tsv"
    plain.write_text("")
    assert target.stat().st_mode == plain.stat().st_mode


def test_write_files_atomic_writes_in_bounded_slices(tmp_path):
    text = "A0000001\tOncology\tMedicine\tjournal-seeded\t0\t12\n" * 50_000
    target = tmp_path / "big.tsv"
    peak = traced_peak(lambda: write_files_atomic({target: text}))
    assert peak <= len(text) // 8, f"traced peak {peak / len(text):.2f}x the text length"
    assert target.read_text() == text


def test_no_prior_target_is_ever_absent(tmp_path, toy_taxonomy, monkeypatch):
    single = tmp_path / "single.tsv"
    single.write_text("prior\n")
    tables = toy_tables(toy_taxonomy)
    out = tmp_path / "out"
    emit_report(tables, manifest_for(tables), out)
    prior = [single] + [out / name for name in TABLE_FILES + (MANIFEST_FILE,)]
    renames = []
    os_replace = os.replace

    def checked_replace(src, dst):
        assert all(p.exists() for p in prior), renames
        os_replace(src, dst)
        assert all(p.exists() for p in prior), renames
        renames.append(dst)

    monkeypatch.setattr(report_module.os, "replace", checked_replace)
    write_files_atomic({single: "new\n"})
    assert single.read_text() == "new\n"
    emit_report(tables, manifest_for(tables), out)
    assert len(renames) == 8
    # a rewrite that fails on its last table puts every prior file back
    def refuse_summary(src, dst):
        if Path(src).suffix == ".tmp" and Path(dst) == out / "summary.tsv":
            raise PermissionError("refused")
        checked_replace(src, dst)

    monkeypatch.setattr(report_module.os, "replace", refuse_summary)
    changed = replace(tables, config=replace(tables.config, kappa=2.0))
    with pytest.raises(OSError):
        emit_report(changed, manifest_for(changed), out)
    assert len(renames) > 8


def test_failed_rename_drops_its_backup_and_temp(tmp_path, monkeypatch):
    fresh = tmp_path / "fresh.tsv"
    kept = tmp_path / "kept.tsv"
    kept.write_text("prior\n")
    os_replace = os.replace

    def refuse_kept(src, dst):
        if Path(src).suffix == ".tmp" and Path(dst) == kept:
            raise PermissionError("refused")
        os_replace(src, dst)

    monkeypatch.setattr(report_module.os, "replace", refuse_kept)
    with pytest.raises(PermissionError):
        write_files_atomic({fresh: "new\n", kept: "new\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.tsv"]
    assert kept.read_text() == "prior\n"


def test_a_target_that_is_not_a_regular_file_is_refused_before_any_write(tmp_path):
    fresh = tmp_path / "fresh.tsv"
    real = tmp_path / "real.tsv"
    real.write_text("prior\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(real)
    with pytest.raises(OSError) as exc:
        write_files_atomic({fresh: "new\n", link: "new\n"})
    assert str(exc.value) == f"[Errno 17] exists and is not a regular file: '{link}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "real.tsv"]
    assert link.is_symlink() and real.read_text() == "prior\n"


def test_without_hard_links_an_existing_target_is_kept(tmp_path, monkeypatch):
    fresh = tmp_path / "fresh.tsv"
    kept = tmp_path / "kept.tsv"
    kept.write_text("prior\n")

    def no_links(*args, **kwargs):
        raise PermissionError("hard links not supported")

    monkeypatch.setattr(report_module.os, "link", no_links)
    with pytest.raises(PermissionError):
        write_files_atomic({fresh: "new\n", kept: "new\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.tsv"]
    assert kept.read_text() == "prior\n"
    write_files_atomic({fresh: "new\n"})  # a new file needs no link
    assert fresh.read_text() == "new\n"


def test_manifest_lines_are_ordered():
    manifest = RunManifest(
        command="indicators",
        version="0.1.0",
        config={"window": "2", "kappa": "1.040000"},
        inputs={"corpus": "ab", "taxonomy": "cd"},
    )
    lines = manifest.to_lines()
    assert lines[0] == "key\tvalue"
    assert lines[1] == "command\tindicators"
    assert "config.kappa\t1.040000" in lines
    assert lines[-1] == (
        "outputs\tcomposition.tsv,field_if.tsv,manifest.tsv,prestige.tsv,"
        "ranking.tsv,representation.tsv,summary.tsv"
    )
    assert lines.index("config.kappa\t1.040000") < lines.index("config.window\t2")


def test_empty_tables_emit_header_only(tmp_path, toy_taxonomy):
    tables = toy_tables(toy_taxonomy)
    empty = ReportTables(
        config=tables.config,
        journals=tables.journals,
        summary=(),
        compositions=(),
        representation=None,
        field_if=(),
        prestige=(),
        rankings=(),
    )
    rendered = render_tables(empty)
    for name in TABLE_FILES:
        lines = rendered[name].splitlines()
        assert lines[0].startswith("#")
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data == ["\t".join(TABLE_COLUMNS[name])]
