"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is fixed here and matches the package contract.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from refclass.classifier import ClassifierConfig, classify, evaluate_accuracy
from refclass.cli import run_cli
from refclass.corpus import ArticleRecord, JournalRecord, build_corpus
from refclass.errors import UndefinedValueError
from refclass.indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    IndicatorConfig,
    count_cube,
    prestige,
)
from refclass.synthetic import SyntheticConfig, field_category, generate_synthetic

from conftest import article, journal, random_corpus
from naive_classifier import naive_classify


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [FAIL] {text}")
        raise
    print(f"\nACCEPTANCE {num} [PASS] {text}")


def test_criterion_1_classification_accuracy_and_runtime():
    with criterion(1, "broad-area error <= 1% on ~50k-article synthetic corpus, <= 60 s"):
        config = SyntheticConfig(
            num_fields=10,
            journals_per_field=5,
            num_general_journals=2,
            articles_per_journal_year=192,
            year_range=(2000, 2004),
            mean_refs=20.0,
            p_intra=0.8,
            field_citation_rate=0.5,
            general_field_mix=(0.1,) * 10,
            seed=20250810,
        )
        t0 = time.perf_counter()
        corpus, truth, taxonomy = generate_synthetic(config)
        result = classify(corpus, taxonomy)
        report = evaluate_accuracy(result, truth, taxonomy)
        elapsed = time.perf_counter() - t0
        assert 45_000 <= len(corpus.articles) <= 55_000
        assert report.broad_area_error is not None
        assert report.broad_area_error <= 0.01, f"error {report.broad_area_error:.4f}"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "classify matches the naive reference on 100 random corpora"):
        rng = np.random.default_rng(424242)
        config = ClassifierConfig()
        for case in range(100):
            corpus, taxonomy = random_corpus(rng, max_articles=500)
            fast = classify(corpus, taxonomy, config)
            naive = naive_classify(corpus, taxonomy, config)
            assert fast.iterations_run == naive.iterations_run, f"case {case}"
            assert fast.iteration_stats == naive.iteration_stats, f"case {case}"
            assert fast.assignments == naive.assignments, f"case {case}"


def test_criterion_3_decomposition_identity():
    with criterion(3, "whole-journal IF equals count-weighted mean of field IFs (<= 1e-9)"):
        config = SyntheticConfig(
            num_fields=4,
            journals_per_field=2,
            num_general_journals=1,
            articles_per_journal_year=60,
            year_range=(2000, 2003),
            mean_refs=8.0,
            p_intra=0.75,
            field_citation_rate=(1.0, 1.5, 2.0, 2.5),
            general_field_mix=(0.25,) * 4,
            seed=33,
        )
        corpus, _, taxonomy = generate_synthetic(config)
        result = classify(corpus, taxonomy)
        assignments = result.assignments
        assert all(a.broad_area is not None for a in assignments.values()), "must be fully classified"
        icfg = IndicatorConfig(if_year_range=(2002, 2003), pub_window=(2000, 2003))
        areas = tuple(sorted({a.broad_area for a in assignments.values()}))
        cube = count_cube(corpus, assignments, ("JF00S00", "JF03S01", "JG00"), icfg)
        checked = 0
        for journal_id in (ALL_SOURCES, "JF00S00", "JF03S01", "JG00"):
            for year in (2002, 2003):
                whole = cube.impact_factor(journal_id, year, ALL_AREAS)
                total = 0
                mixed = 0.0
                for area in areas:
                    try:
                        part = cube.impact_factor(journal_id, year, area)
                    except UndefinedValueError:
                        continue
                    total += part.denominator
                    mixed += (part.denominator / whole.denominator) * part.value
                assert total == whole.denominator
                assert abs(mixed - whole.value) <= 1e-9 * max(1.0, abs(whole.value))
                checked += 1
        assert checked == 8


def test_criterion_4_prestige_on_published_constants():
    with criterion(4, "prestige(35.3, 2.2) = 16.0455 +/- 0.0005 and prestige(20.5, 4.1) = 5.000 +/- 0.001"):
        assert prestige(35.3, 2.2).value == pytest.approx(16.0455, abs=0.0005)
        assert prestige(20.5, 4.1).value == pytest.approx(5.000, abs=0.001)


def test_criterion_5_planted_rate_recovery():
    with criterion(5, "field baseline IF within 5% of kappa*lambda for >= 2000-article denominators"):
        rates = (2.0, 3.0, 4.0)
        config = SyntheticConfig(
            num_fields=3,
            journals_per_field=4,
            num_general_journals=0,
            articles_per_journal_year=250,
            year_range=(2000, 2004),
            mean_refs=5.0,
            p_intra=0.8,
            field_citation_rate=rates,
            general_field_mix=(1 / 3,) * 3,
            seed=919,
        )
        corpus, _, taxonomy = generate_synthetic(config)
        assignments = classify(corpus, taxonomy).assignments
        icfg = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
        cube = count_cube(corpus, assignments, (), icfg)
        for f, lam in enumerate(rates):
            area = taxonomy.broad_area_of(field_category(f))
            mean = cube.mean_impact_factor(ALL_SOURCES, area)
            for v in mean.yearly:
                assert v.denominator >= 2000
            expected = icfg.kappa * lam
            assert mean.value == pytest.approx(expected, rel=0.05), (
                f"field {f}: {mean.value:.4f} vs {expected:.4f}"
            )


def test_criterion_6_representation_recovery():
    with criterion(6, "general journal at 50% of a 10%-of-corpus field -> representation 5.0 +/- 0.2"):
        # 11 fields x 4 journals + 1 general journal make the target field
        # exactly 10% of the corpus while the general journal draws 50%
        config = SyntheticConfig(
            num_fields=11,
            journals_per_field=4,
            num_general_journals=1,
            articles_per_journal_year=40,
            year_range=(2000, 2004),
            mean_refs=10.0,
            p_intra=0.8,
            field_citation_rate=0.5,
            general_field_mix=(0.5,) + (0.05,) * 10,
            seed=777,
        )
        corpus, truth, taxonomy = generate_synthetic(config)
        assignments = classify(corpus, taxonomy).assignments
        target_area = taxonomy.broad_area_of(field_category(0))
        planted_share = sum(1 for f in truth.field_of.values() if f == 0) / len(truth.field_of)
        assert planted_share == pytest.approx(0.10, abs=1e-12)
        icfg = IndicatorConfig(pub_window=(2000, 2004))
        rep = count_cube(corpus, assignments, ("JG00",), icfg).representation(("JG00",))
        assert rep.ratios[target_area] == pytest.approx(5.0, abs=0.2)


def _pipeline(tmp_path, name: str, threads: str, monkeypatch) -> dict[str, bytes]:
    monkeypatch.setenv("REFCLASS_THREADS", threads)
    d = tmp_path / name
    d.mkdir()
    synth_cfg = {
        "num_fields": 3,
        "journals_per_field": 2,
        "num_general_journals": 1,
        "articles_per_journal_year": 25,
        "year_range": [2000, 2003],
        "mean_refs": 6.0,
        "p_intra": 0.8,
        "field_citation_rate": [1.0, 1.5, 2.0],
        "general_field_mix": [0.4, 0.3, 0.3],
    }
    cfg_path = d / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg))
    corpus, truth, taxonomy = d / "corpus.tsv", d / "truth.tsv", d / "taxonomy.tsv"
    assert run_cli(
        [
            "synth",
            "--config", str(cfg_path),
            "--seed", "12345",
            "--out-corpus", str(corpus),
            "--out-truth", str(truth),
            "--out-taxonomy", str(taxonomy),
        ]
    ) == 0
    assignments = d / "assignments.tsv"
    assert run_cli(
        [
            "classify",
            "--corpus", str(corpus),
            "--taxonomy", str(taxonomy),
            "--out", str(assignments),
        ]
    ) == 0
    ind_dir = d / "indicators"
    assert run_cli(
        [
            "indicators",
            "--corpus", str(corpus),
            "--taxonomy", str(taxonomy),
            "--assignments", str(assignments),
            "--if-years", "2002:2003",
            "--pub-years", "2000:2003",
            "--journals", "JG00,JF00S00,JF01S00",
            "--out-dir", str(ind_dir),
        ]
    ) == 0
    rep_dir = d / "report"
    assert run_cli(["report", "--in-dir", str(ind_dir), "--out-dir", str(rep_dir)]) == 0
    out: dict[str, bytes] = {}
    for f in (corpus, truth, taxonomy, assignments):
        out[f.name] = f.read_bytes()
    for sub in (ind_dir, rep_dir):
        for f in sorted(sub.iterdir()):
            out[f"{sub.name}/{f.name}"] = f.read_bytes()
    return out


def test_criterion_7_end_to_end_determinism(tmp_path, monkeypatch):
    with criterion(7, "full pipeline byte-identical across reruns and thread counts"):
        run_a = _pipeline(tmp_path, "a", "1", monkeypatch)
        run_b = _pipeline(tmp_path, "b", "1", monkeypatch)
        run_c = _pipeline(tmp_path, "c", "8", monkeypatch)
        assert sorted(run_a) == sorted(run_b) == sorted(run_c)
        for name in run_a:
            assert run_a[name] == run_b[name], f"{name} differs between identical runs"
            assert run_a[name] == run_c[name], f"{name} differs between thread counts"


def _random_if_case(rng: np.random.Generator):
    """Small corpus plus a (journal, year, window) cell with a non-empty denominator."""
    n_journals = int(rng.integers(2, 5))
    journals = [journal(f"J{j}", "Oncology") for j in range(n_journals)]
    n_articles = int(rng.integers(15, 60))
    ids = [f"P{i:03d}" for i in range(n_articles)]
    doc_types = ("article", "review", "other")
    records: list = list(journals)
    for i, a_id in enumerate(ids):
        picks = [ids[int(rng.integers(n_articles))] for _ in range(int(rng.integers(0, 4)))]
        refs = tuple(r for r in dict.fromkeys(picks) if r != a_id)
        records.append(
            ArticleRecord(
                a_id,
                f"J{int(rng.integers(n_journals))}",
                2000 + int(rng.integers(0, 8)),
                doc_types[int(rng.integers(3))] if i % 3 else "article",
                refs,
            )
        )
    corpus = build_corpus(records)
    window = int(rng.integers(1, 4))
    anchors = [a for a in corpus.articles.values() if a.doc_type == "article"]
    anchor = anchors[int(rng.integers(len(anchors)))]
    year = anchor.year + int(rng.integers(1, window + 1))
    return corpus, records, anchor, year, window


def test_criterion_8_kappa_linearity_and_monotonicity():
    with criterion(8, "kappa linearity and monotonicity hold over 1000 randomized cases"):
        rng = np.random.default_rng(31337)
        for case in range(1000):
            corpus, records, anchor, year, window = _random_if_case(rng)
            kappa = float(rng.uniform(0.25, 4.0))
            years = (year, year)
            base_cfg = IndicatorConfig(window=window, kappa=1.0, if_year_range=years)
            k_cfg = IndicatorConfig(window=window, kappa=kappa, if_year_range=years)
            journals = (anchor.journal_id,)
            v1 = count_cube(corpus, {}, journals, base_cfg).impact_factor(anchor.journal_id, year)
            vk = count_cube(corpus, {}, journals, k_cfg).impact_factor(anchor.journal_id, year)
            # bit-exact scaling: value = kappa * (numerator / denominator)
            assert vk.value == kappa * v1.value, f"case {case}"
            assert (vk.numerator, vk.denominator) == (v1.numerator, v1.denominator)
            # adding one citation edge into the counted window never decreases
            extra = ArticleRecord(
                "ZZEXTRA", anchor.journal_id, year, "article", (anchor.id,)
            )
            grown = build_corpus(records + [extra])
            vk2 = count_cube(grown, {}, journals, k_cfg).impact_factor(anchor.journal_id, year)
            assert vk2.numerator == vk.numerator + 1, f"case {case}"
            assert vk2.value >= vk.value, f"case {case}"
