"""Impact values, prestige, composition, representation, rankings."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refclass.indicators as indicators_module
from refclass.classifier import classify, emit_assignments, read_assignments
from refclass.corpus import YEAR_BOUNDS, build_corpus
from refclass.errors import (
    DomainError,
    EmptyScopeError,
    RefclassError,
    UndefinedValueError,
    UnknownNameError,
    ValidationError,
)
from refclass.indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    CountCube,
    IfValue,
    IndicatorConfig,
    RankingEntry,
    count_cube,
    prestige,
)
from refclass.report import COMBINED_SCOPE, build_report_tables
from refclass.taxonomy import BROAD_AREAS
from refclass.synthetic import SyntheticConfig, generate_synthetic
from refclass.errors import ConfigError

from conftest import article, journal, random_corpus, ten_field_config, traced_peak

ASTRO = "Astronomy & Astrophysics"
ONCO = "Oncology"
MULTI = "Multidisciplinary Sciences"


def partial_table(corpus, result, keep, stranger: str):
    """``result``'s assignments read back from its emitted rows, keeping the
    rows whose index ``keep`` accepts; and the same rows with every dropped
    one listed as unclassified with 0 votes instead. The kept rows plus
    ``stranger``, the fields of a row for the id NOT_IN_CORPUS, must not read."""
    rows = emit_assignments(result).splitlines(keepends=True)
    kept = [row for i, row in enumerate(rows) if keep(i)]
    listed = [
        row if keep(i) else row.split("\t")[0] + "\t\t\tunclassified\t0\t0\n"
        for i, row in enumerate(rows)
    ]
    message = r"^assignments name 1 article\(s\) not in the corpus, token 'NOT_IN_CORPUS'$"
    with pytest.raises(ValidationError, match=message):
        read_assignments([*kept, f"NOT_IN_CORPUS\t{stranger}\n"], corpus)
    return read_assignments(kept, corpus), read_assignments(listed, corpus)


def simple_config(**overrides) -> IndicatorConfig:
    base = dict(window=2, kappa=1.0, if_year_range=(2012, 2012), pub_window=(2010, 2011))
    base.update(overrides)
    return IndicatorConfig(**base)


def cited_corpus():
    """J1 publishes 4 articles in 2010-2011; they receive 10 citations in 2012."""
    records = [
        journal("J1", ASTRO),
        journal("J2", ONCO),
        article("P1", "J1", 2010),
        article("P2", "J1", 2010),
        article("P3", "J1", 2011),
        article("P4", "J1", 2011),
    ]
    targets = ["P1", "P2", "P3", "P4"]
    for i in range(10):
        records.append(article(f"C{i}", "J2", 2012, refs=(targets[i % 4],)))
    return build_corpus(records)


def test_impact_factor_direct_ratio(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    v = count_cube(corpus, assignments, ("J1",), simple_config()).impact_factor("J1", 2012)
    assert (v.numerator, v.denominator) == (10, 4)
    assert v.value == 2.5


def test_impact_factor_zero_citations(toy_taxonomy):
    corpus = build_corpus(
        [journal("J1", ASTRO), article("P1", "J1", 2010), article("P2", "J1", 2012)]
    )
    assignments = classify(corpus, toy_taxonomy).assignments
    v = count_cube(corpus, assignments, ("J1",), simple_config()).impact_factor("J1", 2012)
    assert v.value == 0.0
    assert v.denominator == 1  # only P1 falls in [2010, 2011]


def test_impact_factor_window_and_doc_filters(toy_taxonomy):
    records = [
        journal("J1", ASTRO),
        journal("J2", ONCO),
        article("P1", "J1", 2010),
        article("R1", "J1", 2011, doc_type="review"),
        article("OLD", "J1", 2009),
        article("C1", "J2", 2012, refs=("P1", "R1", "OLD")),
        article("C2", "J2", 2012, refs=("P1",), doc_type="review"),
        article("C3", "J2", 2013, refs=("P1",)),
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    # reviews and out-of-window articles are not citable items; citing
    # side counts all doc types in the right year only
    v = count_cube(corpus, assignments, ("J1",), simple_config()).impact_factor("J1", 2012)
    assert (v.numerator, v.denominator) == (2, 1)


def test_impact_factor_area_restriction_excludes_unclassified(toy_taxonomy):
    records = [
        journal("JA", ASTRO),
        journal("JM", MULTI),
        article("P1", "JA", 2010),
        article("U1", "JM", 2010),  # zero refs -> unclassified
        article("C1", "JM", 2012, refs=("P1", "U1")),
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, (), simple_config())
    whole = cube.impact_factor(ALL_SOURCES, 2012, ALL_AREAS)
    assert (whole.numerator, whole.denominator) == (2, 2)
    astro = cube.impact_factor(ALL_SOURCES, 2012, "Astronomy")
    assert (astro.numerator, astro.denominator) == (1, 1)
    with pytest.raises(UndefinedValueError):
        cube.impact_factor(ALL_SOURCES, 2012, "Medicine")
    with pytest.raises(UnknownNameError):
        count_cube(corpus, assignments, ("NOPE",), simple_config())
    with pytest.raises(UnknownNameError):
        cube.impact_factor("JA", 2012, ALL_AREAS)


def brute_force_if(corpus, assignments, journal_id, year, area, config):
    # independent scan over all citing items and their reference lists;
    # articles are the citable items, cited by every doc type
    denom = set()
    for a in corpus.articles.values():
        if a.doc_type != "article":
            continue
        if not (year - config.window <= a.year <= year - 1):
            continue
        if journal_id != ALL_SOURCES and a.journal_id != journal_id:
            continue
        if area != ALL_AREAS:
            entry = assignments.get(a.id)
            if entry is None or entry.broad_area != area:
                continue
        denom.add(a.id)
    num = 0
    for citer in corpus.articles.values():
        if citer.year != year:
            continue
        num += sum(1 for ref in citer.references if ref in denom)
    return num, len(denom)


def left_to_right_mean(kappa: float, defined: list[tuple[int, int, int]]) -> float:
    """Mean impact of the defined (year, numerator, denominator) cells, added
    left to right in year order whatever the Python version's sum() does."""
    total = 0.0
    for _, n, d in defined:
        total += kappa * (n / d)
    return total / len(defined)


def test_impact_factor_matches_brute_force_scan():
    cfg = SyntheticConfig(
        num_fields=3,
        journals_per_field=2,
        num_general_journals=1,
        articles_per_journal_year=40,
        year_range=(2000, 2003),
        mean_refs=6.0,
        p_intra=0.8,
        field_citation_rate=(1.0, 2.0, 3.0),
        general_field_mix=(0.4, 0.3, 0.3),
        seed=55,
    )
    corpus, _, taxonomy = generate_synthetic(cfg)
    assignments = classify(corpus, taxonomy).assignments
    config = IndicatorConfig(if_year_range=(2002, 2003), pub_window=(2000, 2003))
    areas = [ALL_AREAS, "Bioscience", "Medicine", "Geosciences"]
    cube = count_cube(corpus, assignments, ("JF00S00", "JG00"), config)
    for journal_id in (ALL_SOURCES, "JF00S00", "JG00"):
        for year in (2002, 2003):
            for area in areas:
                expected = brute_force_if(corpus, assignments, journal_id, year, area, config)
                if expected[1] == 0:
                    with pytest.raises(UndefinedValueError):
                        cube.impact_factor(journal_id, year, area)
                    continue
                v = cube.impact_factor(journal_id, year, area)
                assert (v.numerator, v.denominator) == expected


def brute_force_items(corpus, journals, years):
    # ids of articles in ``journals`` (None: every journal) published in ``years``
    lo, hi = years
    return {
        a.id
        for a in corpus.articles.values()
        if a.doc_type == "article"
        and lo <= a.year <= hi
        and (journals is None or a.journal_id in journals)
    }


def brute_force_citations(corpus, cited, years):
    lo, hi = years
    return sum(
        ref in cited
        for citer in corpus.articles.values()
        if lo <= citer.year <= hi
        for ref in citer.references
    )


def brute_force_area_counts(corpus, assignments, journals, pub_window):
    counts = Counter()
    for a_id in brute_force_items(corpus, journals, pub_window):
        entry = assignments.get(a_id)
        if entry is not None and entry.broad_area is not None:
            counts[entry.broad_area] += 1
    return dict(sorted(counts.items()))


@pytest.mark.parametrize(
    "seed, config",
    [
        (3, IndicatorConfig(if_year_range=(2003, 2008), pub_window=(2001, 2007))),
        (
            29,
            IndicatorConfig(
                window=3, kappa=1.7, if_year_range=(2004, 2009), pub_window=(2002, 2005)
            ),
        ),
    ],
)
def test_every_report_cell_matches_brute_force_scan(seed, config):
    rng = np.random.default_rng(seed)
    corpus, taxonomy = random_corpus(rng, max_articles=400)
    some = sorted(corpus.articles)[:5]
    # items far outside the configured years, cited and citing
    far = [
        article("OLD", "J00", 1950, refs=some[:2]),
        article("FUT", "J01", 2090, refs=some[2:4]),
        article("LNK", "J00", 2005, refs=("OLD", "FUT", some[4])),
    ]
    corpus = build_corpus([*corpus.journals.values(), *corpus.articles.values(), *far])
    # every fifth corpus article lacks an assignment; an assignment for an
    # article outside the corpus is rejected
    stranger = f"{ONCO}\tMedicine\tjournal-seeded\t0\t0"
    result = classify(corpus, taxonomy)
    assignments, listed = partial_table(corpus, result, lambda i: i % 5, stranger)
    journals = sorted(corpus.journals)
    areas = sorted({taxonomy.broad_area_of(c) for c in taxonomy.assignment_targets})
    tables = build_report_tables(corpus, assignments, taxonomy, journals, config)

    cube = count_cube(corpus, assignments, journals, config)
    # A dropped row counts like a row listed as unclassified.
    listed_cube = count_cube(corpus, listed, journals, config)
    assert np.array_equal(listed_cube.den, cube.den) and np.array_equal(listed_cube.num, cube.num)
    lo, hi = config.if_year_range
    named_areas = np.unique(assignments.area[assignments.area >= 0]).size
    assert cube.den.shape == cube.num.shape == (len(journals) + 1, named_areas + 1, hi - lo + 2)

    field_if = {(m.journal_id, m.area): m for m in tables.field_if}
    means = {}
    for scope in (ALL_SOURCES, *journals):
        for area in (ALL_AREAS, *areas):
            yearly = [
                (year, *brute_force_if(corpus, assignments, scope, year, area, config))
                for year in range(lo, hi + 1)
            ]
            defined = [cell for cell in yearly if cell[2]]
            for year, num, den in yearly:
                if den:
                    v = cube.impact_factor(scope, year, area)
                    assert (v.numerator, v.denominator) == (num, den)
            m = field_if.get((scope, area))
            if not defined:
                assert m is None
                continue
            assert [(v.year, v.numerator, v.denominator) for v in m.yearly] == defined
            assert m.skipped_years == tuple(year for year, _, den in yearly if not den)
            means[(scope, area)] = left_to_right_mean(config.kappa, defined)
            assert m.value == means[(scope, area)]

    assert [r.journal_id for r in tables.summary] == [ALL_SOURCES, *journals]
    for row in tables.summary:
        scope = None if row.journal_id == ALL_SOURCES else {row.journal_id}
        items = brute_force_items(corpus, scope, config.pub_window)
        classified = [i for i in items if getattr(assignments.get(i), "broad_area", None)]
        citations = brute_force_citations(corpus, items, config.if_year_range)
        mean = means.get((row.journal_id, ALL_AREAS))
        assert (row.articles, row.articles_classified, row.citations, row.mean_if) == (
            len(items),
            len(classified),
            citations,
            mean,
        )
        assert cube.summary_row(row.journal_id) == row

    expected = {
        scope: brute_force_area_counts(corpus, assignments, set(js), config.pub_window)
        for scope, js in [(COMBINED_SCOPE, journals)] + [(j, [j]) for j in journals]
    }
    assert {scope: c.counts for scope, c in tables.compositions} == {
        scope: counts for scope, counts in expected.items() if counts
    }
    all_counts = brute_force_area_counts(corpus, assignments, None, config.pub_window)
    total = sum(all_counts.values())
    assert tables.representation.share_all == {a: n / total for a, n in all_counts.items()}
    # Shares depend on the publication window alone, not on the impact years.
    shares_config = IndicatorConfig(pub_window=config.pub_window)
    shares_cube = count_cube(corpus, assignments, journals, shares_config)
    for scope, table in tables.compositions:
        js = journals if scope == COMBINED_SCOPE else [scope]
        assert shares_cube.composition(js) == table
    assert shares_cube.representation(journals) == tables.representation

    assert [r.area for r in tables.rankings] == areas
    for ranking in tables.rankings:
        scored, undefined = [], []
        for j in journals:
            multi = any(taxonomy.is_multidisciplinary(c) for c in corpus.journals[j].categories)
            value = means.get((j, ranking.area if multi else ALL_AREAS))
            (undefined if value is None else scored).append((j, value))
        scored.sort(key=lambda jv: (-jv[1], jv[0]))
        assert [(e.journal_id, e.value) for e in ranking.entries] == scored + undefined
        assert ranking == cube.ranking(taxonomy, ranking.area)


def test_mean_impact_factor_skips_undefined_years(toy_taxonomy):
    # yearly values 2.0, undefined, 4.0 -> mean 3.0 with one skipped year
    records = [
        journal("J1", ASTRO),
        journal("J2", ONCO),
        article("P1", "J1", 2010),
        article("P2", "J1", 2013),
        # 2 citations in 2012 to P1 (window [2010, 2011]) -> IF(2012) = 2.0
        article("C1", "J2", 2012, refs=("P1",)),
        article("C2", "J2", 2012, refs=("P1",)),
        # 2013 window [2011, 2012] holds nothing -> undefined
        # 4 citations in 2014 to P2 (window [2012, 2013]) -> IF(2014) = 4.0
        *[article(f"D{i}", "J2", 2014, refs=("P2",)) for i in range(4)],
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config(if_year_range=(2012, 2014))
    cube = count_cube(corpus, assignments, ("J1",), cfg)
    m = cube.mean_impact_factor("J1", ALL_AREAS)
    assert [v.value for v in m.yearly] == [2.0, 4.0]
    assert m.skipped_years == (2013,)
    assert m.value == pytest.approx(3.0)
    # every year undefined -> the mean itself is undefined
    with pytest.raises(UndefinedValueError):
        cube.mean_impact_factor("J1", "Medicine")


def test_mean_impact_factor_adds_years_left_to_right(toy_taxonomy, monkeypatch):
    # Yearly values 0.1, 0.2 and 0.3: 1, 2 and 3 citations to 10 articles.
    records = [journal("J1", ASTRO), journal("J2", ONCO)]
    for year, citations in ((2010, 1), (2011, 2), (2012, 3)):
        cited = [f"P{year}x{i}" for i in range(10)]
        records += [article(a, "J1", year) for a in cited]
        records += [article(f"C{a}", "J2", year + 1, refs=(a,)) for a in cited[:citations]]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config(window=1, if_year_range=(2011, 2013))

    def compensated(values, start=0):  # sum() of floats from Python 3.12 on
        return math.fsum(values) + start

    monkeypatch.setattr(indicators_module, "sum", compensated, raising=False)
    m = count_cube(corpus, assignments, ("J1",), cfg).mean_impact_factor("J1")
    assert [v.value for v in m.yearly] == [0.1, 0.2, 0.3]
    assert m.value == (0.1 + 0.2 + 0.3) / 3 != math.fsum([0.1, 0.2, 0.3]) / 3


def test_prestige_formula_and_errors():
    p = prestige(35.3, 2.2)
    assert p.value == pytest.approx(16.0455, abs=0.0005)
    assert prestige(20.5, 4.1).value == pytest.approx(5.000, abs=0.001)
    assert prestige(7.31, 7.31).value == 1.0
    with pytest.raises(DomainError):
        prestige(1.0, 0.0)
    with pytest.raises(DomainError):
        prestige(1.0, -2.0)
    # finite, with a non-negative journal value
    for journal_if, baseline_if in [
        (float("nan"), 1.0),
        (float("inf"), 1.0),
        (1.0, float("inf")),
        (1.0, float("nan")),
        (-1.0, 2.0),
    ]:
        with pytest.raises(DomainError):
            prestige(journal_if, baseline_if)
    assert prestige(0.0, 2.0).value == 0.0


def test_prestige_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y, c = rng.uniform(0.1, 50.0, size=3)
        assert prestige(c * x, c * y).value == pytest.approx(prestige(x, y).value, rel=1e-9)


SHARES_CONFIG = IndicatorConfig(pub_window=(2005, 2015))


def composition_corpus():
    """100 classified set articles (53 oncology) inside 400 total."""
    records = [
        journal("JSET_A", ONCO),
        journal("JSET_B", ASTRO),
        journal("JBG", ASTRO),
    ]
    for i in range(53):
        records.append(article(f"S{i:03d}", "JSET_A", 2010))
    for i in range(53, 100):
        records.append(article(f"S{i:03d}", "JSET_B", 2010))
    for i in range(300):
        records.append(article(f"B{i:03d}", "JBG", 2010))
    return build_corpus(records)


def test_composition_shares(toy_taxonomy):
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, ("JSET_A", "JSET_B"), SHARES_CONFIG)
    table = cube.composition(("JSET_A", "JSET_B"))
    assert table.share("Medicine") == pytest.approx(0.53)
    assert table.share("Astronomy") == pytest.approx(0.47)
    assert table.share("Physics") == 0.0
    assert sum(table.shares.values()) == pytest.approx(1.0, abs=1e-9)
    single = cube.composition(("JSET_A",))
    assert single.share("Medicine") == 1.0
    assert single.counts == {"Medicine": 53}


def test_composition_errors(toy_taxonomy):
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, ("JSET_A",), SHARES_CONFIG)
    with pytest.raises(EmptyScopeError):
        cube.composition(())
    early = IndicatorConfig(pub_window=(1990, 1995))
    with pytest.raises(EmptyScopeError):
        count_cube(corpus, assignments, ("JSET_A",), early).composition(("JSET_A",))
    with pytest.raises(UnknownNameError):
        count_cube(corpus, assignments, ("NOPE",), SHARES_CONFIG)
    # a corpus journal the cube did not count
    with pytest.raises(UnknownNameError):
        cube.composition(("JSET_A", "JSET_B"))


@pytest.mark.parametrize("pub_window", [(1, 10**9), (2015, 2005), (2005.0, 2015)])
@pytest.mark.parametrize("entry", ["composition", "representation"])
def test_library_pub_window_is_checked_before_counting(
    toy_taxonomy, monkeypatch, pub_window, entry
):
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments

    def refuse(*args, **kwargs):
        raise AssertionError("counted")

    monkeypatch.setattr(CountCube, "_area_counts", refuse)
    with pytest.raises(ConfigError, match="pub_window"):
        cube = count_cube(corpus, assignments, ("JSET_A",), IndicatorConfig(pub_window=pub_window))
        getattr(cube, entry)(("JSET_A",))


def test_representation_back_derived_values(toy_taxonomy):
    # set share 0.53, all-sources share 53/400 = 0.1325 -> ratio 4.0
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    journals = ("JSET_A", "JSET_B")
    rep = count_cube(corpus, assignments, journals, SHARES_CONFIG).representation(journals)
    assert rep.share_all["Medicine"] == pytest.approx(0.1325)
    assert rep.ratios["Medicine"] == pytest.approx(4.0)
    assert rep.ratios["Astronomy"] == pytest.approx(0.47 / (347 / 400))
    assert "Physics" in rep.omitted_areas


def test_representation_of_whole_corpus_is_one(toy_taxonomy):
    rng = np.random.default_rng(17)
    corpus, taxonomy = random_corpus(rng, max_articles=300)
    assignments = classify(corpus, taxonomy).assignments
    try:
        config = IndicatorConfig(pub_window=(2000, 2010))
        cube = count_cube(corpus, assignments, corpus.journals, config)
        rep = cube.representation(corpus.journals)
    except EmptyScopeError:
        pytest.skip("random corpus had no classified articles in window")
    for area, ratio in rep.ratios.items():
        assert ratio == pytest.approx(1.0, abs=1e-9)


def test_rank_journals_order_and_ties(toy_taxonomy):
    # deterministic citation counts: whole-journal means A=5.0, C=4.0, B=3.0
    records = [
        journal("JA", ASTRO),
        journal("JB", ASTRO),
        journal("JC", ASTRO),
        journal("JX", ONCO),
        article("A1", "JA", 2010),
        article("B1", "JB", 2010),
        article("C1", "JC", 2010),
    ]
    for i in range(5):
        records.append(article(f"XA{i}", "JX", 2012, refs=("A1",)))
    for i in range(3):
        records.append(article(f"XB{i}", "JX", 2012, refs=("B1",)))
    for i in range(4):
        records.append(article(f"XC{i}", "JX", 2012, refs=("C1",)))
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config()
    cube = count_cube(corpus, assignments, ("JA", "JB", "JC"), cfg)
    table = cube.ranking(toy_taxonomy, "Astronomy")
    assert [e.journal_id for e in table.entries] == ["JA", "JC", "JB"]
    assert [e.rank for e in table.entries] == [1, 2, 3]
    assert all(not e.field_restricted for e in table.entries)


def test_rank_journals_tie_break_and_undefined(toy_taxonomy):
    records = [
        journal("JA", ASTRO),
        journal("JB", ASTRO),
        journal("JZ", ASTRO),
        journal("JX", ONCO),
        article("A1", "JA", 2010),
        article("B1", "JB", 2010),
        article("XA", "JX", 2012, refs=("A1",)),
        article("XB", "JX", 2012, refs=("B1",)),
        article("Z1", "JZ", 2014),  # outside every window -> undefined
    ]
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, ("JB", "JA", "JZ"), simple_config())
    table = cube.ranking(toy_taxonomy, "Astronomy")
    assert [e.journal_id for e in table.entries] == ["JA", "JB", "JZ"]
    assert table.entries[0].value == table.entries[1].value == 1.0
    assert table.entries[2].rank is None and table.entries[2].value is None


def test_ranking_rejects_a_counted_journal_category_missing_from_the_taxonomy(toy_taxonomy):
    # The ValidationError of build_report_tables, not the UnknownNameError of
    # a category look-up; a journal the cube did not count is not checked.
    corpus = build_corpus(
        [journal("JA", ASTRO), journal("JX", ("No Such", ONCO)), article("A1", "JA", 2010)]
    )
    unclassified = read_assignments((), corpus)
    cube = count_cube(corpus, unclassified, ("JA", "JX"), simple_config())
    with pytest.raises(ValidationError, match="unknown categories: JX:No Such$"):
        cube.ranking(toy_taxonomy, "Astronomy")
    only_ja = count_cube(corpus, unclassified, ("JA",), simple_config())
    assert [e.journal_id for e in only_ja.ranking(toy_taxonomy, "Astronomy").entries] == ["JA"]


def test_count_cube_and_report_tables_take_only_an_assignment_table(toy_taxonomy):
    corpus = cited_corpus()
    as_dict = dict(classify(corpus, toy_taxonomy).assignments.items())
    bad_journal = build_corpus(
        [*corpus.journals.values(), journal("JX", "No Such"), *corpus.articles.values()]
    )
    for assignments, name in (({}, "dict"), (as_dict, "dict"), (None, "NoneType")):
        with pytest.raises(ConfigError, match=f"must be an AssignmentTable, got {name}$"):
            count_cube(corpus, assignments, ("J1",), simple_config())
        with pytest.raises(ConfigError, match=f"must be an AssignmentTable, got {name}$"):
            build_report_tables(corpus, assignments, toy_taxonomy, ("J1",))
        # Every check that came before the assignments still comes first.
        with pytest.raises(UnknownNameError):
            count_cube(corpus, assignments, ("NOPE",), simple_config())
        with pytest.raises(ConfigError, match=f"must not name {ALL_SOURCES}"):
            count_cube(corpus, assignments, (ALL_SOURCES,), simple_config())
        with pytest.raises(ConfigError, match=f"must not name {COMBINED_SCOPE}"):
            build_report_tables(corpus, assignments, toy_taxonomy, (COMBINED_SCOPE,))
        with pytest.raises(ValidationError, match="unknown categories: JX:No Such$"):
            build_report_tables(bad_journal, assignments, toy_taxonomy, ("J1",))
    # journals is read as count_cube reads it, not as a string's letters
    own = classify(corpus, toy_taxonomy).assignments
    for journals, name in (("J1", "str"), (5, "int"), (None, "NoneType")):
        message = f"^journals must be a collection of journal ids, not {name}$"
        with pytest.raises(ConfigError, match=message):
            count_cube(corpus, own, journals, simple_config())
        with pytest.raises(ConfigError, match=message):
            build_report_tables(corpus, own, toy_taxonomy, journals, simple_config())
    # ids that cannot be hashed or sorted are unknown journals to both
    for journals, bad in (([["J1"]], ["J1"]), ([1, "J1"], 1), (["J1", 1.5], 1.5)):
        message = f"^{re.escape(f'unknown journal: {bad!r}')}$"
        with pytest.raises(UnknownNameError, match=message):
            count_cube(corpus, own, journals, simple_config())
        with pytest.raises(UnknownNameError, match=message):
            build_report_tables(corpus, own, toy_taxonomy, journals, simple_config())


def test_a_config_of_another_type_is_a_config_error(toy_taxonomy):
    corpus = cited_corpus()
    table = classify(corpus, toy_taxonomy).assignments
    with pytest.raises(ConfigError, match="^config must be a ClassifierConfig, got dict$"):
        classify(corpus, toy_taxonomy, {"max_iterations": 3})
    with pytest.raises(ConfigError, match="^config must be an IndicatorConfig, got dict$"):
        count_cube(corpus, table, ("J1",), {"window": 2})
    with pytest.raises(ConfigError, match="^config must be an IndicatorConfig, got tuple$"):
        build_report_tables(corpus, table, toy_taxonomy, ("J1",), (2, 1.04))


def test_count_cube_and_report_tables_reject_a_table_of_another_corpus(toy_taxonomy):
    corpus = cited_corpus()
    records = [*corpus.journals.values(), *corpus.articles.values()]
    grown = build_corpus([*records, article("P5", "J1", 2011)])
    shrunk = build_corpus([r for r in records if r.id != "C9"])
    message = "^assignments cover another corpus's articles$"
    for other in (grown, shrunk):
        foreign = classify(other, toy_taxonomy).assignments
        with pytest.raises(ValidationError, match=message):
            count_cube(corpus, foreign, ("J1",), simple_config())
        with pytest.raises(ValidationError, match=message):
            build_report_tables(corpus, foreign, toy_taxonomy, ("J1",))
    # A corpus built again from the same records has the same articles.
    twin = classify(build_corpus(records), toy_taxonomy).assignments
    own = classify(corpus, toy_taxonomy).assignments
    assert twin.ids is not own.ids
    twin_cube, own_cube = (count_cube(corpus, t, ("J1",), simple_config()) for t in (twin, own))
    assert np.array_equal(twin_cube.num, own_cube.num)


def test_rank_journals_field_restricts_multidisciplinary(toy_taxonomy):
    # planted construction: general journal articles receive 3x the
    # citations of field-journal articles, in both planted fields
    records = [
        journal("JFA", ASTRO),
        journal("JFO", ONCO),
        journal("JG", MULTI),
        journal("JC", ONCO),  # citing filler venue
    ]
    # cited cohort published 2010: one article per (journal, field)
    records += [
        article("FA1", "JFA", 2010),
        article("FO1", "JFO", 2010),
        article("GA1", "JG", 2010, refs=("FA1",)),  # classified astronomy
        article("GO1", "JG", 2010, refs=("FO1",)),  # classified oncology
    ]
    cite_counts = {"FA1": 2, "FO1": 2, "GA1": 6, "GO1": 6}
    n = 0
    for target, count in sorted(cite_counts.items()):
        for _ in range(count):
            records.append(article(f"C{n:02d}", "JC", 2012, refs=(target,)))
            n += 1
    corpus = build_corpus(records)
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config()
    for area, field_journal in (("Astronomy", "JFA"), ("Medicine", "JFO")):
        cube = count_cube(corpus, assignments, ("JG", field_journal), cfg)
        table = cube.ranking(toy_taxonomy, area)
        assert table.entries[0].journal_id == "JG"
        assert table.entries[0].field_restricted
        assert not table.entries[1].field_restricted
        assert table.entries[0].value > table.entries[1].value


def test_decomposition_identity_small(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, ("J1",), simple_config())
    whole = cube.impact_factor("J1", 2012, ALL_AREAS)
    parts = []
    for area in ("Astronomy", "Medicine"):
        try:
            v = cube.impact_factor("J1", 2012, area)
        except UndefinedValueError:
            continue
        parts.append(v)
    assert sum(p.denominator for p in parts) == whole.denominator
    mixed = sum((p.denominator / whole.denominator) * p.value for p in parts)
    assert mixed == pytest.approx(whole.value, rel=1e-12)


def test_kappa_linearity_exact(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    for kappa in (0.5, 1.04, 2.0, 3.75):
        cube_k = count_cube(corpus, assignments, ("J1",), simple_config(kappa=kappa))
        cube_1 = count_cube(corpus, assignments, ("J1",), simple_config(kappa=1.0))
        v_k, v_1 = cube_k.impact_factor("J1", 2012), cube_1.impact_factor("J1", 2012)
        assert v_k.value == kappa * v_1.value  # bit-exact
        assert (v_k.numerator, v_k.denominator) == (v_1.numerator, v_1.denominator)


def test_kappa_that_overflows_an_impact_value_is_a_config_error(toy_taxonomy):
    # 2.5 * 1e308 is inf; so is the sum of the two yearly values 1e308.
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cube = count_cube(corpus, assignments, ("J1",), simple_config(kappa=1e308))
    for call in (
        lambda: cube.impact_factor("J1", 2012),
        lambda: cube.mean_impact_factor("J1"),
        lambda: cube.summary_row("J1"),
    ):
        with pytest.raises(ConfigError, match="^kappa="):
            call()
    corpus = build_corpus(
        [
            journal("J1", ASTRO),
            journal("J2", ONCO),
            article("P1", "J1", 2010),
            article("P2", "J1", 2011),
            article("C1", "J2", 2012, refs=("P1",)),
            article("C2", "J2", 2012, refs=("P2",)),
            article("C3", "J2", 2013, refs=("P2",)),
        ]
    )
    assignments = classify(corpus, toy_taxonomy).assignments
    config = simple_config(kappa=1e308, if_year_range=(2012, 2013))
    cube = count_cube(corpus, assignments, ("J1",), config)
    assert [cube.impact_factor("J1", y).value for y in (2012, 2013)] == [1e308, 1e308]
    with pytest.raises(ConfigError, match="^kappa="):
        cube.mean_impact_factor("J1")


@pytest.mark.parametrize("token", [ALL_SOURCES, COMBINED_SCOPE])
def test_a_journal_named_like_a_scope_token_is_refused(toy_taxonomy, token):
    # Its rows could not be told from those of every journal or of the pooled set.
    corpus = build_corpus(
        [
            journal(token, ASTRO),
            journal("J2", ONCO),
            article("P1", token, 2010),
            article("C1", "J2", 2012, refs=("P1",)),
        ]
    )
    assignments = classify(corpus, toy_taxonomy).assignments
    with pytest.raises(ConfigError, match="^journals "):
        build_report_tables(corpus, assignments, toy_taxonomy, ["J2", token], simple_config())
    if token == ALL_SOURCES:
        with pytest.raises(ConfigError, match="^journals "):
            count_cube(corpus, assignments, ["J2", token], simple_config())
    else:
        cube = count_cube(corpus, assignments, [token], simple_config())
        assert cube.summary_row(token).articles == 1


def test_summary_row_counts(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config(if_year_range=(2012, 2012), pub_window=(2010, 2011))
    cube = count_cube(corpus, assignments, ("J1",), cfg)
    row = cube.summary_row("J1")
    assert row.journal_id == "J1"
    assert row.articles == 4
    assert row.articles_classified == 4
    assert row.citations == 10
    assert row.mean_if == pytest.approx(2.5)
    all_row = cube.summary_row(ALL_SOURCES)
    assert all_row.articles == 4  # citing articles are published in 2012


def test_indicator_config_validation():
    with pytest.raises(ConfigError):
        IndicatorConfig(window=0)
    with pytest.raises(ConfigError):
        IndicatorConfig(kappa=0.0)
    for kappa in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError):
            IndicatorConfig(kappa=kappa)
    with pytest.raises(ConfigError):
        IndicatorConfig(if_year_range=(2016, 2007))
    # the citable-item rule is fixed, not a knob
    for removed in ("denominator_doc_types", "citing_doc_types"):
        with pytest.raises(TypeError, match=removed):
            IndicatorConfig(**{removed: frozenset({"article"})})
    # integer window and years, within the corpus year bounds
    for bad in (
        {"window": 2.0},
        {"window": True},
        {"window": 201},
        {"window": 99999999999},
        {"if_year_range": (2007.0, 2016)},
        {"if_year_range": (False, 2016)},
        {"if_year_range": 2007},
        {"if_year_range": (2001, 99999999999)},
        {"pub_window": (1, 99999999)},
        {"pub_window": (1899, 2000)},
        {"pub_window": ("2005", "2015")},
        # a finite positive int or float kappa
        {"kappa": "1"},
        {"kappa": 10**400},
        {"kappa": True},
    ):
        with pytest.raises(ConfigError):
            IndicatorConfig(**bad)
    assert IndicatorConfig(kappa=2).kappa == 2
    assert IndicatorConfig(kappa=1e308).kappa == 1e308
    edge = IndicatorConfig(window=200, if_year_range=[1900, 2100], pub_window=(1900, 1900))
    assert edge.if_year_range == (1900, 2100)


@pytest.mark.parametrize("year", [10**20, 2011.0, "2011", True, 1850, 2010, 2012])
def test_impact_year_is_checked_like_the_config_years(year):
    corpus = build_corpus(
        [journal("J1", ONCO), article("P1", "J1", 2010), article("P2", "J1", 2011, refs=("P1",))]
    )
    config = IndicatorConfig(if_year_range=(2011, 2011))
    cube = count_cube(corpus, read_assignments((), corpus), ("J1",), config)
    assert cube.impact_factor("J1", 2011).numerator == 1
    with pytest.raises(ConfigError, match="if_year_range"):
        cube.impact_factor("J1", year)


def test_count_cube_traced_peak_is_bounded():
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=40))
    assignments = classify(corpus, taxonomy).assignments
    config = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
    n_refs = len(corpus.refs)
    assert n_refs > 200_000
    peak = traced_peak(
        lambda: count_cube(corpus, assignments, ("JF00S00", "JF05S02", "JG00"), config)
    )
    assert peak <= 20 * n_refs, f"traced peak {peak / n_refs:.1f} bytes per reference"


def test_count_cube_traced_peak_does_not_grow_with_the_year_knobs():
    """The cube holds one column per impact year, so the widest valid knobs cost little more."""
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=40))
    assignments = classify(corpus, taxonomy).assignments
    narrow = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
    widest = IndicatorConfig(
        if_year_range=YEAR_BOUNDS, pub_window=YEAR_BOUNDS, window=indicators_module.MAX_WINDOW
    )
    narrow_peak, widest_peak = (
        traced_peak(lambda: count_cube(corpus, assignments, ("JF00S00", "JF05S02", "JG00"), c))
        for c in (narrow, widest)
    )
    assert widest_peak <= 4 * narrow_peak, f"{narrow_peak} -> {widest_peak} bytes"


def test_count_cube_traced_peak_stays_bounded_as_references_grow():
    """The citations are counted per block, so 4x the references leave the peak under one bound."""
    config = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
    bound = 32 * indicators_module._CITE_BLOCK
    n_refs = []
    for mean_refs in (20.0, 100.0):
        shape = replace(ten_field_config(articles_per_journal_year=20), mean_refs=mean_refs)
        corpus, _, taxonomy = generate_synthetic(shape)
        assignments = classify(corpus, taxonomy).assignments

        def cube():
            return count_cube(corpus, assignments, ("JF00S00", "JF05S02", "JG00"), config)

        cube()  # first-call allocations are not the cube's
        peak = traced_peak(cube)
        n_refs.append(len(corpus.refs))
        assert peak <= bound, f"{n_refs[-1]} references: traced peak {peak / bound:.2f}x the bound"
    assert n_refs[1] >= 3.8 * n_refs[0] and n_refs[1] > 6 * indicators_module._CITE_BLOCK


# Mostly years the random corpora publish in (2000-2009), sometimes the
# bounds, and just past them where a year is an argument. Hypothesis favours
# the first entries, so years with citations come first.
LO, HI = YEAR_BOUNDS
CORPUS_YEARS = (*range(2005, 2012), *range(1999, 2005))
YEAR = st.sampled_from((*CORPUS_YEARS, LO - 1, LO, HI, HI + 1))
VALID_YEAR = st.sampled_from((*CORPUS_YEARS, LO, HI))
CORPUS_YEAR = st.sampled_from(CORPUS_YEARS)  # keeps the brute-force scans over impact years short


def year_pair(years: st.SearchStrategy[int]) -> st.SearchStrategy[tuple[int, int]]:
    return st.tuples(years, years).map(lambda pair: tuple(sorted(pair)))


def outcome(call):
    """What ``call()`` returns, or the refclass error it raises; anything else escapes."""
    try:
        return call()
    except RefclassError as exc:
        return exc


def brute_force_mean(corpus, assignments, journal_id, area, config):
    """(year, numerator, denominator) of every defined year, and the mean (None if none)."""
    lo, hi = config.if_year_range
    yearly = [
        (year, *brute_force_if(corpus, assignments, journal_id, year, area, config))
        for year in range(lo, hi + 1)
    ]
    defined = [cell for cell in yearly if cell[2]]
    if not defined:
        return defined, None
    return defined, left_to_right_mean(config.kappa, defined)


def same_outcome(a, b) -> bool:
    """Equal values, or errors of one type."""
    return type(a) is type(b) and (isinstance(a, RefclassError) or a == b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_library_entry_points_raise_only_refclass_errors_and_match_brute_force(seed, data):
    corpus, taxonomy = random_corpus(np.random.default_rng(seed), max_articles=300)
    result = classify(corpus, taxonomy)
    if data.draw(st.booleans(), "rows dropped"):
        # every third article lacks an assignment; one outside the corpus is rejected
        stranger = f"{ONCO}\tMedicine\ttie-broken\t1\t0"
        assignments = partial_table(corpus, result, lambda i: i % 3, stranger)[0]
    else:
        assignments = result.assignments
    config = IndicatorConfig(
        window=data.draw(st.integers(1, 4), "window"),
        kappa=data.draw(st.sampled_from((1.0, 1.04, 3, 0.25)), "kappa"),
        if_year_range=data.draw(year_pair(CORPUS_YEAR), "if_year_range"),
        pub_window=data.draw(year_pair(VALID_YEAR), "pub_window"),
    )
    in_corpus = sorted(corpus.journals)
    journal_id = data.draw(st.sampled_from((*in_corpus, ALL_SOURCES, "NOPE")), "journal")
    journal_set = data.draw(st.lists(st.sampled_from((*in_corpus, "NOPE")), max_size=5), "set")
    areas = (ALL_AREAS, *taxonomy.areas_in_use, "Physics", "Alchemy")
    area = data.draw(st.sampled_from(areas), "area")
    known_set = "NOPE" not in journal_set
    if not known_set:
        got = outcome(lambda: count_cube(corpus, assignments, journal_set, config))
        assert type(got) is UnknownNameError
    # The cube counts the set's corpus journals and, unless drawn otherwise,
    # ``journal_id``; it knows no other journal.
    counted = set(journal_set) - {"NOPE"}
    if journal_id in in_corpus and data.draw(st.booleans(), "journal counted"):
        counted.add(journal_id)
    counted = sorted(counted)
    known = journal_id == ALL_SOURCES or journal_id in counted
    cube = count_cube(corpus, assignments, counted, config)
    lo, hi = config.if_year_range
    assert type(outcome(lambda: cube.impact_factor(ALL_SOURCES, float(lo)))) is ConfigError

    # A journal of the wrong type is an unknown name, a string journal set
    # is refused rather than read as its letters, and prestige takes numbers.
    bad = data.draw(st.sampled_from(([in_corpus[0]], {}, (in_corpus[0],), 1, None)), "bad journal")
    for call in (
        lambda: count_cube(corpus, assignments, [bad], config),
        lambda: cube.impact_factor(bad, lo),
        lambda: cube.mean_impact_factor(bad),
        lambda: cube.summary_row(bad),
        lambda: cube.composition([bad]),
        lambda: cube.representation([*counted, bad]),
    ):
        assert type(outcome(call)) is UnknownNameError
    letters = data.draw(st.sampled_from((*in_corpus, "")), "string journal set")
    for call in (
        lambda: count_cube(corpus, assignments, letters, config),
        lambda: cube.composition(letters),
        lambda: cube.representation(letters),
    ):
        assert type(outcome(call)) is ConfigError
    # An area that is not a string and a journal set that is not iterable
    # are ConfigErrors naming the argument, never a TypeError.
    bad_area = data.draw(st.sampled_from((["x"], {}, ("x",), 5, None)), "bad area")
    for call in (
        lambda: cube.impact_factor(ALL_SOURCES, lo, bad_area),
        lambda: cube.mean_impact_factor(ALL_SOURCES, bad_area),
        lambda: cube.ranking(taxonomy, bad_area),
    ):
        got = outcome(call)
        assert type(got) is ConfigError and str(got).startswith("area ")
    not_iterable = data.draw(st.sampled_from((5, None, 1.5)), "non-iterable journal set")
    for name, call in (
        ("journals", lambda: count_cube(corpus, assignments, not_iterable, config)),
        ("journal_set", lambda: cube.composition(not_iterable)),
        ("journal_set", lambda: cube.representation(not_iterable)),
    ):
        got = outcome(call)
        assert type(got) is ConfigError and str(got).startswith(name + " ")
    number = data.draw(st.sampled_from((1.5, 2, 0.0)), "prestige number")
    not_number = data.draw(st.sampled_from(("1", None, True, False, [1.0], 1j)), "not a number")
    assert type(outcome(lambda: prestige(not_number, number or 1))) is DomainError
    assert type(outcome(lambda: prestige(number, not_number))) is DomainError
    assert prestige(number, 2).value == number / 2

    # Values of one impact year from a cube that counts that year alone; the
    # config's own cube gives the same within its years and a ConfigError
    # outside them.
    year = data.draw(YEAR, "year")
    one_year = outcome(lambda: replace(config, if_year_range=(year, year)))
    if not LO <= year <= HI:
        assert type(one_year) is ConfigError
    else:
        one_year = count_cube(corpus, assignments, counted, one_year)
    for j, a in dict.fromkeys([(journal_id, area), (ALL_SOURCES, area), (journal_id, ALL_AREAS)]):
        in_cube = outcome(lambda: cube.impact_factor(j, year, a))
        if not LO <= year <= HI:
            assert type(in_cube) is ConfigError
            continue
        got = outcome(lambda: one_year.impact_factor(j, year, a))
        if lo <= year <= hi:
            assert same_outcome(in_cube, got)
        else:
            assert type(in_cube) is ConfigError
        if j != ALL_SOURCES and not known:
            assert type(got) is UnknownNameError
        else:
            num, den = brute_force_if(corpus, assignments, j, year, a, config)
            if den:
                assert got == IfValue(j, a, year, num, den, config.kappa * (num / den))
            else:
                assert type(got) is UndefinedValueError

    got = outcome(lambda: cube.mean_impact_factor(journal_id, area))
    defined, mean = brute_force_mean(corpus, assignments, journal_id, area, config)
    if not known:
        assert type(got) is UnknownNameError
    elif mean is None:
        assert type(got) is UndefinedValueError
    else:
        assert [(v.year, v.numerator, v.denominator) for v in got.yearly] == defined
        assert got.value == mean

    got = outcome(lambda: cube.summary_row(journal_id))
    if not known:
        assert type(got) is UnknownNameError
    else:
        scope = None if journal_id == ALL_SOURCES else {journal_id}
        items = brute_force_items(corpus, scope, config.pub_window)
        classified = [i for i in items if getattr(assignments.get(i), "broad_area", None)]
        citations = brute_force_citations(corpus, items, config.if_year_range)
        assert (got.articles, got.articles_classified, got.citations, got.mean_if) == (
            len(items),
            len(classified),
            citations,
            brute_force_mean(corpus, assignments, journal_id, ALL_AREAS, config)[1],
        )

    got = outcome(lambda: cube.ranking(taxonomy, area))
    scored, undefined = [], []
    for j in counted:
        multi = any(taxonomy.is_multidisciplinary(c) for c in corpus.journals[j].categories)
        scope_area = area if multi else ALL_AREAS
        value = brute_force_mean(corpus, assignments, j, scope_area, config)[1]
        (undefined if value is None else scored).append((j, value, multi))
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    assert got.entries == tuple(
        [RankingEntry(j, v, multi, rank) for rank, (j, v, multi) in enumerate(scored, 1)]
        + [RankingEntry(j, None, multi, None) for j, _, multi in undefined]
    )

    # Shares from a cube that counts the drawn publication window.
    pub_window = data.draw(year_pair(YEAR), "composition pub_window")
    lo, hi = pub_window
    shares_config = outcome(lambda: replace(config, pub_window=pub_window))
    if not LO <= lo <= hi <= HI:
        assert type(shares_config) is ConfigError
        return
    shares_cube = count_cube(corpus, assignments, counted, shares_config)
    got_in = outcome(lambda: shares_cube.composition(journal_set))
    got_rep = outcome(lambda: shares_cube.representation(journal_set))
    if not known_set:
        assert type(got_in) is type(got_rep) is UnknownNameError
        return
    inside = brute_force_area_counts(corpus, assignments, set(journal_set), pub_window)
    if not journal_set or not inside:
        assert type(got_in) is type(got_rep) is EmptyScopeError
        return
    total = sum(inside.values())
    assert (got_in.journal_set, got_in.counts, got_in.total) == (
        tuple(sorted(set(journal_set))),
        inside,
        total,
    )
    everywhere = brute_force_area_counts(corpus, assignments, None, pub_window)
    all_total = sum(everywhere.values())
    share_all = {a: n / all_total for a, n in everywhere.items()}
    assert got_rep.share_set == {a: n / total for a, n in inside.items()}
    assert got_rep.share_all == share_all
    assert got_rep.ratios == {a: inside.get(a, 0) / total / s for a, s in share_all.items()}
    assert got_rep.omitted_areas == tuple(a for a in BROAD_AREAS if a not in share_all)
