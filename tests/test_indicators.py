"""Impact values, prestige, composition, representation, rankings."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from refclass import indicators
from refclass.classifier import Assignment, classify
from refclass.corpus import build_corpus
from refclass.errors import (
    DomainError,
    EmptyScopeError,
    UndefinedValueError,
    UnknownNameError,
)
from refclass.indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    ARTICLE_ONLY,
    IndicatorConfig,
    composition,
    count_cube,
    impact_factor,
    mean_impact_factor,
    prestige,
    rank_journals,
    representation,
    summary_row,
)
from refclass.report import COMBINED_SCOPE, build_report_tables
from refclass.synthetic import SyntheticConfig, generate_synthetic
from refclass.errors import ConfigError

from conftest import article, journal, random_corpus, ten_field_config, traced_peak

ASTRO = "Astronomy & Astrophysics"
ONCO = "Oncology"
MULTI = "Multidisciplinary Sciences"


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
    v = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, simple_config())
    assert (v.numerator, v.denominator) == (10, 4)
    assert v.value == 2.5


def test_impact_factor_zero_citations(toy_taxonomy):
    corpus = build_corpus(
        [journal("J1", ASTRO), article("P1", "J1", 2010), article("P2", "J1", 2012)]
    )
    assignments = classify(corpus, toy_taxonomy).assignments
    v = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, simple_config())
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
    v = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, simple_config())
    assert (v.numerator, v.denominator) == (2, 1)
    narrow = simple_config(citing_doc_types=frozenset({"article"}))
    v2 = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, narrow)
    assert (v2.numerator, v2.denominator) == (1, 1)
    wide = simple_config(denominator_doc_types=frozenset({"article", "review"}))
    v3 = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, wide)
    assert (v3.numerator, v3.denominator) == (3, 2)


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
    whole = impact_factor(corpus, assignments, ALL_SOURCES, 2012, ALL_AREAS, simple_config())
    assert (whole.numerator, whole.denominator) == (2, 2)
    astro = impact_factor(corpus, assignments, ALL_SOURCES, 2012, "Astronomy", simple_config())
    assert (astro.numerator, astro.denominator) == (1, 1)
    with pytest.raises(UndefinedValueError):
        impact_factor(corpus, assignments, ALL_SOURCES, 2012, "Medicine", simple_config())
    with pytest.raises(UnknownNameError):
        impact_factor(corpus, assignments, "NOPE", 2012, ALL_AREAS, simple_config())


def brute_force_if(corpus, assignments, journal_id, year, area, config):
    # independent scan over all citing articles and their reference lists
    denom = set()
    for a in corpus.articles.values():
        if a.doc_type not in config.denominator_doc_types:
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
        if citer.year != year or citer.doc_type not in config.citing_doc_types:
            continue
        num += sum(1 for ref in citer.references if ref in denom)
    return num, len(denom)


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
    for journal_id in (ALL_SOURCES, "JF00S00", "JG00"):
        for year in (2002, 2003):
            for area in areas:
                expected = brute_force_if(corpus, assignments, journal_id, year, area, config)
                if expected[1] == 0:
                    with pytest.raises(UndefinedValueError):
                        impact_factor(corpus, assignments, journal_id, year, area, config)
                    continue
                v = impact_factor(corpus, assignments, journal_id, year, area, config)
                assert (v.numerator, v.denominator) == expected


def brute_force_items(corpus, journals, years, doc_types):
    # ids of items in ``journals`` (None: every journal) published in ``years``
    lo, hi = years
    return {
        a.id
        for a in corpus.articles.values()
        if a.doc_type in doc_types
        and lo <= a.year <= hi
        and (journals is None or a.journal_id in journals)
    }


def brute_force_citations(corpus, cited, years, citing_doc_types):
    lo, hi = years
    return sum(
        ref in cited
        for citer in corpus.articles.values()
        if lo <= citer.year <= hi and citer.doc_type in citing_doc_types
        for ref in citer.references
    )


def brute_force_area_counts(corpus, assignments, journals, pub_window):
    counts = Counter()
    for a_id in brute_force_items(corpus, journals, pub_window, ARTICLE_ONLY):
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
                window=3,
                kappa=1.7,
                denominator_doc_types=frozenset({"article", "review"}),
                citing_doc_types=frozenset({"article", "other"}),
                if_year_range=(2004, 2009),
                pub_window=(2002, 2005),
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
    full = classify(corpus, taxonomy).assignments
    # every fifth corpus article lacks an assignment; one assignment names no corpus article
    assignments = {a_id: a for i, (a_id, a) in enumerate(full.items()) if i % 5}
    assignments["NOT_IN_CORPUS"] = Assignment(
        "NOT_IN_CORPUS", ONCO, "Medicine", "journal-seeded", 0, None
    )
    journals = sorted(corpus.journals)
    areas = sorted({taxonomy.broad_area_of(c) for c in taxonomy.assignment_targets})
    tables = build_report_tables(corpus, assignments, taxonomy, journals, config)

    cube = count_cube(
        corpus,
        assignments,
        journals,
        config,
        if_years=config.if_year_range,
        pub_window=config.pub_window,
    )
    lo, hi = config.if_year_range
    pub_lo = min(config.pub_window[0], lo - config.window)
    pub_hi = max(config.pub_window[1], hi - 1)
    assert (cube.pub_years, cube.if_years) == ((pub_lo, pub_hi), (lo, hi))
    assert cube.den.shape[2] == pub_hi - pub_lo + 1 and cube.num.shape[3] == hi - lo + 1

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
                    v = impact_factor(corpus, assignments, scope, year, area, config)
                    assert (v.numerator, v.denominator) == (num, den)
            m = field_if.get((scope, area))
            if not defined:
                assert m is None
                continue
            assert [(v.year, v.numerator, v.denominator) for v in m.yearly] == defined
            assert m.skipped_years == tuple(year for year, _, den in yearly if not den)
            means[(scope, area)] = sum(config.kappa * (n / d) for _, n, d in defined) / len(defined)
            assert m.value == means[(scope, area)]

    assert [r.journal_id for r in tables.summary] == [ALL_SOURCES, *journals]
    for row in tables.summary:
        scope = None if row.journal_id == ALL_SOURCES else {row.journal_id}
        items = brute_force_items(corpus, scope, config.pub_window, config.denominator_doc_types)
        classified = [i for i in items if getattr(assignments.get(i), "broad_area", None)]
        citations = brute_force_citations(
            corpus, items, config.if_year_range, config.citing_doc_types
        )
        mean = means.get((row.journal_id, ALL_AREAS))
        assert (row.articles, row.articles_classified, row.citations, row.mean_if) == (
            len(items),
            len(classified),
            citations,
            mean,
        )
        assert summary_row(corpus, assignments, row.journal_id, config) == row

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

    assert [r.area for r in tables.rankings] == areas
    for ranking in tables.rankings:
        scored, undefined = [], []
        for j in journals:
            multi = any(taxonomy.is_multidisciplinary(c) for c in corpus.journals[j].categories)
            value = means.get((j, ranking.area if multi else ALL_AREAS))
            (undefined if value is None else scored).append((j, value))
        scored.sort(key=lambda jv: (-jv[1], jv[0]))
        assert [(e.journal_id, e.value) for e in ranking.entries] == scored + undefined
        assert ranking == rank_journals(corpus, assignments, taxonomy, ranking.area, journals, config)


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
    m = mean_impact_factor(corpus, assignments, "J1", ALL_AREAS, cfg)
    assert [v.value for v in m.yearly] == [2.0, 4.0]
    assert m.skipped_years == (2013,)
    assert m.value == pytest.approx(3.0)
    # every year undefined -> the mean itself is undefined
    with pytest.raises(UndefinedValueError):
        mean_impact_factor(corpus, assignments, "J1", "Medicine", cfg)


def test_prestige_formula_and_errors():
    p = prestige(35.3, 2.2)
    assert p.value == pytest.approx(16.0455, abs=0.0005)
    assert prestige(20.5, 4.1).value == pytest.approx(5.000, abs=0.001)
    assert prestige(7.31, 7.31).value == 1.0
    with pytest.raises(DomainError):
        prestige(1.0, 0.0)
    with pytest.raises(DomainError):
        prestige(1.0, -2.0)


def test_prestige_scale_invariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y, c = rng.uniform(0.1, 50.0, size=3)
        assert prestige(c * x, c * y).value == pytest.approx(prestige(x, y).value, rel=1e-9)


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
    table = composition(corpus, assignments, ("JSET_A", "JSET_B"), (2005, 2015))
    assert table.share("Medicine") == pytest.approx(0.53)
    assert table.share("Astronomy") == pytest.approx(0.47)
    assert table.share("Physics") == 0.0
    assert sum(table.shares.values()) == pytest.approx(1.0, abs=1e-9)
    single = composition(corpus, assignments, ("JSET_A",), (2005, 2015))
    assert single.share("Medicine") == 1.0
    assert single.counts == {"Medicine": 53}


def test_composition_errors(toy_taxonomy):
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    with pytest.raises(EmptyScopeError):
        composition(corpus, assignments, (), (2005, 2015))
    with pytest.raises(EmptyScopeError):
        composition(corpus, assignments, ("JSET_A",), (1990, 1995))
    with pytest.raises(UnknownNameError):
        composition(corpus, assignments, ("NOPE",), (2005, 2015))


@pytest.mark.parametrize("pub_window", [(1, 10**9), (2015, 2005), (2005.0, 2015)])
@pytest.mark.parametrize("entry", [composition, representation])
def test_library_pub_window_is_checked_before_counting(
    toy_taxonomy, monkeypatch, pub_window, entry
):
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments

    def refuse(*args, **kwargs):
        raise AssertionError("count_cube ran")

    monkeypatch.setattr(indicators, "count_cube", refuse)
    with pytest.raises(ConfigError, match="pub_window"):
        entry(corpus, assignments, ("JSET_A",), pub_window)


def test_representation_back_derived_values(toy_taxonomy):
    # set share 0.53, all-sources share 53/400 = 0.1325 -> ratio 4.0
    corpus = composition_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    rep = representation(corpus, assignments, ("JSET_A", "JSET_B"), (2005, 2015))
    assert rep.share_all["Medicine"] == pytest.approx(0.1325)
    assert rep.ratios["Medicine"] == pytest.approx(4.0)
    assert rep.ratios["Astronomy"] == pytest.approx(0.47 / (347 / 400))
    assert "Physics" in rep.omitted_areas


def test_representation_of_whole_corpus_is_one(toy_taxonomy):
    rng = np.random.default_rng(17)
    corpus, taxonomy = random_corpus(rng, max_articles=300)
    assignments = classify(corpus, taxonomy).assignments
    try:
        rep = representation(corpus, assignments, tuple(corpus.journals), (2000, 2010))
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
    table = rank_journals(corpus, assignments, toy_taxonomy, "Astronomy", ("JA", "JB", "JC"), cfg)
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
    table = rank_journals(
        corpus, assignments, toy_taxonomy, "Astronomy", ("JB", "JA", "JZ"), simple_config()
    )
    assert [e.journal_id for e in table.entries] == ["JA", "JB", "JZ"]
    assert table.entries[0].value == table.entries[1].value == 1.0
    assert table.entries[2].rank is None and table.entries[2].value is None


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
        table = rank_journals(
            corpus, assignments, toy_taxonomy, area, ("JG", field_journal), cfg
        )
        assert table.entries[0].journal_id == "JG"
        assert table.entries[0].field_restricted
        assert not table.entries[1].field_restricted
        assert table.entries[0].value > table.entries[1].value


def test_decomposition_identity_small(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config()
    whole = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, cfg)
    parts = []
    for area in ("Astronomy", "Medicine"):
        try:
            v = impact_factor(corpus, assignments, "J1", 2012, area, cfg)
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
        v_k = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, simple_config(kappa=kappa))
        v_1 = impact_factor(corpus, assignments, "J1", 2012, ALL_AREAS, simple_config(kappa=1.0))
        assert v_k.value == kappa * v_1.value  # bit-exact
        assert (v_k.numerator, v_k.denominator) == (v_1.numerator, v_1.denominator)


def test_summary_row_counts(toy_taxonomy):
    corpus = cited_corpus()
    assignments = classify(corpus, toy_taxonomy).assignments
    cfg = simple_config(if_year_range=(2012, 2012), pub_window=(2010, 2011))
    row = summary_row(corpus, assignments, "J1", cfg)
    assert row.journal_id == "J1"
    assert row.articles == 4
    assert row.articles_classified == 4
    assert row.citations == 10
    assert row.mean_if == pytest.approx(2.5)
    all_row = summary_row(corpus, assignments, ALL_SOURCES, cfg)
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
    with pytest.raises(ConfigError):
        IndicatorConfig(denominator_doc_types=frozenset())
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
    ):
        with pytest.raises(ConfigError):
            IndicatorConfig(**bad)
    edge = IndicatorConfig(window=200, if_year_range=[1900, 2100], pub_window=(1900, 1900))
    assert edge.if_year_range == (1900, 2100)


@pytest.mark.parametrize("year", [10**20, 2011.0, "2011", True, 1850])
def test_impact_year_is_checked_like_the_config_years(year):
    corpus = build_corpus(
        [journal("J1", ONCO), article("P1", "J1", 2010), article("P2", "J1", 2011, refs=("P1",))]
    )
    assert impact_factor(corpus, {}, "J1", 2011).numerator == 1
    with pytest.raises(ConfigError, match="if_year_range"):
        impact_factor(corpus, {}, "J1", year)


def test_count_cube_traced_peak_is_bounded():
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=40))
    assignments = classify(corpus, taxonomy).assignments
    config = IndicatorConfig(if_year_range=(2002, 2004), pub_window=(2000, 2004))
    n_refs = len(corpus.refs)
    assert n_refs > 200_000
    peak = traced_peak(
        lambda: count_cube(
            corpus,
            assignments,
            ("JF00S00", "JF05S02", "JG00"),
            config,
            if_years=config.if_year_range,
            pub_window=config.pub_window,
        )
    )
    assert peak <= 20 * n_refs, f"traced peak {peak / n_refs:.1f} bytes per reference"
