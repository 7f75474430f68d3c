"""Seeding, tallying, resolution, fixed-point iteration, oracle equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from refclass import classifier
from refclass.classifier import (
    MODE_BROAD_AREA,
    MODES,
    STATUS_REFERENCE,
    STATUS_SEEDED,
    STATUS_TIE_BROKEN,
    STATUS_UNCLASSIFIED,
    STATUSES,
    TIE_LEXICOGRAPHIC,
    TIE_POLICIES,
    Assignment,
    ClassificationResult,
    ClassifierConfig,
    IterationStats,
    VoteTally,
    classify,
    emit_assignments,
    evaluate_accuracy,
    read_assignments,
    seed_assignments,
)
from refclass.corpus import build_corpus
from refclass.errors import ConfigError, InputError, ParseError, ValidationError
from refclass.synthetic import SyntheticConfig, generate_synthetic
from refclass.taxonomy import BROAD_AREAS, SubjectCategory, Taxonomy

from conftest import (
    article,
    journal,
    open_field_config,
    random_corpus,
    ten_field_config,
    traced,
    traced_peak,
)
from naive_classifier import naive_classify

ASTRO = "Astronomy & Astrophysics"
ONCO = "Oncology"
CELL = "Cell Biology"
MULTI = "Multidisciplinary Sciences"


def seeded_corpus():
    return build_corpus(
        [
            journal("JA", ASTRO),
            journal("JM", MULTI),
            journal("JD", (ONCO, CELL)),
            article("P1", "JA", 2010),
            article("P2", "JM", 2010),
            article("P3", "JD", 2010),
        ]
    )


def test_seed_assignments(toy_taxonomy):
    table = seed_assignments(seeded_corpus(), toy_taxonomy)
    assert table["P1"].status == STATUS_SEEDED
    assert table["P1"].category == ASTRO
    assert table["P1"].broad_area == "Astronomy"
    assert table["P1"].iteration == 0
    # multidisciplinary journal -> unclassified seed
    assert table["P2"].status == STATUS_UNCLASSIFIED
    assert table["P2"].category is None
    # two-category journal -> must be reference-classified
    assert table["P3"].status == STATUS_UNCLASSIFIED
    assert {a.status for a in table.values()} <= {STATUS_SEEDED, STATUS_UNCLASSIFIED}


@pytest.mark.parametrize("categories", [("No Such Category",), (ONCO, "No Such Category")])
def test_a_journal_category_missing_from_the_taxonomy_is_a_validation_error(
    toy_taxonomy, categories
):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JX", categories),
            article("P1", "JA", 2006),
            article("X1", "JX", 2006, refs=("P1",)),
        ]
    )
    for run in (classify, seed_assignments):
        with pytest.raises(ValidationError, match="unknown categories: JX:No Such Category$"):
            run(corpus, toy_taxonomy)


def test_only_labeled_references_vote(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JO", ONCO),
            journal("JM", MULTI),
            *[article(f"X{i}", "JA", 2009) for i in range(3)],
            *[article(f"Y{i}", "JO", 2009) for i in range(2)],
            article("U1", "JM", 2009),
            article("P", "JM", 2010, refs=("X0", "X1", "X2", "Y0", "Y1", "U1", "GONE")),
        ]
    )
    # the dangling GONE and the never-labeled U1 cast no vote
    p = classify(corpus, toy_taxonomy).assignments["P"]
    assert (p.status, p.category, p.iteration) == (STATUS_REFERENCE, ASTRO, 1)
    assert p.tally == VoteTally({ASTRO: 3, ONCO: 2}, 5)
    # broad-area mode votes by area
    area = classify(corpus, toy_taxonomy, ClassifierConfig(mode=MODE_BROAD_AREA))
    p = area.assignments["P"]
    assert (p.status, p.category, p.broad_area) == (STATUS_REFERENCE, None, "Astronomy")
    assert p.tally == VoteTally({"Astronomy": 3, "Medicine": 2}, 5)
    # an empty tally is a valid outcome
    u1 = classify(corpus, toy_taxonomy).assignments["U1"]
    assert (u1.status, u1.iteration, u1.tally) == (STATUS_UNCLASSIFIED, 0, VoteTally({}, 0))


def test_iteration_one_tallies_match_brute_force_recount():
    rng = np.random.default_rng(31)
    corpus, taxonomy = random_corpus(rng, max_articles=500)
    seeds = seed_assignments(corpus, taxonomy)
    result = classify(corpus, taxonomy, ClassifierConfig(max_iterations=1))
    # labels set at iteration 1 carry tallies over the seed table; the rest
    # carry tallies over the table after iteration 1 (terminal tie-breaks
    # excluded, since every terminal tally reads the frozen table)
    after_one = {
        a_id: a.category
        for a_id, a in result.assignments.items()
        if a.status in (STATUS_SEEDED, STATUS_REFERENCE)
    }
    seed_table = {a_id: a.category for a_id, a in seeds.items()}
    checked = 0
    for a_id, a in result.assignments.items():
        if a.status == STATUS_SEEDED:
            continue
        table = seed_table if a.status == STATUS_REFERENCE else after_one
        counts: dict[str, int] = {}
        for ref in corpus.articles[a_id].references:
            if table.get(ref) is not None:
                counts[table[ref]] = counts.get(table[ref], 0) + 1
        assert a.tally == VoteTally(counts, sum(counts.values()))
        checked += 1
    assert checked > 0


def test_tie_rules_and_vote_threshold(toy_taxonomy):
    # P ties one Astronomy vote against one Oncology vote; Q cites only P.
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JO", ONCO),
            journal("JM", MULTI),
            article("X", "JA", 2009),
            article("Y", "JO", 2009),
            article("P", "JM", 2010, refs=("X", "Y")),
            article("Q", "JM", 2011, refs=("P",)),
        ]
    )
    tied = VoteTally({ASTRO: 1, ONCO: 1}, 2)
    # default policy: no label during iterations, broken in the terminal pass,
    # and a terminal tie-break never feeds another article's tally
    result = classify(corpus, toy_taxonomy)
    assert result.iteration_stats[0].newly_classified == 0
    p, q = result.assignments["P"], result.assignments["Q"]
    assert (p.status, p.category, p.iteration) == (STATUS_TIE_BROKEN, ASTRO, 1)
    assert p.tally == tied
    assert (q.status, q.tally) == (STATUS_UNCLASSIFIED, VoteTally({}, 0))
    # lexicographic policy: broken at once, so Q follows one iteration later
    lex = classify(corpus, toy_taxonomy, ClassifierConfig(tie_policy=TIE_LEXICOGRAPHIC))
    p, q = lex.assignments["P"], lex.assignments["Q"]
    assert (p.status, p.category, p.iteration, p.tally) == (STATUS_TIE_BROKEN, ASTRO, 1, tied)
    assert (q.status, q.category, q.iteration) == (STATUS_REFERENCE, ASTRO, 2)
    assert q.tally == VoteTally({ASTRO: 1}, 1)
    # below min_votes a tie is not broken, even in the terminal pass
    strict = classify(corpus, toy_taxonomy, ClassifierConfig(min_votes=3))
    p = strict.assignments["P"]
    assert (p.status, p.category, p.iteration, p.tally) == (STATUS_UNCLASSIFIED, None, 0, tied)


def test_corpus_without_seeds(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JM", MULTI),
            journal("JD", (ONCO, CELL)),
            article("A", "JM", 2010, refs=("B",)),
            article("B", "JD", 2010, refs=("A", "GONE")),
        ]
    )
    result = classify(corpus, toy_taxonomy)
    assert result.iterations_run == 1
    assert result.iteration_stats == (IterationStats(1, 0, 0),)
    for a in result.assignments.values():
        assert (a.status, a.category, a.iteration, a.tally) == (
            STATUS_UNCLASSIFIED,
            None,
            0,
            VoteTally({}, 0),
        )


def test_corpus_without_open_articles(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JO", ONCO),
            article("X", "JA", 2009),
            article("Y", "JO", 2010, refs=("X", "GONE")),
        ]
    )
    result = classify(corpus, toy_taxonomy)
    assert result.assignments == seed_assignments(corpus, toy_taxonomy)
    assert result.iteration_stats == (IterationStats(1, 0, 0),)


def test_only_dangling_references_stay_unclassified(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JM", MULTI),
            article("X", "JA", 2009),
            article("P", "JM", 2010, refs=("GONE1", "GONE2")),
        ]
    )
    p = classify(corpus, toy_taxonomy).assignments["P"]
    assert (p.status, p.category, p.iteration, p.tally) == (
        STATUS_UNCLASSIFIED,
        None,
        0,
        VoteTally({}, 0),
    )


def test_classify_one_hop(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JM", MULTI),
            *[article(f"X{i}", "JA", 2009) for i in range(3)],
            article("P", "JM", 2010, refs=("X0", "X1", "X2")),
        ]
    )
    result = classify(corpus, toy_taxonomy)
    a = result.assignments["P"]
    assert a.category == ASTRO
    assert a.status == STATUS_REFERENCE
    assert a.iteration == 1
    assert a.tally.counts == {ASTRO: 3}


def test_classify_two_hop_hand_trace(toy_taxonomy):
    # A cites only multidisciplinary-journal articles; those cite seeded
    # astronomy articles. Synchronous updates: the middle layer resolves at
    # iteration 1, A at iteration 2.
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JM", MULTI),
            *[article(f"X{i}", "JA", 2008) for i in range(2)],
            article("M1", "JM", 2009, refs=("X0", "X1")),
            article("M2", "JM", 2009, refs=("X0",)),
            article("A", "JM", 2010, refs=("M1", "M2")),
        ]
    )
    result = classify(corpus, toy_taxonomy)
    assert result.assignments["M1"].iteration == 1
    assert result.assignments["A"].category == ASTRO
    assert result.assignments["A"].iteration == 2
    assert result.iterations_run == 3  # iteration 3 observes the fixed point
    stats = {s.iteration: (s.newly_classified, s.changed) for s in result.iteration_stats}
    assert stats[1] == (2, 0)
    assert stats[2] == (1, 0)
    assert stats[3] == (0, 0)


def test_terminal_tie_break(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JO", ONCO),
            journal("JM", MULTI),
            article("X", "JA", 2009),
            article("Y", "JO", 2009),
            article("P", "JM", 2010, refs=("X", "Y")),
        ]
    )
    result = classify(corpus, toy_taxonomy)
    a = result.assignments["P"]
    # byte-wise smallest of the tied categories
    assert a.category == min(ASTRO, ONCO)
    assert a.status == STATUS_TIE_BROKEN
    assert a.iteration == result.iterations_run
    assert a.tally.counts == {ASTRO: 1, ONCO: 1}


def test_zero_reference_articles_stay_unclassified(toy_taxonomy):
    corpus = build_corpus([journal("JM", MULTI), article("P", "JM", 2010)])
    result = classify(corpus, toy_taxonomy)
    a = result.assignments["P"]
    assert a.status == STATUS_UNCLASSIFIED
    assert a.category is None and a.broad_area is None
    assert a.iteration == 0


def test_min_votes_threshold(toy_taxonomy):
    corpus = build_corpus(
        [
            journal("JA", ASTRO),
            journal("JM", MULTI),
            article("X", "JA", 2009),
            article("P", "JM", 2010, refs=("X",)),
        ]
    )
    strict = classify(corpus, toy_taxonomy, ClassifierConfig(min_votes=2))
    assert strict.assignments["P"].status == STATUS_UNCLASSIFIED
    assert strict.assignments["P"].tally == VoteTally({ASTRO: 1}, 1)
    loose = classify(corpus, toy_taxonomy, ClassifierConfig(min_votes=1))
    assert loose.assignments["P"].category == ASTRO


def test_broad_area_mode(toy_taxonomy):
    # Oncology and Cell Biology belong to different areas; a category-level
    # tie can still resolve at area level when votes agree there.
    corpus = build_corpus(
        [
            journal("JO", ONCO),
            journal("JM", MULTI),
            article("X", "JO", 2009),
            article("P", "JM", 2010, refs=("X",)),
        ]
    )
    result = classify(corpus, toy_taxonomy, ClassifierConfig(mode=MODE_BROAD_AREA))
    a = result.assignments["P"]
    assert a.category is None
    assert a.broad_area == "Medicine"
    assert a.status == STATUS_REFERENCE


def test_seed_immutability_and_closed_world(toy_taxonomy):
    rng = np.random.default_rng(77)
    for _ in range(10):
        corpus, taxonomy = random_corpus(rng, max_articles=200)
        seeds = seed_assignments(corpus, taxonomy)
        result = classify(corpus, taxonomy)
        assert result.iterations_run <= ClassifierConfig().max_iterations
        for a_id, a in result.assignments.items():
            if seeds[a_id].status == STATUS_SEEDED:
                assert a == seeds[a_id]
            if a.category is not None:
                assert a.category in taxonomy.assignment_targets
                assert a.broad_area == taxonomy.broad_area_of(a.category)


def test_one_hop_completeness(toy_taxonomy):
    # every reference of every non-seeded article lands in classifier
    # journals -> done after iteration 1, iteration 2 observes no change
    rng = np.random.default_rng(13)
    for trial in range(5):
        records = [journal("JA", ASTRO), journal("JO", ONCO), journal("JM", MULTI)]
        seeded_ids = []
        for i in range(20):
            j = ("JA", "JO")[int(rng.integers(2))]
            records.append(article(f"S{i}", j, 2009))
            seeded_ids.append(f"S{i}")
        for i in range(10):
            n = int(rng.integers(1, 5))
            refs = sorted({seeded_ids[int(rng.integers(20))] for _ in range(n)})
            records.append(article(f"P{i}", "JM", 2010, refs=tuple(refs)))
        result = classify(build_corpus(records), toy_taxonomy)
        assert result.iterations_run == 2
        assert result.iteration_stats[-1].newly_classified == 0
        assert result.iteration_stats[-1].changed == 0
        for i in range(10):
            a = result.assignments[f"P{i}"]
            if a.status == STATUS_TIE_BROKEN:
                assert a.iteration == result.iterations_run
            else:
                assert a.iteration <= 1


def test_classify_is_deterministic():
    rng = np.random.default_rng(4321)
    corpus, taxonomy = random_corpus(rng, max_articles=400)
    base = classify(corpus, taxonomy)
    again = classify(corpus, taxonomy)
    assert base == again
    assert emit_assignments(base) == emit_assignments(again)


ORACLE_CONFIGS = [
        ClassifierConfig(),
        ClassifierConfig(tie_policy=TIE_LEXICOGRAPHIC),
        ClassifierConfig(min_votes=2),
        ClassifierConfig(mode=MODE_BROAD_AREA),
        ClassifierConfig(max_iterations=1),
        ClassifierConfig(mode=MODE_BROAD_AREA, tie_policy=TIE_LEXICOGRAPHIC),
    ClassifierConfig(max_iterations=2, min_votes=3),
]


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(2)
    for i in range(2 * len(ORACLE_CONFIGS)):
        corpus, taxonomy = random_corpus(rng, max_articles=300)
        config = ORACLE_CONFIGS[i % len(ORACLE_CONFIGS)]
        assert classify(corpus, taxonomy, config) == naive_classify(corpus, taxonomy, config)


def wide_taxonomy(n_categories: int) -> Taxonomy:
    """``n_categories`` categories spread over the broad areas in turn, plus
    Multidisciplinary Sciences."""
    areas = [BROAD_AREAS[k % len(BROAD_AREAS)] for k in range(n_categories)]
    return Taxonomy(
        [SubjectCategory(f"{area} {k // len(BROAD_AREAS)}", area) for k, area in enumerate(areas)]
        + [SubjectCategory("Multidisciplinary Sciences", "Bioscience", True)]
    )


WIDE_TAXONOMY = wide_taxonomy(112)


def wide_corpus(rng: np.random.Generator, n_articles: int, taxonomy: Taxonomy = WIDE_TAXONOMY):
    """A corpus that seeds every category of ``taxonomy`` (112 by default).

    Each category has one journal; five open journals (two-category and
    multidisciplinary ones) publish about 60% of the articles. An article
    cites mostly articles of its own topic (its seed journal's category, or
    a random one), plus random and dangling ids.
    """
    cats = sorted(taxonomy.assignment_targets)
    journals = [journal(f"S{i:03d}", c) for i, c in enumerate(cats)]
    for j in range(3):
        journals.append(journal(f"O{j}", [cats[int(p)] for p in rng.choice(len(cats), 2, False)]))
    journals += [journal(f"O{j}", "Multidisciplinary Sciences") for j in (3, 4)]
    journal_of = [
        int(rng.integers(len(cats))) if rng.random() < 0.4 else len(cats) + int(rng.integers(5))
        for _ in range(n_articles)
    ]
    topic = [j if j < len(cats) else int(rng.integers(len(cats))) for j in journal_of]
    by_topic: dict[int, list[int]] = {}
    for i, t in enumerate(topic):
        by_topic.setdefault(t, []).append(i)
    articles = []
    for i, j in enumerate(journal_of):
        refs = []
        for _ in range(int(rng.integers(0, 9))):
            kind = rng.random()
            if kind < 0.08:
                refs.append(f"X{int(rng.integers(1000)):04d}")  # dangling
                continue
            pool = by_topic[topic[i]] if kind < 0.7 else range(n_articles)
            target = pool[int(rng.integers(len(pool)))]
            if target != i:
                refs.append(f"P{target:04d}")
        year = 2000 + int(rng.integers(0, 10))
        refs = tuple(dict.fromkeys(refs))
        articles.append(article(f"P{i:04d}", journals[j].id, year, refs))
    return build_corpus(journals + articles)


def test_oracle_equivalence_over_a_wide_taxonomy():
    # With 112 seed labels the vote kernel's block holds _BLOCK_CELLS // 112
    # = 146 open articles, so the larger corpora cross block edges.
    rng = np.random.default_rng(26)
    crossed = 0
    for i in range(2 * len(ORACLE_CONFIGS)):
        corpus = wide_corpus(rng, int(rng.integers(150, 500)))
        config = ORACLE_CONFIGS[i % len(ORACLE_CONFIGS)]
        result = classify(corpus, WIDE_TAXONOMY, config)
        assert result == naive_classify(corpus, WIDE_TAXONOMY, config)
        table = result.assignments
        if config.mode != MODE_BROAD_AREA:
            width = len(table.tally[0])
            assert width >= 100
            n_open = np.count_nonzero(table.status != STATUSES.index(STATUS_SEEDED))
            crossed += n_open > classifier._BLOCK_CELLS // width
    assert crossed >= 5


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_vote_blocks_do_not_change_the_result(monkeypatch, block):
    # Every corpus below fits in one default block; a block of 1-7 open
    # articles puts block edges between articles, dangling and zero-reference
    # ones included.
    rng = np.random.default_rng(700 + block)
    seeded = STATUSES.index(STATUS_SEEDED)
    for mode in MODES:
        for tie_policy in TIE_POLICIES:
            config = ClassifierConfig(mode=mode, tie_policy=tie_policy)
            corpus, taxonomy = random_corpus(rng, max_articles=150)
            base = classify(corpus, taxonomy, config)
            table = base.assignments
            assert np.count_nonzero(table.status != seeded) > block
            with monkeypatch.context() as patch:
                # the kernel's block is _BLOCK_CELLS // width open articles
                width = max(len(table.tally[0]), 1)
                patch.setattr(classifier, "_BLOCK_CELLS", block * width)
                blocked = classify(corpus, taxonomy, config)
            got = blocked.assignments
            for column in ("status", "category", "area", "iteration", "votes"):
                np.testing.assert_array_equal(getattr(got, column), getattr(table, column))
            assert got.tally[0] == table.tally[0]
            for got_part, base_part in zip(got.tally[1:], table.tally[1:]):
                np.testing.assert_array_equal(got_part, base_part)
            assert blocked.iteration_stats == base.iteration_stats
            assert blocked.iterations_run == base.iterations_run
            assert blocked == naive_classify(corpus, taxonomy, config)


def test_evaluate_accuracy_trivial_cases():
    cfg = SyntheticConfig(
        num_fields=2,
        journals_per_field=1,
        num_general_journals=1,
        articles_per_journal_year=20,
        year_range=(2000, 2001),
        mean_refs=6.0,
        p_intra=0.9,
        field_citation_rate=0.5,
        general_field_mix=(0.5, 0.5),
        seed=6,
    )
    corpus, truth, taxonomy = generate_synthetic(cfg)
    result = classify(corpus, taxonomy)
    report = evaluate_accuracy(result, truth, taxonomy)
    assert 0.0 <= report.coverage <= 1.0
    assert report.total == len(corpus.articles)
    if report.coverage == 1.0 and report.broad_area_accuracy == 1.0:
        assert report.broad_area_error == 0.0
    assert sum(report.confusion.values()) == report.classified
    # truth must cover the result
    truth_missing = type(truth)(field_of={}, categories=truth.categories)
    with pytest.raises(ValidationError):
        evaluate_accuracy(result, truth_missing, taxonomy)


def test_evaluate_accuracy_half_wrong(toy_taxonomy):
    records = [
        journal("JA", ASTRO),
        journal("JO", ONCO),
        journal("JM", MULTI),
        article("P1", "JA", 2010),
        article("P2", "JO", 2010),
        article("U1", "JM", 2010),  # no references: stays unclassified
    ]
    result = classify(build_corpus(records), toy_taxonomy)
    assert "U1" in result.assignments and "NOPE" not in result.assignments

    class FakeTruth:
        # claims every article is astronomy; P2 is seeded oncology -> wrong
        field_of = {"P1": 0, "P2": 0, "U1": 0}
        categories = (ASTRO,)

        def category_of(self, a_id):
            return self.categories[self.field_of[a_id]]

    report = evaluate_accuracy(result, FakeTruth(), toy_taxonomy)
    assert (report.total, report.classified) == (3, 2)
    assert report.category_accuracy == 0.5
    assert report.broad_area_accuracy == 0.5
    assert report.confusion == {("Astronomy", "Astronomy"): 1, ("Astronomy", "Medicine"): 1}
    # Nothing classified: coverage 0 and no accuracy, so no error either.
    result = classify(build_corpus([records[2], records[5]]), toy_taxonomy)
    report = evaluate_accuracy(result, FakeTruth(), toy_taxonomy)
    assert (report.total, report.classified, report.coverage) == (1, 0, 0.0)
    assert report.broad_area_accuracy is None and report.broad_area_error is None


def test_config_validation(toy_taxonomy):
    with pytest.raises(ConfigError):
        ClassifierConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        ClassifierConfig(min_votes=0)
    with pytest.raises(ConfigError):
        ClassifierConfig(tie_policy="random")
    with pytest.raises(ConfigError):
        ClassifierConfig(mode="article-level")
    # Only non-bool ints pass: a NaN would compare false against every bound.
    for bad in (float("nan"), float("inf"), 2.5, 3.0, "3", True, None):
        with pytest.raises(ConfigError):
            ClassifierConfig(max_iterations=bad)
        with pytest.raises(ConfigError):
            ClassifierConfig(min_votes=bad)
    with pytest.raises(TypeError):
        classify(seeded_corpus(), toy_taxonomy, threads=1)


def test_emit_and_read_assignments(toy_taxonomy):
    corpus = seeded_corpus()
    result = classify(corpus, toy_taxonomy)
    text = emit_assignments(result)
    lines = text.splitlines()
    assert [ln.split("\t")[0] for ln in lines] == sorted(corpus.articles)
    unclassified = [ln for ln in lines if f"\t{STATUS_UNCLASSIFIED}\t" in ln]
    for ln in unclassified:
        cols = ln.split("\t")
        assert cols[1] == "" and cols[2] == ""
    table = read_assignments(text.splitlines(keepends=True), corpus)
    for a_id, a in result.assignments.items():
        assert table[a_id].category == a.category
        assert table[a_id].broad_area == a.broad_area
        assert table[a_id].status == a.status
        assert table[a_id].iteration == a.iteration


def test_emit_assignments_sorts_any_table():
    """A file's row order does not matter: a table's rows are its corpus's."""
    corpus, taxonomy = random_corpus(np.random.default_rng(5), max_articles=200)
    result = classify(corpus, taxonomy)
    text = emit_assignments(result)
    lines = text.splitlines(keepends=True)
    table, shuffled = (read_assignments(rows, corpus) for rows in (lines, lines[::-1]))
    assert shuffled.ids is table.ids is corpus.ids
    for column in ("category", "area", "status", "iteration", "votes"):
        assert np.array_equal(getattr(shuffled, column), getattr(table, column)), column
    assert (shuffled.categories, shuffled.areas) == (table.categories, table.areas)
    assert emit_assignments(ClassificationResult(shuffled, 1, ())) == text


def test_read_assignments_out_of_row_order_finds_each_row():
    """A line whose id is not the row after the previous line's is looked up:
    a shuffled pipeline file reads to the same table, and a repeated id or a
    stranger raises what it raises in a file in row order."""
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=4))
    lines = emit_assignments(classify(corpus, taxonomy)).splitlines(keepends=True)
    rng = np.random.default_rng(41)
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    table, reread = (read_assignments(rows, corpus) for rows in (lines, shuffled))
    for column in ("category", "area", "status", "iteration", "votes"):
        assert np.array_equal(getattr(reread, column), getattr(table, column)), column
    assert (reread.categories, reread.areas) == (table.categories, table.areas)

    def error_of(rows) -> str:
        with pytest.raises(ValidationError) as exc:
            read_assignments(rows, corpus)
        return str(exc.value)

    stranger = "ZZ\t\t\tunclassified\t0\t0\n"
    for rows in (lines, shuffled):
        # A repeat right after its first line, and one far after it.
        for first, at in ((100, 101), (100, 700), (699, 700)):
            repeated = rows[:at] + [rows[first]] + rows[at:]
            a_id = rows[first].split("\t")[0]
            assert error_of(repeated) == str(
                ValidationError("duplicate article id", at + 1, a_id)
            )
        strangers = rows[:500] + [stranger] + rows[500:]
        assert error_of(strangers) == str(
            ValidationError("assignments name 1 article(s) not in the corpus", token="ZZ")
        )
        strangers = rows[:500] + [stranger] + rows[500:800] + [stranger] + rows[800:]
        assert error_of(strangers) == str(ValidationError("duplicate article id", 802, "ZZ"))


def test_emit_and_evaluate_take_only_an_assignment_table(toy_taxonomy):
    result = classify(seeded_corpus(), toy_taxonomy)
    as_dict = dict(result.assignments.items())
    for assignments, name in ((as_dict, "dict"), ({}, "dict"), (None, "NoneType")):
        held = ClassificationResult(assignments, 1, ())
        message = f"assignments must be an AssignmentTable, got {name}$"
        with pytest.raises(ConfigError, match=message):
            emit_assignments(held)
        with pytest.raises(ConfigError, match=message):
            evaluate_accuracy(held, None, toy_taxonomy)


SEED_ROW ="P1\tOncology\tMedicine\tjournal-seeded\t0\t0"
OPEN_ROW = "P2\t\t\tunclassified\t0\t3"
REF_ROW = "P3\tAstronomy & Astrophysics\tAstronomy\treference-classified\t1\t4"

# rows of a malformed assignment file -> the first fault, as the row-by-row
# reader raised it: (class, message, line_no, token)
MALFORMED_ASSIGNMENTS = {
    "wrong-column-count": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\t0"],
        (
            ParseError,
            "assignment row needs 6 columns, got 5",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\t0\n",
        ),
    ),
    "empty-id": (
        [SEED_ROW, " \tOncology\tMedicine\tjournal-seeded\t0\t0"],
        (ParseError, "empty article id", 2, " \tOncology\tMedicine\tjournal-seeded\t0\t0\n"),
    ),
    "unknown-status": (
        [SEED_ROW, "P4\tOncology\tMedicine\tseeded\t0\t0"],
        (ParseError, "unknown status", 2, "seeded"),
    ),
    "no-area-on-a-labeled-status": (
        [SEED_ROW, "P4\t\t\treference-classified\t1\t2"],
        (ParseError, "status/broad_area mismatch", 2, "P4\t\t\treference-classified\t1\t2\n"),
    ),
    "area-on-unclassified": (
        [SEED_ROW, "P4\tOncology\tMedicine\tunclassified\t0\t0"],
        (
            ParseError,
            "status/broad_area mismatch",
            2,
            "P4\tOncology\tMedicine\tunclassified\t0\t0\n",
        ),
    ),
    "category-without-area": (
        [SEED_ROW, "P4\tOncology\t\tunclassified\t0\t0"],
        (ParseError, "category without broad_area", 2, "P4\tOncology\t\tunclassified\t0\t0\n"),
    ),
    "unknown-area": (
        [SEED_ROW, "P4\tOncology\tOncology\tjournal-seeded\t0\t0"],
        (ParseError, "unknown broad area", 2, "Oncology"),
    ),
    "non-integer-iteration": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\tone\t0"],
        (
            ParseError,
            "non-integer iteration or votes",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\tone\t0\n",
        ),
    ),
    "non-integer-votes": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\t0\t2.0"],
        (
            ParseError,
            "non-integer iteration or votes",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\t0\t2.0\n",
        ),
    ),
    "negative-iteration": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\t-3\t0"],
        (
            ParseError,
            "iteration and votes must be in [0, 2**63)",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\t-3\t0\n",
        ),
    ),
    "votes-past-int64": (
        [SEED_ROW, f"P4\tOncology\tMedicine\tjournal-seeded\t0\t{2**63}"],
        (
            ParseError,
            "iteration and votes must be in [0, 2**63)",
            2,
            f"P4\tOncology\tMedicine\tjournal-seeded\t0\t{2**63}\n",
        ),
    ),
    "oversized-votes": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\t0\t99999999999999999999999"],
        (
            ParseError,
            "iteration and votes must be in [0, 2**63)",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\t0\t99999999999999999999999\n",
        ),
    ),
    "duplicate-id": (
        [SEED_ROW, OPEN_ROW, "# comment", "", " P1 \t\t\tunclassified\t0\t0"],
        (ValidationError, "duplicate article id", 5, "P1"),
    ),
    "duplicate-before-bad-columns": (
        [SEED_ROW, OPEN_ROW, SEED_ROW, "P9\tOncology"],
        (ValidationError, "duplicate article id", 3, "P1"),
    ),
    "bad-columns-before-duplicate": (
        [SEED_ROW, "P9\tOncology", OPEN_ROW, SEED_ROW],
        (ParseError, "assignment row needs 6 columns, got 2", 2, "P9\tOncology\n"),
    ),
    "unknown-status-before-bad-votes": (
        [SEED_ROW, "P4\t\t\tpending\t0\t0", "P5\t\t\tunclassified\t0\tmany"],
        (ParseError, "unknown status", 2, "pending"),
    ),
    "bad-votes-before-unknown-status": (
        [SEED_ROW, "P5\t\t\tunclassified\t0\tmany", "P4\t\t\tpending\t0\t0"],
        (ParseError, "non-integer iteration or votes", 2, "P5\t\t\tunclassified\t0\tmany\n"),
    ),
    # P4 to P9 are not in the corpus.
    "strangers": (
        [SEED_ROW, "P9\t\t\tunclassified\t0\t0", OPEN_ROW, "P4\t\t\tunclassified\t0\t0"],
        (ValidationError, "assignments name 2 article(s) not in the corpus", None, "P4"),
    ),
    "stranger-repeated": (
        [SEED_ROW, "P9\t\t\tunclassified\t0\t0", " P9\t\t\tunclassified\t0\t1"],
        (ValidationError, "duplicate article id", 3, "P9"),
    ),
    "stranger-before-bad-columns": (
        ["P9\t\t\tunclassified\t0\t0", SEED_ROW, "P4\tOncology"],
        (ParseError, "assignment row needs 6 columns, got 2", 3, "P4\tOncology\n"),
    ),
    # Each later line repeats the head (the columns between id and votes) of
    # a line already read, so only its id, votes or column count can fail.
    "blank-id-on-a-repeated-head": (
        [SEED_ROW, " \tOncology\tMedicine\tjournal-seeded\t0\t5"],
        (ParseError, "empty article id", 2, " \tOncology\tMedicine\tjournal-seeded\t0\t5\n"),
    ),
    "bad-votes-on-a-repeated-head": (
        [OPEN_ROW, "P3\t\t\tunclassified\t0\tmany"],
        (ParseError, "non-integer iteration or votes", 2, "P3\t\t\tunclassified\t0\tmany\n"),
    ),
    "negative-votes-on-a-repeated-head": (
        [OPEN_ROW, "P3\t\t\tunclassified\t0\t-1"],
        (
            ParseError,
            "iteration and votes must be in [0, 2**63)",
            2,
            "P3\t\t\tunclassified\t0\t-1\n",
        ),
    ),
    "votes-past-int64-on-a-repeated-head": (
        [OPEN_ROW, f"P3\t\t\tunclassified\t0\t{2**63}"],
        (
            ParseError,
            "iteration and votes must be in [0, 2**63)",
            2,
            f"P3\t\t\tunclassified\t0\t{2**63}\n",
        ),
    ),
    "blank-id-before-bad-votes-on-a-repeated-head": (
        [OPEN_ROW, "\t\t\tunclassified\t0\tmany"],
        (ParseError, "empty article id", 2, "\t\t\tunclassified\t0\tmany\n"),
    ),
    # Seven columns whose last five are SEED_ROW's: the head holds a fourth
    # tab, so it is not the cached one.
    "seven-columns-ending-in-a-cached-tail": (
        [SEED_ROW, "P2\tX\tOncology\tMedicine\tjournal-seeded\t0\t0"],
        (
            ParseError,
            "assignment row needs 6 columns, got 7",
            2,
            "P2\tX\tOncology\tMedicine\tjournal-seeded\t0\t0\n",
        ),
    ),
    # Faults inside one line come in a fixed order, whatever the head.
    "bad-votes-before-a-negative-iteration-on-a-new-head": (
        [SEED_ROW, "P4\tOncology\tMedicine\tjournal-seeded\t-3\tmany"],
        (
            ParseError,
            "non-integer iteration or votes",
            2,
            "P4\tOncology\tMedicine\tjournal-seeded\t-3\tmany\n",
        ),
    ),
    "blank-id-before-unknown-status": (
        [SEED_ROW, "\t\t\tpending\t0\t0"],
        (ParseError, "empty article id", 2, "\t\t\tpending\t0\t0\n"),
    ),
    # Line 2 repeats OPEN_ROW's head with votes padded by "\x1c", which
    # str.strip strips: it reads, so its repeat is the first fault.
    "padded-votes-on-a-repeated-head-then-duplicate": (
        [OPEN_ROW, "P3\t\t\tunclassified\t0\t\x1c2", "P3\t\t\tunclassified\t0\t2"],
        (ValidationError, "duplicate article id", 3, "P3"),
    ),
    "padded-head-then-duplicate": (
        [SEED_ROW, "P2\t Oncology\tMedicine \tjournal-seeded\t0\t1", "P2" + SEED_ROW[2:]],
        (ValidationError, "duplicate article id", 3, "P2"),
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ASSIGNMENTS))
def test_read_assignments_raises_the_first_fault(name):
    rows, (cls, message, line_no, token) = MALFORMED_ASSIGNMENTS[name]
    with pytest.raises(cls) as exc:
        read_assignments([row + "\n" for row in rows], seeded_corpus())
    assert type(exc.value) is cls
    assert (exc.value.line_no, exc.value.token) == (line_no, token)
    assert str(exc.value) == str(InputError(message, line_no, token))


def test_read_assignments_strips_padded_fields():
    lines = [
        "# padded fields strip to valid values\n",
        " P1 \t Oncology \tMedicine \t journal-seeded\t 0 \t+0\r\n",
        "\n",
        "P2\t \t\tunclassified \t0\t 3\n",
        REF_ROW + "  \n",
    ]
    table = read_assignments(lines, seeded_corpus())
    assert list(table) == ["P1", "P2", "P3"]
    assert dict(table) == {
        "P1": Assignment("P1", ONCO, "Medicine", STATUS_SEEDED, 0, VoteTally({}, 0)),
        "P2": Assignment("P2", None, None, STATUS_UNCLASSIFIED, 0, VoteTally({}, 3)),
        "P3": Assignment("P3", ASTRO, "Astronomy", STATUS_REFERENCE, 1, VoteTally({}, 4)),
    }


def test_read_assignments_reads_a_padded_head_like_its_twin():
    # P2's head differs from P1's only by padding: the same names, and P2's
    # own votes.
    lines = [SEED_ROW + "\n", "P2\t Oncology\tMedicine \t journal-seeded\t0 \t7\n"]
    table = read_assignments(lines, seeded_corpus())
    assert table.categories == (ONCO,) and table.areas == ("Medicine",)
    assert table["P1"] == Assignment("P1", ONCO, "Medicine", STATUS_SEEDED, 0, VoteTally({}, 0))
    assert table["P2"] == Assignment("P2", ONCO, "Medicine", STATUS_SEEDED, 0, VoteTally({}, 7))
    # P3 repeats OPEN_ROW's head with votes that int() reads only once stripped.
    rows = ("P3\t\t\tunclassified\t0\t\x1c2\x1c\n", "P3\t\t\tunclassified\t0\t2\n")
    padded, twin = (read_assignments([OPEN_ROW + "\n", row], seeded_corpus()) for row in rows)
    assert dict(padded) == dict(twin)
    assert padded["P3"] == Assignment("P3", None, None, STATUS_UNCLASSIFIED, 0, VoteTally({}, 2))


def test_read_assignments_traced_peak_is_bounded():
    """Each distinct head is held once, so a row costs its head index and
    its votes; votes that are all distinct add one int object per row."""
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=10))
    text = emit_assignments(classify(corpus, taxonomy))
    assert text.count("\n") == 2600
    distinct = "".join(
        f"{line.rsplit(chr(9), 1)[0]}\t{10**6 + i}\n" for i, line in enumerate(text.splitlines())
    )
    for text, bound in ((text, 1.25), (distinct, 1.75)):
        lines = text.splitlines(keepends=True)
        peak = traced_peak(lambda: read_assignments(lines, corpus))
        assert peak <= bound * len(text), f"traced peak {peak / len(text):.2f}x the text length"


def test_emit_assignments_traced_peak_is_bounded():
    """One block of row strings at a time: the peak is about the text and its blocks."""
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=40))
    result = classify(corpus, taxonomy)
    text = emit_assignments(result)
    assert len(corpus.ids) == 10400
    peak = traced_peak(lambda: emit_assignments(result))
    assert peak <= 3 * len(text), f"traced peak {peak / len(text):.1f}x the text length"


def test_classify_traced_peak_is_bounded():
    """At the benchmark's size the kernel holds no copy of the references and
    no tally matrix: each block keeps only its articles' totals, leaders and
    the cells of the labels it sets, so the peak is the result and one
    block's arrays, under 6 bytes per reference."""
    for size, min_refs, bound in ((40, 200_000, 20), (200, 1_000_000, 6)):
        corpus, _, taxonomy = generate_synthetic(open_field_config(articles_per_journal_year=size))
        n_refs = len(corpus.refs)
        assert n_refs > min_refs
        for mode in MODES:
            config = ClassifierConfig(mode=mode)
            peak = traced_peak(lambda: classify(corpus, taxonomy, config))
            per_ref = peak / n_refs
            assert peak <= bound * n_refs, f"{size} per journal-year, {mode}: {per_ref:.1f} B/ref"


def test_classify_traced_peak_does_not_grow_with_the_taxonomy():
    # One corpus shape with 10 and with 250 seed labels: an n_open x width
    # tally matrix alone would take 1,000 bytes per open article at 250.
    for n_labels in (10, 250):
        taxonomy = wide_taxonomy(n_labels)
        corpus = wide_corpus(np.random.default_rng(5), 10_000, taxonomy)
        result, _, peak = traced(lambda: classify(corpus, taxonomy))
        table = result.assignments
        assert len(table.tally[0]) == n_labels
        n_open = np.count_nonzero(table.status != STATUSES.index(STATUS_SEEDED))
        assert n_open > 5000
        assert peak <= 250 * n_open, f"{n_labels} labels: {peak / n_open:.0f} B per open article"


def test_classify_traced_peak_does_not_grow_with_max_iter(toy_taxonomy):
    # Ten copies of an X/Y pair whose labels flip every iteration (each cites
    # the other and a seed of its own), so every other pass sets them again:
    # the kernel keeps one tally record per article, not one per pass. Only
    # the per-iteration stats outlive the call.
    records = [journal("JA", ASTRO), journal("JO", ONCO), journal("JM", MULTI)]
    records += [article("P", "JA", 2010), article("Q", "JO", 2010)]
    for i in range(10):
        records.append(article(f"X{i}", "JM", 2011, ("P", f"Y{i}")))
        records.append(article(f"Y{i}", "JM", 2011, ("Q", f"X{i}")))
    corpus = build_corpus(records)
    for max_iterations in (4, 2000):
        config = ClassifierConfig(max_iterations=max_iterations)
        result, live, peak = traced(lambda: classify(corpus, toy_taxonomy, config))
        assert result.iterations_run == max_iterations
        assert result.assignments["X0"].status == STATUS_UNCLASSIFIED
        assert peak - live <= 64 * 1024, f"max_iter {max_iterations}: {peak - live} B"
