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

from conftest import (
    article,
    journal,
    open_field_config,
    random_corpus,
    ten_field_config,
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


def test_determinism_and_thread_independence(toy_taxonomy):
    rng = np.random.default_rng(4321)
    corpus, taxonomy = random_corpus(rng, max_articles=400)
    base = classify(corpus, taxonomy)
    again = classify(corpus, taxonomy)
    assert base == again
    assert emit_assignments(base) == emit_assignments(again)


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(2)
    configs = [
        ClassifierConfig(),
        ClassifierConfig(tie_policy=TIE_LEXICOGRAPHIC),
        ClassifierConfig(min_votes=2),
        ClassifierConfig(mode=MODE_BROAD_AREA),
        ClassifierConfig(max_iterations=1),
        ClassifierConfig(mode=MODE_BROAD_AREA, tie_policy=TIE_LEXICOGRAPHIC),
        ClassifierConfig(max_iterations=2, min_votes=3),
    ]
    for i in range(2 * len(configs)):
        corpus, taxonomy = random_corpus(rng, max_articles=300)
        config = configs[i % len(configs)]
        assert classify(corpus, taxonomy, config) == naive_classify(corpus, taxonomy, config)


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
    table = read_assignments(text.splitlines(keepends=True))
    for a_id, a in result.assignments.items():
        assert table[a_id].category == a.category
        assert table[a_id].broad_area == a.broad_area
        assert table[a_id].status == a.status
        assert table[a_id].iteration == a.iteration


def test_emit_assignments_sorts_any_mapping():
    corpus, taxonomy = random_corpus(np.random.default_rng(5), max_articles=200)
    result = classify(corpus, taxonomy)
    text = emit_assignments(result)
    backwards = dict(reversed(list(result.assignments.items())))
    assert emit_assignments(ClassificationResult(backwards, 1, ())) == text
    shuffled = read_assignments(reversed(text.splitlines(keepends=True)))
    assert list(shuffled) == list(backwards)
    assert emit_assignments(ClassificationResult(shuffled, 1, ())) == text


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
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ASSIGNMENTS))
def test_read_assignments_raises_the_first_fault(name):
    rows, (cls, message, line_no, token) = MALFORMED_ASSIGNMENTS[name]
    with pytest.raises(cls) as exc:
        read_assignments([row + "\n" for row in rows])
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
    table = read_assignments(lines)
    assert list(table) == ["P1", "P2", "P3"]
    assert dict(table) == {
        "P1": Assignment("P1", ONCO, "Medicine", STATUS_SEEDED, 0, VoteTally({}, 0)),
        "P2": Assignment("P2", None, None, STATUS_UNCLASSIFIED, 0, VoteTally({}, 3)),
        "P3": Assignment("P3", ASTRO, "Astronomy", STATUS_REFERENCE, 1, VoteTally({}, 4)),
    }


def test_read_assignments_traced_peak_is_bounded():
    corpus, _, taxonomy = generate_synthetic(ten_field_config(articles_per_journal_year=10))
    text = emit_assignments(classify(corpus, taxonomy))
    lines = text.splitlines(keepends=True)
    assert len(lines) == 2600
    peak = traced_peak(lambda: read_assignments(lines))
    assert peak <= 6 * len(text), f"traced peak {peak / len(text):.1f}x the text length"


def test_classify_traced_peak_is_bounded():
    corpus, _, taxonomy = generate_synthetic(open_field_config(articles_per_journal_year=40))
    n_refs = len(corpus.refs)
    assert n_refs > 200_000
    for mode in MODES:
        config = ClassifierConfig(mode=mode)
        peak = traced_peak(lambda: classify(corpus, taxonomy, config))
        assert peak <= 20 * n_refs, f"{mode}: traced peak {peak / n_refs:.1f} bytes per reference"
