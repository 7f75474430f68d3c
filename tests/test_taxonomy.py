"""Taxonomy loading, lookups, and the classifier-journal predicate."""

from __future__ import annotations

import numpy as np
import pytest

from refclass.errors import ParseError, UnknownNameError, ValidationError
from refclass.taxonomy import (
    BROAD_AREA_SET,
    BROAD_AREAS,
    SubjectCategory,
    Taxonomy,
    emit_taxonomy,
    load_taxonomy,
)

from conftest import TOY_TAXONOMY_TEXT, journal


def test_canonical_broad_areas():
    assert len(BROAD_AREAS) == 14
    assert len(BROAD_AREA_SET) == 14
    assert "Social sciences" in BROAD_AREA_SET
    assert "Professional fields" in BROAD_AREA_SET


def test_load_small_file():
    text = "A\tPhysics\t\nB\tChemistry\t\nC\tPhysics\t\n"
    tax = load_taxonomy(text.splitlines(keepends=True))
    assert len(tax) == 3
    assert tax.areas_in_use == ("Chemistry", "Physics")


def test_unknown_area_names_line_and_token():
    text = "A\tPhysics\t\nB\tAlchemy\t\n"
    with pytest.raises(ValidationError) as exc:
        load_taxonomy(text.splitlines(keepends=True))
    assert exc.value.line_no == 2
    assert exc.value.token == "Alchemy"


def test_multidisciplinary_category_excluded_from_targets(toy_taxonomy):
    assert "Multidisciplinary Sciences" in toy_taxonomy
    assert "Multidisciplinary Sciences" not in toy_taxonomy.assignment_targets
    assert "Oncology" in toy_taxonomy.assignment_targets


def test_wrong_column_count_is_parse_error():
    with pytest.raises(ParseError) as exc:
        load_taxonomy(["A\tPhysics\n"])
    assert exc.value.line_no == 1


def test_unknown_flag_rejected():
    with pytest.raises(ParseError):
        load_taxonomy(["A\tPhysics\tinterdisciplinary\n"])


def test_duplicate_category_rejected():
    text = "A\tPhysics\t\nA\tChemistry\t\n"
    with pytest.raises(ValidationError) as exc:
        load_taxonomy(text.splitlines(keepends=True))
    assert exc.value.token == "A"


def test_degenerate_single_area_rejected():
    with pytest.raises(ValidationError):
        load_taxonomy(["A\tPhysics\t\n", "B\tPhysics\t\n"])
    with pytest.raises(ValidationError):
        Taxonomy([])


def test_comments_blanks_and_whitespace_trimming():
    text = "# comment\n\n  A \t Physics \t \nB\tChemistry\t\n"
    tax = load_taxonomy(text.splitlines(keepends=True))
    # only surrounding whitespace is trimmed; names compared byte-wise
    assert "A" in tax
    assert load_taxonomy(["A\tPhysics\t\n", "a\tChemistry\t\n"]).broad_area_of("a") == "Chemistry"


def test_broad_area_lookup(toy_taxonomy):
    assert toy_taxonomy.broad_area_of("Astronomy & Astrophysics") == "Astronomy"
    with pytest.raises(UnknownNameError):
        toy_taxonomy.broad_area_of("No Such Category")


def test_every_loaded_category_resolves(toy_taxonomy):
    # exhaustive: broad_area_of is total over loaded categories
    for name in toy_taxonomy.categories:
        area = toy_taxonomy.broad_area_of(name)
        assert area in BROAD_AREA_SET
    assert len(set(toy_taxonomy.areas_in_use)) <= 14
    for name in toy_taxonomy.assignment_targets:
        assert toy_taxonomy.broad_area_of(name) in BROAD_AREA_SET


def test_classifier_journal_predicate(toy_taxonomy):
    assert toy_taxonomy.is_classifier_journal(journal("J1", "Astronomy & Astrophysics"))
    assert not toy_taxonomy.is_classifier_journal(journal("J2", "Multidisciplinary Sciences"))
    assert not toy_taxonomy.is_classifier_journal(
        journal("J3", ("Oncology", "Cell Biology"))
    )
    # multidisciplinary alongside others is still not a classifier journal
    assert not toy_taxonomy.is_classifier_journal(
        journal("J4", ("Oncology", "Multidisciplinary Sciences"))
    )
    with pytest.raises(UnknownNameError):
        toy_taxonomy.is_classifier_journal(journal("J5", "No Such Category"))


def test_check_journals_lists_every_unknown_category_sorted(toy_taxonomy):
    journals = [
        journal("JB", ("Oncology", "No Such")),
        journal("JA", "Zeta"),
        journal("JO", "Oncology"),
        journal("JC", ("Beta", "Cell Biology", "Alpha")),
    ]
    with pytest.raises(ValidationError) as exc:
        toy_taxonomy.check_journals(journals)
    assert str(exc.value) == (
        "journals reference unknown categories: JA:Zeta, JB:No Such, JC:Alpha, JC:Beta"
    )
    toy_taxonomy.check_journals(journals[2:3])
    toy_taxonomy.check_journals([])


def test_classifier_journal_iff_property(toy_taxonomy):
    # predicate true <=> exactly one category and it is an assignment target
    rng = np.random.default_rng(5)
    names = sorted(toy_taxonomy.categories)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(names), size=k, replace=False)
        cats = tuple(names[int(p)] for p in sorted(picks))
        j = journal("JX", cats)
        expected = len(cats) == 1 and cats[0] in toy_taxonomy.assignment_targets
        assert toy_taxonomy.is_classifier_journal(j) == expected


def test_round_trip_is_idempotent(toy_taxonomy):
    emitted = emit_taxonomy(toy_taxonomy)
    reloaded = load_taxonomy(emitted.splitlines(keepends=True))
    assert emit_taxonomy(reloaded) == emitted
    assert sorted(reloaded.categories) == sorted(toy_taxonomy.categories)
    assert reloaded.assignment_targets == toy_taxonomy.assignment_targets


@pytest.mark.parametrize(
    "category",
    [
        SubjectCategory(" Onc ", "Medicine"),
        SubjectCategory("Onc\xa0", "Medicine"),
        SubjectCategory("#Onc", "Medicine"),
        SubjectCategory("Oncology", "Medicine", "yes"),
        SubjectCategory("Oncology", "Medicine", 1),
        SubjectCategory("Oncology", "Medicine", None),
    ],
)
def test_categories_that_would_not_read_back_are_rejected(category):
    # load_taxonomy strips each column, skips "#" lines and knows only the
    # multidisciplinary flag, so emit_taxonomy could not write these faithfully
    with pytest.raises(ValidationError):
        Taxonomy([category, SubjectCategory("Cell Biology", "Bioscience")])


def test_indented_hash_name_is_rejected_not_emitted_as_a_comment():
    with pytest.raises(ValidationError) as exc:
        load_taxonomy([" #Onc\tMedicine\t\n", "Cell Biology\tBioscience\t\n"])
    assert exc.value.token == "#Onc"


def test_direct_construction_validates():
    with pytest.raises(ValidationError):
        Taxonomy([SubjectCategory("A", "Nonsense")])
    with pytest.raises(ValidationError):
        Taxonomy([SubjectCategory("A", "Physics"), SubjectCategory("A", "Chemistry")])
