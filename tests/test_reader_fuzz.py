"""Fuzzed library readers: only RefclassError escapes; accepted corpora and taxonomies round-trip."""

from __future__ import annotations

import io
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from naive_assignments import naive_read_assignments

from refclass.classifier import STATUS_UNCLASSIFIED, Assignment, VoteTally, read_assignments
from refclass.corpus import emit_corpus, read_corpus
from refclass.errors import RefclassError, UnknownNameError
from refclass.taxonomy import SubjectCategory, Taxonomy, emit_taxonomy, load_taxonomy

# Every separator the readers split on, the comment mark, the line ends a
# file reader translates, and whitespace that str.strip() removes.
SEPARATORS = "\t,;#\n\r\x85\u3000\xa0 "
TOKEN = st.text(alphabet=SEPARATORS + "AJPX12", max_size=6)
PAD = st.sampled_from(("", " ", "\r", "\xa0", "\u3000", "\x85"))
JOURNAL_ROWS = "J\tJ1\tJournal One\tOncology\nJ\tJ2\tJournal Two\tOncology;Cell Biology\n"
TAXONOMY_ROWS = "Oncology\tMedicine\t\nCell Biology\tBioscience\t\n"
ARTICLE_ROWS = "".join(f"A\tP{i}\tJ1\t2010\tarticle\t\n" for i in (1, 2, 3))
STRANGERS = "ValidationError:assignments name "


def name(head: str) -> st.SearchStrategy[str]:
    """``head`` and then characters every corpus token may hold inside."""
    return st.text(alphabet="ab# \x85\xa0\u3000", max_size=3).map(head.__add__)


def cell(noisy: bool, *values: str | st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """A padded value: a string or a draw among ``values``, or a noisy token too if ``noisy``."""
    options = [v if isinstance(v, st.SearchStrategy) else st.just(v) for v in values]
    value = st.one_of(*options, TOKEN) if noisy else st.one_of(*options)
    return st.builds(lambda a, v, b: a + v + b, PAD, value, PAD)


def row(*cells: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(*cells).map("\t".join)


def corpus_row(noisy: bool) -> st.SearchStrategy[str]:
    article = row(
        st.just("A"),
        cell(noisy, name("P")),
        cell(noisy, "J1", "J2"),
        cell(noisy, "2010", "2011"),
        cell(noisy, "article", "review", "other"),
        st.lists(cell(noisy, name("X"), "P1"), max_size=4).map(",".join),
    )
    journal = row(
        st.just("J"),
        cell(noisy, name("J")),
        cell(noisy, name("Journal"), ""),
        cell(noisy, "Oncology", name("C"), st.tuples(name("C"), name("C")).map(";".join)),
    )
    return article | journal


def taxonomy_row(noisy: bool) -> st.SearchStrategy[str]:
    return row(
        cell(noisy, "Astronomy", "Geochemistry", "Multidisciplinary Sciences"),
        cell(noisy, "Astronomy", "Geosciences", "Bioscience"),
        cell(noisy, "", "multidisciplinary"),
    )


def assignment_row(noisy: bool) -> st.SearchStrategy[str]:
    return row(
        cell(noisy, "P1", "P2", "P3", "X9"),
        cell(noisy, "Oncology", ""),
        cell(noisy, "Medicine", ""),
        cell(noisy, "journal-seeded", "reference-classified", "tie-broken", "unclassified"),
        cell(noisy, "0", "1"),
        cell(noisy, "0", "3"),
    )


# Heads (the columns between id and votes): three that pass, the second
# being the first padded, one with an unknown status and one a column short.
# Drawn from so few, a text repeats them.
HEADS = (
    "Oncology\tMedicine\tjournal-seeded\t0",
    " Oncology\tMedicine \tjournal-seeded\t0",
    "\t\tunclassified\t1",
    "\t\tpending\t0",
    "Oncology\tMedicine\tjournal-seeded",
)


def repeated_head_row(noisy: bool) -> st.SearchStrategy[str]:
    return row(
        cell(noisy, "P1", "P2", "P3", "X9", ""),
        st.sampled_from(HEADS),
        # str.strip() removes "\x1c" and int() does not.
        cell(noisy, "0", "3", "-1", "many", str(2**63), "\x1c2"),
    )


def text_of(
    row_of: Callable[[bool], st.SearchStrategy[str]], header: str = ""
) -> st.SearchStrategy[str]:
    """Rows after the valid ``header`` rows or not; half the texts mix in noise."""
    head = st.sampled_from((header, ""))
    clean = st.lists(row_of(False), max_size=6)
    noisy = st.lists(row_of(True) | TOKEN, max_size=6)
    return st.builds(lambda h, rows: h + "\n".join(rows), head, clean | noisy)


def lines_of(text: str) -> list[str]:
    """The text as a library caller passes it: lines split on "\\n" only."""
    return list(io.StringIO(text, newline="\n"))


def read_or_reject(reader, text: str):
    try:
        return reader(lines_of(text))
    except RefclassError:
        return None


def assignment_outcome(reader, text: str, corpus):
    """The arrays of the table ``reader`` makes of ``text`` over ``corpus``,
    or the error it raises, as type, message, line and token."""
    try:
        table = reader(lines_of(text), corpus)
    except RefclassError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "token", None)
    columns = (table.category, table.area, table.status, table.iteration, table.votes)
    return table.ids, table.categories, table.areas, [(c.dtype, c.tolist()) for c in columns]


def assert_reads_like_the_naive_reader(text: str, corpora) -> None:
    for corpus in corpora:
        expected = assignment_outcome(naive_read_assignments, text, corpus)
        assert assignment_outcome(read_assignments, text, corpus) == expected


def assignment_fault(text: str, corpus) -> str | None:
    """The error reading ``text`` against ``corpus`` raises, as type and message."""
    try:
        read_assignments(lines_of(text), corpus)
    except RefclassError as exc:
        return f"{type(exc).__name__}:{exc}"
    return None


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    corpus=text_of(corpus_row, JOURNAL_ROWS),
    assignments=text_of(assignment_row),
    taxonomy=text_of(taxonomy_row, TAXONOMY_ROWS),
)
@example(corpus="J\tJ1\tN\tOncology\nA\tP\r1\tJ1\t2010\tarticle\t\n", assignments="", taxonomy="")
def test_readers_raise_only_refclass_errors_and_corpora_round_trip(corpus, assignments, taxonomy):
    # Against the corpus of P1 to P3 and against an empty one, where every id
    # is a stranger: ids outside the corpus are checked only once every line
    # parses, so every other fault is the same against both.
    corpora = (read_corpus(lines_of(JOURNAL_ROWS + ARTICLE_ROWS)), read_corpus([]))
    faults = [assignment_fault(assignments, c) for c in corpora]
    assert_reads_like_the_naive_reader(assignments, corpora)
    if any(f is not None and not f.startswith(STRANGERS) for f in faults):
        assert faults[0] == faults[1]
    read_or_reject(load_taxonomy, taxonomy)
    accepted = read_or_reject(read_corpus, corpus)
    if accepted is not None:
        emitted = emit_corpus(accepted)
        # A file is read with universal newlines, so a "\r" inside a token
        # would end its line there.
        assert emit_corpus(read_corpus(io.StringIO(emitted, newline=None))) == emitted


@settings(max_examples=250, deadline=None, derandomize=True)
@given(corpus=text_of(corpus_row, JOURNAL_ROWS))
@example(corpus=JOURNAL_ROWS + "A\tP9\tJ1\t2010\tarticle\tX1,P1\nA\tP1\tJ2\t2011\treview\tXa\n")
@example(corpus=JOURNAL_ROWS + "A\tA9\tJ1\t2010\tarticle\tA10,A1\nA\tA10\tJ1\t2011\tother\t\n")
@example(
    corpus=JOURNAL_ROWS
    + "A\tP\u3000a\tJ1\t2010\treview\tP\xa0,P\x85b\nA\tP\xa0\tJ1\t2010\tother\t\n"
)
def test_row_of_inverts_the_sorted_ids(corpus):
    """``row_of[ids[r]] == r``; any other key, a dangling id or a non-``str``
    one included, is a ``KeyError``, not ``in``, and ``article`` of it an
    ``UnknownNameError``. ``articles`` and an assignment table answer the
    same keys, in the same order, with the record and the assignment of the
    row."""
    accepted = read_or_reject(read_corpus, corpus)
    if accepted is None:
        return
    ids = accepted.ids
    assert list(ids) == sorted(ids)
    unclassified = VoteTally({}, 0)
    views = [
        (accepted.row_of, lambda r: r),
        (accepted.articles, accepted._record),
        (
            read_assignments([], accepted),
            lambda r: Assignment(ids[r], None, None, STATUS_UNCLASSIFIED, 0, unclassified),
        ),
    ]
    # Dangling ids, and strings that sort right next to an id.
    near = {p for a_id in ids for p in (a_id + "a", a_id[:-1], a_id + "\x00", "")}
    strangers = [*accepted.dangling_ids, *sorted(near - set(ids)), 0, None, b"P1", ("P1",), ["P1"]]
    for view, value in views:
        assert len(view) == len(ids) and list(view) == list(ids)
        for r, a_id in enumerate(ids):
            assert a_id in view and view[a_id] == value(r) and view.get(a_id) == value(r)
        for key in strangers:
            assert key not in view and view.get(key) is None
            with pytest.raises(KeyError):
                view[key]
    for key in strangers:
        with pytest.raises(UnknownNameError):
            accepted.article(key)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(taxonomy=text_of(taxonomy_row, TAXONOMY_ROWS))
@example(taxonomy="Onc\rology\tMedicine\t\nCell Biology\tBioscience\t\n")
@example(taxonomy=" #Onc\tMedicine\t\nCell Biology\tBioscience\t\n")
def test_accepted_taxonomies_round_trip(taxonomy):
    accepted = read_or_reject(load_taxonomy, taxonomy)
    if accepted is not None:
        emitted = emit_taxonomy(accepted)
        assert emit_taxonomy(load_taxonomy(io.StringIO(emitted, newline=None))) == emitted


@settings(max_examples=250, deadline=None, derandomize=True)
@given(assignments=text_of(repeated_head_row))
@example(assignments="P1\t\t\tunclassified\t1\t0\n \t\t\tunclassified\t1\t3")
@example(assignments="P1\t\t\tunclassified\t1\t0\nP2\t\t\tunclassified\t1\t\x1c2")
@example(assignments="P1\t\t\tunclassified\t1\t0\n#P2\t\t\tunclassified\t1\t3")
def test_read_assignments_matches_the_line_by_line_reader(assignments):
    """Lines that repeat a head, padded or not, with good and bad ids and
    votes: the reader that checks each distinct head once gives the table or
    the error that checking every line in full gives."""
    small = read_corpus(lines_of(JOURNAL_ROWS + ARTICLE_ROWS))
    assert_reads_like_the_naive_reader(assignments, (small, read_corpus([])))


NAME_CHARS = "Onc# \t\r\n\x85\xa0\u3000"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    categories=st.lists(
        st.tuples(
            st.text(alphabet=NAME_CHARS, max_size=5),
            st.sampled_from(("Medicine", "Bioscience", " Medicine")),
            st.sampled_from((False, True, "yes", 0, 1, None)),
        ),
        max_size=4,
    )
)
@example(categories=[(" Onc ", "Medicine", False), ("Cell Biology", "Bioscience", False)])
@example(categories=[("Onc", "Medicine", "yes"), ("Cell Biology", "Bioscience", False)])
def test_constructed_taxonomies_round_trip(categories):
    try:
        taxonomy = Taxonomy([SubjectCategory(*fields) for fields in categories])
    except RefclassError:
        return
    emitted = emit_taxonomy(taxonomy)
    reread = load_taxonomy(io.StringIO(emitted, newline=None))
    assert reread.categories == taxonomy.categories
    assert emit_taxonomy(reread) == emitted
