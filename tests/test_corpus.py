"""Corpus reading and building, citation-index inversion, validation."""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import refclass.corpus as corpus_module
from refclass.corpus import (
    YEAR_BOUNDS,
    ArticleRecord,
    JournalRecord,
    _assemble,
    _by_citer,
    _Columns,
    _id_order,
    build_corpus,
    emit_corpus,
    read_corpus,
    read_corpus_file,
    validate_corpus,
)
from refclass.errors import (
    ConfigError,
    InputError,
    ParseError,
    UnknownNameError,
    ValidationError,
)
from refclass.indicators import IndicatorConfig
from refclass.synthetic import generate_synthetic

from conftest import article, journal, random_corpus, ten_field_config, traced, traced_peak


def test_parse_article_row():
    corpus = read_corpus(["J\tJ1\tName\tOncology\n", "A\tP1\tJ1\t2010\tarticle\tP2,P3"])
    assert corpus.article("P1") == ArticleRecord("P1", "J1", 2010, "article", ("P2", "P3"))


def test_parse_strips_whitespace_around_every_field():
    # no plain space in the reference field: only unprintable whitespace
    line = "A\t P1\u3000\tJ1 \t 2010\t article\t\xa0P2,P3\u2003,P4\u3000X\n"
    expected = ArticleRecord("P1", "J1", 2010, "article", ("P2", "P3", "P4\u3000X"))
    corpus = read_corpus(["J\tJ1\tName\tOncology\n", line])
    assert corpus.article("P1") == expected


def test_parse_journal_row():
    corpus = read_corpus(
        ["J\tJ1\tNature-like\tMultidisciplinary Sciences\n", "J\tJ2\tBoth\tOncology;Cell Biology"]
    )
    assert corpus.journal("J1") == JournalRecord(
        "J1", "Nature-like", ("Multidisciplinary Sciences",)
    )
    assert corpus.journal("J2").categories == ("Oncology", "Cell Biology")


# Skipped lines put the row under test at the line number each test expects.
SKIPPED = ["# corpus\n", "\n", "   \n", "# J\tJ1\tName\n", "\t\n", "#\n"]


def test_parse_non_integer_year():
    with pytest.raises(ParseError) as exc:
        read_corpus(SKIPPED + ["A\tP9\tJ1\t20X5\tarticle\t"])
    assert "non-integer year" in str(exc.value)
    assert exc.value.line_no == 7


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("A\tP1\tJ1\t2010\tarticle", "6 columns"),
        ("A\tP1\tJ1\t2010\tletter\t", "doc_type"),
        ("A\tP1\tJ1\t2010\tarticle\tP2,,P3", "empty reference"),
        ("Q\tP1\tJ1", "unknown record tag"),
        ("J\tJ1\tName", "4 columns"),
        ("J\tJ1\tName\t", "no categories"),
        ("J\tJ1\tName\tOncology;;Cell Biology", "empty category"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(ParseError) as exc:
        read_corpus(SKIPPED[:2] + [line])
    assert fragment in str(exc.value)
    assert exc.value.line_no == 3


def test_read_corpus_skips_comments_and_blanks():
    text = "# corpus\n\nJ\tJ1\tN\tOncology\nA\tP1\tJ1\t2010\tarticle\t\n"
    corpus = read_corpus(text.splitlines(keepends=True))
    assert (corpus.ids, corpus.journal_ids) == (("P1",), ("J1",))


def test_single_edge_inversion():
    corpus = build_corpus(
        [
            journal("J1", "Oncology"),
            article("P1", "J1", 2010),
            article("P2", "J1", 2011, refs=("P1",)),
        ]
    )
    assert corpus.citation_index["P1"] == (("P2", 2011),)
    assert "P2" not in corpus.citation_index


def test_dangling_reference_allowed_and_counted():
    corpus = build_corpus(
        [journal("J1", "Oncology"), article("P1", "J1", 2010, refs=("X",))]
    )
    assert "X" not in corpus.citation_index
    assert corpus.dangling_reference_count == 1


def test_duplicate_references_collapse_once():
    corpus = build_corpus(
        [
            journal("J1", "Oncology"),
            article("P1", "J1", 2010),
            article("P2", "J1", 2011, refs=("P1", "P1", "P1")),
        ]
    )
    assert corpus.articles["P2"].references == ("P1",)
    assert corpus.citation_index["P1"] == (("P2", 2011),)


def test_build_errors():
    with pytest.raises(ValidationError, match="duplicate article"):
        build_corpus(
            [journal("J1", "Oncology"), article("P1", "J1", 2010), article("P1", "J1", 2011)]
        )
    with pytest.raises(ValidationError, match="duplicate journal"):
        build_corpus([journal("J1", "Oncology"), journal("J1", "Oncology")])
    with pytest.raises(ValidationError, match="unknown journals.*J9"):
        build_corpus([journal("J1", "Oncology"), article("P1", "J9", 2010)])
    with pytest.raises(ValidationError, match="cites itself"):
        build_corpus([journal("J1", "Oncology"), article("P1", "J1", 2010, refs=("P1",))])
    with pytest.raises(ValidationError, match="outside bounds"):
        build_corpus([journal("J1", "Oncology"), article("P1", "J1", 1666)])


def test_journal_order_independent():
    a = build_corpus([journal("J1", "Oncology"), article("P1", "J1", 2010)])
    b = build_corpus([article("P1", "J1", 2010), journal("J1", "Oncology")])
    assert emit_corpus(a) == emit_corpus(b)


def test_unknown_lookups():
    corpus = build_corpus([journal("J1", "Oncology"), article("P1", "J1", 2010)])
    with pytest.raises(UnknownNameError):
        corpus.article("P9")
    with pytest.raises(UnknownNameError):
        corpus.journal("J9")


def brute_force_index(articles: dict) -> dict:
    # independent double loop over all reference lists
    index: dict[str, list[tuple[str, int]]] = {}
    for cited_id in articles:
        for citer in articles.values():
            if cited_id in citer.references:
                index.setdefault(cited_id, []).append((citer.id, citer.year))
    return {k: tuple(sorted(v)) for k, v in index.items()}


def test_citation_index_matches_brute_force_on_random_corpus():
    rng = np.random.default_rng(1234)
    corpus, _ = random_corpus(rng, max_articles=1000)
    expected = brute_force_index(dict(corpus.articles))
    got = {k: tuple(sorted(v)) for k, v in corpus.citation_index.items()}
    assert got == expected


def test_citation_index_inversion_round_trip():
    # re-deriving reference lists from the index reproduces the in-corpus
    # reference multiset
    rng = np.random.default_rng(99)
    for _ in range(5):
        corpus, _ = random_corpus(rng, max_articles=200)
        rebuilt: dict[str, list[str]] = {a: [] for a in corpus.articles}
        for cited, entries in corpus.citation_index.items():
            for citer, _year in entries:
                rebuilt[citer].append(cited)
        for a_id, art in corpus.articles.items():
            in_corpus_refs = sorted(r for r in art.references if r in corpus.articles)
            assert sorted(rebuilt[a_id]) == in_corpus_refs


def test_build_emit_read_identity():
    rng = np.random.default_rng(7)
    doc_types = ("article", "review", "other")
    rejected = 0
    for _ in range(40):
        n_journals, n_articles = int(rng.integers(1, 6)), int(rng.integers(0, 30))
        journals = [
            [f"J{j}", f"Journal {j}", [f"C{c}" for c in range(int(rng.integers(1, 4)))]]
            for j in range(n_journals)
        ]
        articles = []
        for i in rng.permutation(n_articles).tolist():
            # In-corpus, dangling and repeated references, none to itself.
            refs = [f"{'PR'[int(rng.integers(2))]}{int(rng.integers(30))}" for _ in range(5)]
            articles.append(
                [
                    f"P{i}",
                    f"J{int(rng.integers(n_journals))}",
                    int(rng.integers(1900, 2101)),
                    doc_types[int(rng.integers(3))],
                    [r for r in refs[: int(rng.integers(0, 6))] if r != f"P{i}"],
                ]
            )
        # Some corpora pad one id or name with whitespace, which the reader
        # would strip: the records must reject it.
        padded = None
        if rng.random() < 0.3:
            slots = [(j, f) for j in journals for f in (0, 1)]
            slots += [(j[2], c) for j in journals for c in range(len(j[2]))]
            slots += [(a, f) for a in articles for f in (0, 1)]
            slots += [(a[4], r) for a in articles for r in range(len(a[4]))]
            holder, at = slots[int(rng.integers(len(slots)))]
            pad = (" ", "\xa0", "\u3000")[int(rng.integers(3))]
            padded = holder[at] = (pad + holder[at], holder[at] + pad)[int(rng.integers(2))]

        def records():
            return [JournalRecord(j, name, tuple(cats)) for j, name, cats in journals] + [
                ArticleRecord(a, j, year, doc, tuple(refs)) for a, j, year, doc, refs in articles
            ]

        if padded is not None:
            with pytest.raises(ValidationError, match="has surrounding whitespace") as exc:
                records()
            assert exc.value.token == padded
            rejected += 1
            continue
        built = build_corpus(records())
        text = emit_corpus(built)
        read = read_corpus(text.splitlines(keepends=True))
        assert dict(read.articles) == dict(built.articles)
        assert dict(read.journals) == dict(built.journals)
        assert emit_corpus(read) == text
    assert 0 < rejected < 40


def test_canonical_emission_sorted_and_stable():
    corpus = build_corpus(
        [
            article("P2", "J1", 2011, refs=("P1",)),
            journal("J2", "Oncology"),
            article("P1", "J2", 2010),
            journal("J1", "Cell Biology"),
        ]
    )
    text = emit_corpus(corpus)
    lines = text.splitlines()
    assert [ln.split("\t")[1] for ln in lines] == ["J1", "J2", "P1", "P2"]
    assert emit_corpus(read_corpus(text.splitlines(keepends=True))) == text


def test_validation_report_counts():
    corpus = build_corpus(
        [
            journal("J1", "Oncology"),
            journal("J2", "Multidisciplinary Sciences"),
            article("P1", "J1", 2010, refs=("P2", "X1")),
            article("P2", "J1", 2011, doc_type="review"),
            article("P3", "J2", 2011, refs=("P1",)),
        ]
    )
    report = validate_corpus(corpus)
    assert report.articles == 3
    assert report.journals == 2
    assert report.dangling_references == 1
    assert report.zero_reference_articles == 1
    assert report.doc_type_counts == {"article": 2, "review": 1}
    assert report.year_counts == {2010: 1, 2011: 2}
    assert report.journal_article_counts == {"J1": 2, "J2": 1}
    assert any(line.startswith("articles\t3") for line in report.as_lines())


def test_record_field_constraints():
    for make in [
        lambda: ArticleRecord("", "J1", 2010, "article"),
        lambda: ArticleRecord("P,1", "J1", 2010, "article"),
        lambda: ArticleRecord("P\r1", "J1", 2010, "article"),
        lambda: ArticleRecord("P1", "J\r1", 2010, "article"),
        lambda: ArticleRecord("P1", "J1", 2010, "article", ("X\rY",)),
        lambda: ArticleRecord("P1", "J1", 2010, "letter"),
        lambda: ArticleRecord("#P1", "J1", 2010, "article"),
        lambda: JournalRecord("J1", "Name", ()),
        lambda: JournalRecord("J1", "Name", ("Onco;logy",)),
        lambda: JournalRecord("J\r1", "Name", ("Oncology",)),
        lambda: JournalRecord("J1", "Na\rme", ("Oncology",)),
        lambda: JournalRecord("J1", "Name", ("Onco\rlogy",)),
        # The reader strips every field, so none of these would read back.
        lambda: ArticleRecord(" P1 ", "J1", 2010, "article"),
        lambda: ArticleRecord("P1", "J1\u3000", 2010, "article"),
        lambda: ArticleRecord("P1", "J1", 2010, "article", ("P2", "\xa0X")),
        lambda: JournalRecord(" J1", "Name", ("Oncology",)),
        lambda: JournalRecord("J1", " Journal ", ("Oncology",)),
        lambda: JournalRecord("J1", "Name", ("Oncology", "Cell Biology ")),
        # A year that is not an integer, and a string or a non-iterable for a
        # list of ids, which would be read as its letters or fail bare.
        lambda: ArticleRecord("P1", "J1", 2010.5, "article"),
        lambda: ArticleRecord("P1", "J1", np.float64(2010), "article"),
        lambda: ArticleRecord("P1", "J1", "2010", "article"),
        lambda: ArticleRecord("P1", "J1", None, "article"),
        lambda: ArticleRecord("P1", "J1", True, "article"),
        lambda: ArticleRecord("P1", "J1", 2010, "article", "P2"),
        lambda: ArticleRecord("P1", "J1", 2010, "article", 2),
        lambda: JournalRecord("J1", "Name", "Oncology"),
        lambda: JournalRecord("J1", "Name", None),
    ]:
        with pytest.raises(ValidationError):
            make()
    # Python and numpy integers are years; any other collection is a list.
    for year in (2010, np.int16(2010), np.int64(2010)):
        records = [JournalRecord("J1", "Name", ["Oncology"])]
        records.append(ArticleRecord("P1", "J1", year, "article", ["P2"]))
        assert build_corpus(records).article("P1") == ArticleRecord(
            "P1", "J1", 2010, "article", ("P2",)
        )


def naive_token_fault(value: str, what: str, forbidden: str) -> str | None:
    """The corpus token rule spelled out: the fault message, or None."""
    if not value:
        return f"empty {what}"
    bad = [ch for ch in forbidden if ch in value]
    return f"{what} contains forbidden character {bad[0]!r}, token {value!r}" if bad else None


def naive_records(lines):
    """Corpus records one line at a time, parsed without the library's reader.

    A malformed line raises the :class:`ParseError` (message, line number
    and token) that :func:`read_corpus` must raise for it.
    """
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        cols = raw.rstrip("\n").split("\t")
        if cols[0] not in ("A", "J"):
            raise ParseError("unknown record tag", line_no, cols[0])
        kind, width = ("article", 6) if cols[0] == "A" else ("journal", 4)
        if len(cols) != width:
            raise ParseError(f"{kind} row needs {width} columns, got {len(cols)}", line_no, raw)
        cols = [c.strip() for c in cols]
        if cols[0] == "A":
            _, a_id, j_id, year_s, doc_type, refs_s = cols
            try:
                year = int(year_s)
            except ValueError:
                raise ParseError("non-integer year", line_no, year_s) from None
            refs = [r.strip() for r in refs_s.split(",")] if refs_s else []
            if "" in refs:
                raise ParseError("empty reference id", line_no, refs_s)
            if doc_type not in ("article", "review", "other"):
                raise ParseError("unknown doc_type", line_no, doc_type)
            faults = [naive_token_fault(a_id, "article id", "\t\n\r,")]
            if a_id.startswith("#"):
                faults.append("article id has a leading '#'")
            faults.append(naive_token_fault(j_id, "journal id", "\t\n\r,"))
            faults += [naive_token_fault(r, "reference id", "\t\n\r,") for r in refs]
            if any(faults):
                raise ParseError(next(filter(None, faults)), line_no, a_id)
            yield ArticleRecord(a_id, j_id, year, doc_type, tuple(refs))
        else:
            _, j_id, name, cats_s = cols
            cats = [c.strip() for c in cats_s.split(";")] if cats_s else []
            if "" in cats:
                raise ParseError("empty category name", line_no, cats_s)
            faults = [naive_token_fault(j_id, "journal id", "\t\n\r,")]
            if any(ch in name for ch in "\t\n\r"):
                faults.append(f"journal name contains forbidden character, token {name!r}")
            if not cats:
                faults.append(f"journal {j_id!r} has no categories")
            faults += [naive_token_fault(c, "category name", "\t\n\r;") for c in cats]
            if any(faults):
                raise ParseError(next(filter(None, faults)), line_no, j_id)
            yield JournalRecord(j_id, name, tuple(cats))


def reference_reading(lines) -> tuple:
    """The record-at-a-time reading the array corpus must reproduce.

    Records are validated in file order as they are parsed; the result is
    the article records (references deduped), the citation index, the
    dangling count, the validation lines and the canonical emission.
    """
    lo, hi = YEAR_BOUNDS
    articles: dict[str, ArticleRecord] = {}
    journals: dict[str, JournalRecord] = {}
    for rec in naive_records(lines):
        if isinstance(rec, ArticleRecord):
            if rec.id in articles:
                raise ValidationError("duplicate article id", token=rec.id)
            if not lo <= rec.year <= hi:
                msg = f"article {rec.id!r} year {rec.year} outside bounds [{lo}, {hi}]"
                raise ValidationError(msg)
            if rec.id in rec.references:
                raise ValidationError(f"article {rec.id!r} cites itself")
            articles[rec.id] = replace(rec, references=tuple(dict.fromkeys(rec.references)))
        else:
            if rec.id in journals:
                raise ValidationError("duplicate journal id", token=rec.id)
            journals[rec.id] = rec
    unresolved = sorted({a.journal_id for a in articles.values()} - set(journals))
    if unresolved:
        raise ValidationError("articles reference unknown journals: " + ", ".join(unresolved))
    articles = dict(sorted(articles.items()))
    index: dict[str, list[tuple[str, int]]] = {}
    dangling = 0
    for art in articles.values():
        for ref in art.references:
            if ref in articles:
                index.setdefault(ref, []).append((art.id, art.year))
            else:
                dangling += 1
    counts: dict[str, dict] = {"doc_type": {}, "year": {}, "journal": dict.fromkeys(journals, 0)}
    for art in articles.values():
        for key, value in zip(counts, (art.doc_type, art.year, art.journal_id)):
            counts[key][value] = counts[key].get(value, 0) + 1
    report = [
        f"articles\t{len(articles)}",
        f"journals\t{len(journals)}",
        f"dangling_references\t{dangling}",
        f"zero_reference_articles\t{sum(not a.references for a in articles.values())}",
    ]
    for key in ("doc_type", "year", "journal"):
        report += [f"{key}.{k}\t{n}" for k, n in sorted(counts[key].items())]
    emitted = [
        f"J\t{j.id}\t{j.name}\t{';'.join(j.categories)}" for _, j in sorted(journals.items())
    ]
    emitted += [
        f"A\t{a.id}\t{a.journal_id}\t{a.year}\t{a.doc_type}\t{','.join(a.references)}"
        for a in articles.values()
    ]
    return (
        articles,
        {k: tuple(v) for k, v in sorted(index.items())},
        dangling,
        report,
        "\n".join(emitted) + "\n",
    )


def reading_of(corpus) -> tuple:
    return (
        dict(corpus.articles.items()),
        dict(corpus.citation_index),
        corpus.dangling_reference_count,
        validate_corpus(corpus).as_lines(),
        emit_corpus(corpus),
    )


def messy_corpus_lines(rng: np.random.Generator) -> list[str]:
    """Valid corpus text with every shape the reader must normalize."""
    pads = ("", " ", "  ", "\u3000", "\xa0")

    def pad(text: str) -> str:
        return pads[int(rng.integers(len(pads)))] + text + pads[int(rng.integers(len(pads)))]

    n_journals, n_articles = int(rng.integers(1, 5)), int(rng.integers(0, 40))
    ids = [f"P{i:03d}" for i in rng.permutation(n_articles)]
    lines = []
    for j in range(n_journals):
        cats = ";".join(pad(f"Cat {c}") for c in range(int(rng.integers(1, 3))))
        lines.append(f"J\t{pad(f'J{j}')}\t{pad(f'Journal {j}')}\t{cats}\n")
    for a_id in ids:
        refs = []
        for _ in range(int(rng.integers(0, 8))):
            if rng.random() < 0.2:
                refs.append(f"X{int(rng.integers(6))}")  # dangling, often repeated
            else:
                refs.append(ids[int(rng.integers(n_articles))])
        refs = [pad(r) for r in refs if r != a_id]
        doc_type = ("article", "review", "other")[int(rng.integers(3))]
        fields = [f"J{int(rng.integers(n_journals))}", str(int(rng.integers(1990, 2021))), doc_type]
        lines.append("\t".join(["A", pad(a_id), *map(pad, fields), ",".join(refs)]) + "\n")
    rng.shuffle(lines)  # journals land before and after their articles
    for extra in ("# comment\n", "\n", "   \n", "#A\tnot\ta\trow\n"):
        if rng.random() < 0.5:
            lines.insert(int(rng.integers(len(lines) + 1)), extra)
    if lines and rng.random() < 0.5:
        lines[-1] = lines[-1].rstrip("\n")
    return lines


def test_ingest_paths_agree_on_random_corpora():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        lines = messy_corpus_lines(rng)
        expected = reference_reading(lines)
        assert reading_of(read_corpus(lines)) == expected
        assert reading_of(build_corpus(list(naive_records(lines)))) == expected


def test_crlf_lines_read_like_lf_lines():
    # The "\r" of a CRLF line end is whitespace around the last field.
    rng = np.random.default_rng(13)
    for _ in range(30):
        lines = messy_corpus_lines(rng)
        crlf = [line.replace("\n", "\r\n") for line in lines]
        assert reading_of(read_corpus(crlf)) == reading_of(read_corpus(lines))


def _lines(*rows: str) -> list[str]:
    return [row + "\n" for row in rows]


J1 = "J\tJ1\tJournal One\tOncology"


def _a(art_id: str, year: str = "2010", refs: str = "", journal: str = "J1", doc: str = "article"):
    return f"A\t{art_id}\t{journal}\t{year}\t{doc}\t{refs}"


# Each file's first fault in file order, as the naive reader raises it:
# class, message, line number, token.
MALFORMED = {
    "short-article-row": (
        [J1, "A\tP1\tJ1\t2010\tarticle"],
        (ParseError, "article row needs 6 columns, got 5", 2, "A\tP1\tJ1\t2010\tarticle\n"),
    ),
    "long-article-row": (
        [J1, _a("P1") + "\tx"],
        (ParseError, "article row needs 6 columns, got 7", 2, "A\tP1\tJ1\t2010\tarticle\t\tx\n"),
    ),
    "non-integer-year": ([J1, _a("P1", year="20X0")], (ParseError, "non-integer year", 2, "20X0")),
    "empty-reference": (
        [J1, _a("P1"), _a("P2", refs="P1,,P1")],
        (ParseError, "empty reference id", 3, "P1,,P1"),
    ),
    "blank-reference": (
        [J1, _a("P1"), _a("P2", refs="P1, ,P1")],
        (ParseError, "empty reference id", 3, "P1, ,P1"),
    ),
    "trailing-comma": (
        [J1, _a("P1"), _a("P2", refs="P1,")],
        (ParseError, "empty reference id", 3, "P1,"),
    ),
    "unknown-doc-type": (
        [J1, _a("P1", doc="letter")],
        (ParseError, "unknown doc_type", 2, "letter"),
    ),
    "unknown-tag": ([J1, "Q\tP1\tJ1"], (ParseError, "unknown record tag", 2, "Q")),
    "padded-tag": ([J1, " " + _a("P1")], (ParseError, "unknown record tag", 2, " A")),
    "short-journal-row": (
        ["J\tJ1\tName"],
        (ParseError, "journal row needs 4 columns, got 3", 1, "J\tJ1\tName\n"),
    ),
    "journal-without-categories": (
        ["J\tJ1\tName\t"],
        (ParseError, "journal 'J1' has no categories", 1, "J1"),
    ),
    "empty-category": (
        ["J\tJ1\tName\tOncology;;Cell Biology"],
        (ParseError, "empty category name", 1, "Oncology;;Cell Biology"),
    ),
    "empty-article-id": ([J1, _a(" ")], (ParseError, "empty article id", 2, "")),
    "empty-journal-id": ([J1, _a("P1", journal=" ")], (ParseError, "empty journal id", 2, "P1")),
    "leading-hash-article-id": (
        [J1, _a("P1"), _a(" #P2", refs="#P3,P1")],
        (ParseError, "article id has a leading '#'", 3, "#P2"),
    ),
    "newline-in-article-id": (
        [J1, _a("P\n1")],
        (ParseError, "article id contains forbidden character '\\n', token 'P\\n1'", 2, "P\n1"),
    ),
    "newline-in-reference": (
        [J1, _a("P1"), _a("P2", refs="P1,X\nY")],
        (ParseError, "reference id contains forbidden character '\\n', token 'X\\nY'", 3, "P2"),
    ),
    "carriage-return-in-article-id": (
        [J1, _a("P\r1")],
        (ParseError, "article id contains forbidden character '\\r', token 'P\\r1'", 2, "P\r1"),
    ),
    "carriage-return-in-reference": (
        [J1, _a("P1"), _a("P2", refs="P1,X\rY")],
        (ParseError, "reference id contains forbidden character '\\r', token 'X\\rY'", 3, "P2"),
    ),
    "carriage-return-in-journal-name": (
        ["J\tJ1\tJournal\rOne\tOncology"],
        (
            ParseError,
            "journal name contains forbidden character, token 'Journal\\rOne'",
            1,
            "J1",
        ),
    ),
    "duplicate-article": (
        [J1, _a("P1"), _a("P2"), _a("P1", year="2011")],
        (ValidationError, "duplicate article id", None, "P1"),
    ),
    "duplicate-journal": (
        [J1, _a("P1"), J1],
        (ValidationError, "duplicate journal id", None, "J1"),
    ),
    "year-below-bounds": (
        [J1, _a("P1", year="1666")],
        (ValidationError, "article 'P1' year 1666 outside bounds [1900, 2100]", None, None),
    ),
    "year-far-above-bounds": (
        [J1, _a("P1", year="99999999999999999999")],
        (
            ValidationError,
            "article 'P1' year 99999999999999999999 outside bounds [1900, 2100]",
            None,
            None,
        ),
    ),
    "self-citation": (
        [J1, _a("P1"), _a("P2", refs="P1,P2")],
        (ValidationError, "article 'P2' cites itself", None, None),
    ),
    "self-citation-among-dangling": (
        [J1, _a("P1", refs="X1,P1,X2")],
        (ValidationError, "article 'P1' cites itself", None, None),
    ),
    "unknown-journals": (
        [_a("P1", journal="J9"), J1, _a("P2", journal="J8"), _a("P3", journal="J9")],
        (ValidationError, "articles reference unknown journals: J8, J9", None, None),
    ),
    "duplicate-before-bad-line": (
        [J1, _a("P1"), _a("P1"), "A\tP3"],
        (ValidationError, "duplicate article id", None, "P1"),
    ),
    "bad-line-before-duplicate": (
        [J1, _a("P1"), "A\tP3", _a("P1")],
        (ParseError, "article row needs 6 columns, got 2", 3, "A\tP3\n"),
    ),
    "self-citation-before-its-duplicate": (
        [J1, _a("P1", refs="P2,P1"), _a("P2"), _a("P1")],
        (ValidationError, "article 'P1' cites itself", None, None),
    ),
    "duplicate-before-self-citation": (
        [J1, _a("P1"), _a("P1", refs="P1")],
        (ValidationError, "duplicate article id", None, "P1"),
    ),
    "year-fault-before-duplicate-journal": (
        [J1, _a("P1", year="1800"), J1],
        (ValidationError, "article 'P1' year 1800 outside bounds [1900, 2100]", None, None),
    ),
    "duplicate-journal-before-year-fault": (
        [J1, J1, _a("P1", year="1800")],
        (ValidationError, "duplicate journal id", None, "J1"),
    ),
    "unknown-journal-then-bad-line": (
        [_a("P1", journal="J9"), J1, "A\tP2"],
        (ParseError, "article row needs 6 columns, got 2", 3, "A\tP2\n"),
    ),
    "year-fault-then-unknown-tag": (
        [J1, _a("P1", year="2200"), "X"],
        (ValidationError, "article 'P1' year 2200 outside bounds [1900, 2100]", None, None),
    ),
    "unknown-tag-then-year-fault": (
        [J1, "X", _a("P1", year="2200")],
        (ParseError, "unknown record tag", 2, "X"),
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_ingest_paths_raise_the_same_first_fault(name):
    rows, (cls, message, line_no, token) = MALFORMED[name]
    lines = _lines(*rows)
    for read in (read_corpus, reference_reading):
        with pytest.raises(cls) as exc:
            read(lines)
        assert type(exc.value) is cls
        assert (exc.value.line_no, exc.value.token) == (line_no, token)
        assert str(exc.value) == str(InputError(message, line_no, token))


def test_build_corpus_checks_records_before_an_unsupported_one():
    bad = [journal("J1", "Oncology"), article("P1", "J1", 1800), "not a record"]
    with pytest.raises(ValidationError, match="outside bounds"):
        build_corpus(bad)
    with pytest.raises(ValidationError, match="unsupported record type: str"):
        build_corpus(bad[:1] + bad[2:] + bad[1:2])


def brute_force_csr(ids, dangling_ids, citer, target) -> tuple:
    """Sorted ids, CSR ``indptr`` and reference codes built one pair at a time."""
    names = list(ids) + list(dangling_ids)
    kept: list[list[str]] = [[] for _ in ids]
    for c, t in zip(citer.tolist(), target.tolist()):
        if names[t] not in kept[c]:
            kept[c].append(names[t])
    order = sorted(range(len(ids)), key=ids.__getitem__)
    code = {ids[r]: i for i, r in enumerate(order)}
    code.update((d, len(ids) + i) for i, d in enumerate(dangling_ids))
    indptr = [0]
    refs: list[int] = []
    for r in order:
        refs += [code[name] for name in kept[r]]
        indptr.append(len(refs))
    return tuple(ids[r] for r in order), order, indptr, refs


@pytest.mark.parametrize(
    "shape", ("sorted-grouped", "sorted-shuffled", "unsorted", "no-refs", "no-repeats")
)
def test_builder_matches_brute_force_csr(shape):
    rng = np.random.default_rng(7)
    journals = [journal("J0", "Oncology"), journal("J1", "Cell Biology")]
    repeats = 0
    for _ in range(40):
        n, n_dangling = int(rng.integers(2, 60)), int(rng.integers(0, 6))
        ids = [f"P{i:03d}" for i in range(n)]
        if shape == "unsorted":
            ids = [ids[i] for i in rng.permutation(n)]
        dangling = tuple(f"X{i}" for i in range(n_dangling))
        m = 0 if shape == "no-refs" else int(rng.integers(0, 6 * n))
        if shape == "no-repeats":
            # Distinct (citer, target) pairs in random order, none a self-citation.
            width = n + n_dangling
            pairs = rng.choice(n * width, size=min(m, n * width), replace=False)
            citer, target = np.divmod(pairs, width)
            citer, target = citer[citer != target], target[citer != target]
        else:
            citer = rng.integers(n, size=m)
            if shape == "sorted-grouped":
                citer.sort()
            target = rng.integers(n + n_dangling, size=m)
            selfish = target == citer
            target[selfish] = (target[selfish] + 1) % (n + n_dangling)
        repeats += len(set(zip(citer.tolist(), target.tolist()))) < len(citer)
        journal_of = rng.integers(2, size=n).tolist()
        years = rng.integers(1990, 2021, size=n).tolist()
        doc_types = rng.integers(3, size=n).tolist()
        counts, grouped = _by_citer(citer, target, n)
        journal_codes = [1 - j for j in journal_of]
        columns = _Columns(
            ids, ["J1", "J0"], journal_codes, years, doc_types, counts, dangling, journals
        )
        corpus = _assemble(columns, grouped, _id_order(ids))
        sorted_ids, order, indptr, refs = brute_force_csr(ids, dangling, citer, target)
        assert corpus.ids == sorted_ids
        assert corpus.dangling_ids == dangling
        assert corpus.indptr.tolist() == indptr
        assert corpus.refs.tolist() == refs
        assert corpus.refs.dtype == np.int32
        assert corpus.journal_codes.tolist() == [journal_of[r] for r in order]
        assert corpus.years.tolist() == [years[r] for r in order]
        assert corpus.doc_types.tolist() == [doc_types[r] for r in order]
    # The builder sorts to drop repeats only when some pair repeats: every
    # shape with drawn pairs takes that branch, the other two skip it.
    if shape in ("no-refs", "no-repeats"):
        assert repeats == 0
    else:
        assert repeats > 0


def test_build_corpus_of_shuffled_records_with_repeats_equals_the_sorted_build():
    rng = np.random.default_rng(43)
    for _ in range(30):
        corpus, _ = random_corpus(rng, max_articles=120)
        articles = [corpus.article(a_id) for a_id in corpus.ids]
        # Repeat earlier references at random places: first occurrences keep their order.
        noisy = []
        for rec in articles:
            refs = list(rec.references)
            for at in sorted(rng.integers(1, len(refs) + 1, size=len(refs) // 2), reverse=True):
                refs.insert(int(at), refs[int(rng.integers(at))])
            noisy.append(replace(rec, references=tuple(refs)))
        assert any(len(a.references) > len(b.references) for a, b in zip(noisy, articles))
        records = list(corpus.journals.values()) + noisy
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert [a.id for a in shuffled if isinstance(a, ArticleRecord)] != list(corpus.ids)
        rebuilt = build_corpus(shuffled)
        assert emit_corpus(rebuilt) == emit_corpus(build_corpus(records)) == emit_corpus(corpus)
        assert rebuilt.ids == corpus.ids and dict(rebuilt.row_of) == dict(corpus.row_of)
        for name in ("journal_codes", "years", "doc_types", "indptr"):
            assert getattr(rebuilt, name).tolist() == getattr(corpus, name).tolist()
        assert rebuilt._names[rebuilt.refs].tolist() == corpus._names[corpus.refs].tolist()


def test_ingest_paths_agree_on_canonical_corpora():
    rng = np.random.default_rng(77)
    for _ in range(100):
        messy = messy_corpus_lines(rng)
        expected = reference_reading(messy)
        # Canonical rows arrive in id order; repeat some references so the
        # builder still has duplicates to drop next to the dangling ones.
        lines = []
        for line in emit_corpus(read_corpus(messy)).splitlines(keepends=True):
            head, _, refs = line.rstrip("\n").rpartition("\t")
            if line.startswith("A") and refs and rng.random() < 0.5:
                refs = refs.split(",")
                refs += [refs[int(i)] for i in rng.integers(len(refs), size=3)]
                line = f"{head}\t{','.join(refs)}\n"
            lines.append(line)
        assert reference_reading(lines) == expected
        assert reading_of(read_corpus(lines)) == expected
        assert reading_of(build_corpus(naive_records(lines))) == expected


def test_read_corpus_traced_peak_is_bounded(tmp_path):
    corpus, _, _ = generate_synthetic(ten_field_config(articles_per_journal_year=10))
    text = emit_corpus(corpus)
    lines = text.splitlines(keepends=True)
    assert len(corpus.ids) == 2600
    peak = traced_peak(lambda: read_corpus(lines))
    assert peak <= 5 * len(text), f"traced peak {peak / len(text):.1f}x the text length"
    # A file read holds no list of lines, so its peak, counted from nothing,
    # stays below the list read's plus its lines.
    (tmp_path / "corpus.tsv").write_text(text)
    peak = traced_peak(lambda: read_corpus_file(tmp_path / "corpus.tsv"))
    assert peak <= 3 * len(text), f"file read: traced peak {peak / len(text):.1f}x the text length"


FORK_BYTES = corpus_module._FORK_BYTES
# Comment lines around a malformed file's rows: the file then splits inside
# them, so the rows all fall in the first half (pad after) or the second
# (pad before).
PAD = "#\n" * 200


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_lines(path, lines) -> Path:
    path.write_bytes("".join(lines).encode())
    return path


def file_lines(path) -> list[str]:
    """The lines of ``path`` as ``open()`` reads them: universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def splits(path) -> bool:
    """Whether a ``\n`` at or past the middle of ``path`` is followed by a second half."""
    data = path.read_bytes()
    return data.find(b"\n", len(data) // 2) not in (-1, len(data) - 1)


def fault_of(read, *args) -> tuple:
    with pytest.raises(InputError) as exc:
        read(*args)
    return type(exc.value), str(exc.value), exc.value.line_no, exc.value.token


def assert_same_fault(read, source, expected):
    cls, message, line_no, token = expected
    assert fault_of(read, source) == (cls, str(InputError(message, line_no, token)), line_no, token)


def malformed_files(tmp_path, name) -> list[Path]:
    """The rows of ``MALFORMED[name]`` in one file before a pad and in one after it.

    A file that reads back the rows' own lines must raise the table's fault.
    """
    rows, expected = MALFORMED[name]
    paths = []
    for where, lines in (("first", _lines(*rows) + [PAD]), ("second", [PAD] + _lines(*rows))):
        path = write_lines(tmp_path / f"{where}.tsv", lines)
        assert splits(path)
        paths.append(path)
    if file_lines(paths[0])[: len(rows)] == _lines(*rows):
        assert_same_fault(reference_reading, file_lines(paths[0]), expected)
    return paths


def assert_reads_like_one_process(path):
    """``read_corpus_file(path)`` gives what the record-at-a-time reading of its lines gives."""
    lines = file_lines(path)
    try:
        expected = reference_reading(lines)
    except InputError:
        assert fault_of(read_corpus_file, path) == fault_of(reference_reading, lines)
    else:
        assert reading_of(read_corpus_file(path)) == expected


def test_two_process_read_agrees_on_random_corpora(forks, tmp_path):
    rng = np.random.default_rng(2024)
    split = 0
    for i in range(150):
        path = write_lines(tmp_path / f"{i}.tsv", messy_corpus_lines(rng))
        assert_reads_like_one_process(path)
        assert_no_child()
        split += splits(path)
    assert len(forks) == 2 * split and split > 100


def dangling_in_file_order(lines) -> tuple[str, ...]:
    """The referenced ids that no article line holds, in order of first appearance."""
    articles = [rec for rec in naive_records(lines) if isinstance(rec, ArticleRecord)]
    ids = {a.id for a in articles}
    return tuple(dict.fromkeys(ref for a in articles for ref in a.references if ref not in ids))


def test_two_process_read_codes_dangling_ids_in_file_order(forks, monkeypatch, tmp_path):
    """Both reads code every reference alike, dangling ids in file order."""
    rng = np.random.default_rng(77)
    split = 0
    for _ in range(300):
        lines = messy_corpus_lines(rng)
        path = write_lines(tmp_path / "corpus.tsv", lines)
        forked = read_corpus_file(path)
        with monkeypatch.context() as one_process:
            one_process.setattr(corpus_module, "_FORK_BYTES", path.stat().st_size + 1)
            alone = read_corpus_file(path)
        assert forked.dangling_ids == alone.dangling_ids == dangling_in_file_order(lines)
        assert np.array_equal(forked.refs, alone.refs)
        assert np.array_equal(forked.indptr, alone.indptr)
        split += splits(path)
    assert len(forks) == 2 * split and split > 200


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_two_process_read_raises_the_same_first_fault(name, forks, capfd, tmp_path):
    for path in malformed_files(tmp_path, name):
        assert fault_of(read_corpus_file, path) == fault_of(reference_reading, file_lines(path))
        assert_no_child()
    assert len(forks) == 4
    assert capfd.readouterr().err == ""


def synthetic_lines() -> list[str]:
    corpus, _, _ = generate_synthetic(ten_field_config(articles_per_journal_year=32))
    return emit_corpus(corpus).splitlines(keepends=True)


def test_two_process_read_of_a_synthetic_corpus(forks, monkeypatch, tmp_path):
    lines = synthetic_lines()
    path = write_lines(tmp_path / "corpus.tsv", lines)
    assert path.stat().st_size >= FORK_BYTES
    monkeypatch.setattr(corpus_module, "_FORK_BYTES", FORK_BYTES)
    two = read_corpus_file(path)
    assert_no_child()
    assert len(forks) == 2
    # One CPU in the affinity mask means one process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = read_corpus_file(path)
    assert len(forks) == 2
    assert emit_corpus(two) == emit_corpus(one) == "".join(lines)
    for name in ("journal_codes", "years", "doc_types", "indptr", "refs"):
        assert getattr(two, name).tolist() == getattr(one, name).tolist()
    assert two.dangling_ids == one.dangling_ids


def test_two_process_read_raises_faults_of_either_half(forks, tmp_path):
    lines = synthetic_lines()
    first = write_lines(tmp_path / "first.tsv", lines[:10] + ["A\tP\n"] + lines[10:])
    short_row = (ParseError, "article row needs 6 columns, got 2", 11, "A\tP\n")
    assert_same_fault(read_corpus_file, first, short_row)
    assert_no_child()
    last = write_lines(tmp_path / "last.tsv", lines + ["X\n"])
    tag = (ParseError, "unknown record tag", len(lines) + 1, "X")
    assert_same_fault(read_corpus_file, last, tag)
    assert_no_child()
    duplicate = write_lines(tmp_path / "duplicate.tsv", lines[:100] + lines[-1:] + lines[100:])
    a_id = lines[-1].split("\t")[1]
    repeat = (ValidationError, "duplicate article id", None, a_id)
    assert_same_fault(read_corpus_file, duplicate, repeat)
    assert_no_child()
    assert len(forks) == 6


def test_two_process_read_raises_a_journal_repeated_after_the_last_article(forks, tmp_path):
    # Each half alone holds the journal once: only the merge sees the repeat.
    lines = synthetic_lines()
    assert lines[0].startswith("J\t") and lines[-1].startswith("A\t")
    j_id = lines[0].split("\t")[1]
    repeated = write_lines(tmp_path / "corpus.tsv", lines + lines[:1])
    repeat = (ValidationError, "duplicate journal id", None, j_id)
    assert_same_fault(read_corpus_file, repeated, repeat)
    assert_no_child()
    assert len(forks) == 2


def test_two_process_read_parses_lines_only_in_its_workers(forks, monkeypatch, tmp_path):
    log = tmp_path / "pids"
    line_rows = corpus_module._line_rows

    def logged(source):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return line_rows(source)

    monkeypatch.setattr(corpus_module, "_line_rows", logged)
    path = write_lines(tmp_path / "corpus.tsv", synthetic_lines())
    corpus = read_corpus_file(path)
    assert_no_child()
    pids = sorted(map(int, log.read_text().split()))
    assert os.getpid() not in pids
    assert pids == sorted(forks) and len(forks) == 2
    assert emit_corpus(corpus) == path.read_text()


def test_a_read_corpus_holds_each_id_once(forks, monkeypatch, tmp_path):
    """Read in two processes and in one, the corpus keeps no id -> row dict
    and no names array: about 170 traced bytes live per article, where a
    dict and an array of the ids took about 235."""
    corpus, _, _ = generate_synthetic(ten_field_config(articles_per_journal_year=64))
    path = tmp_path / "corpus.tsv"
    path.write_text(emit_corpus(corpus))
    del corpus
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        corpus, live, _ = traced(lambda: read_corpus_file(path))
        n = len(corpus.ids)
        assert n == 16640 and live <= 200 * n, f"{len(cpus)} CPUs: {live / n:.0f} B/article"
        assert dict(corpus.row_of) == dict(zip(corpus.ids, range(n)))
        del corpus
    assert len(forks) == 2


def test_a_fault_in_the_first_half_reads_like_one_process(forks, monkeypatch, tmp_path):
    """The first half faults early; both workers are killed and reaped, and the
    one-process read reports the fault."""
    lines = synthetic_lines()
    path = write_lines(tmp_path / "corpus.tsv", lines[:10] + ["A\tP\n"] + lines[10:])
    kills, kill = [], os.kill

    def counted_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", counted_kill)
    fault = fault_of(read_corpus_file, path)
    assert_no_child()
    assert len(forks) == 2 and kills == [(pid, signal.SIGKILL) for pid in forks]
    short_row = (ParseError, "article row needs 6 columns, got 2", 11, "A\tP\n")
    assert_same_fault(read_corpus_file, path, short_row)
    with monkeypatch.context() as one_process:
        one_process.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert fault_of(read_corpus_file, path) == fault
    assert fault == fault_of(read_corpus, file_lines(path))
    assert len(forks) == 4


def test_two_process_read_parent_traced_peak_is_bounded(forks, tmp_path):
    """The parent only merges: its traced peak stays within 1.8x the corpus it
    returns, where the one-process read peaks at about 2x."""
    corpus, _, _ = generate_synthetic(ten_field_config(articles_per_journal_year=64))
    path = tmp_path / "corpus.tsv"
    path.write_text(emit_corpus(corpus))
    del corpus
    corpus, live, peak = traced(lambda: read_corpus_file(path))
    assert len(forks) == 2 and len(corpus.ids) == 16640
    assert peak <= 1.8 * live, f"traced peak {peak / live:.2f}x the live corpus"


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_an_error_of_the_input_wins_over_its_lines(cpus, monkeypatch, tmp_path):
    """A line fault stands only once the whole input decodes, whatever the CPU count."""

    def source():
        yield from _lines(J1, _a("P1"), _a("P1"))
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    monkeypatch.setattr(corpus_module, "_FORK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    with pytest.raises(UnicodeDecodeError):
        read_corpus(source())
    path = tmp_path / "corpus.tsv"
    path.write_bytes("".join(_lines(J1, _a("P1"), _a("P1"))).encode() + PAD.encode() + b"\xff\n")
    with pytest.raises(ParseError) as exc:
        read_corpus_file(path)
    assert str(exc.value) == f"{path}: not valid UTF-8 (invalid start byte)"
    assert_no_child()


def test_lone_and_paired_carriage_returns_read_alike_three_ways(forks, monkeypatch, tmp_path):
    """CRLF and lone-CR line ends, a lone CR right before the middle of the file.

    Two processes, one process and :func:`read_corpus` over ``open()``'s
    lines agree, also on the line number of a fault after the middle.
    """
    rng = np.random.default_rng(29)
    rows = [line.rstrip("\n") for line in synthetic_lines()[:300]]
    ends = [("\r\n", "\r")[int(rng.integers(2))] for _ in rows]
    half = len(rows) // 2
    head = "".join(row + end for row, end in zip(rows[:half], ends[:half])) + rows[half]
    tail = "".join(row + end for row, end in zip(rows[half + 1 :], ends[half + 1 :]))
    # A pad line leaves the tail 1 or 2 bytes longer than the head, so that
    # the CR is the last byte of the file's first half.
    gap = len(tail) - len(head)
    if gap > 2:
        head = "#" * (gap - 3) + "\r\n" + head
    elif gap < 1:
        tail += "#" * max(-1 - gap, 0) + "\r\n"
    data = (head + "\r" + tail).encode()
    assert data[len(data) // 2 - 1 : len(data) // 2 + 1] != b"\r\n"
    assert data[len(data) // 2 - 1 : len(data) // 2] == b"\r"
    for extra in ("", "X\r\n"):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(data + extra.encode())
        lines = file_lines(path)
        with monkeypatch.context() as one_process:
            one_process.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            if extra:
                fault = fault_of(read_corpus_file, path)
            else:
                alone = reading_of(read_corpus_file(path))
        if extra:
            assert fault == fault_of(read_corpus_file, path) == fault_of(read_corpus, lines)
            assert fault[2] == len(lines) == len(rows) + 2
        else:
            assert alone == reading_of(read_corpus_file(path)) == reading_of(read_corpus(lines))
        assert_no_child()
    assert len(forks) == 4


def cut_dump(obj, file, protocol):
    file.write(pickle.dumps(obj, protocol)[:-100])


@pytest.mark.parametrize(
    "target, fault",
    [
        ("pickle.dump", lambda *args: 1 / 0),  # a fault in the worker
        ("pickle.dump", lambda *args: os._exit(0)),  # an empty payload
        ("pickle.dump", lambda *args: os.kill(os.getpid(), signal.SIGKILL)),
        ("pickle.dump", cut_dump),  # exit status 0 after a cut-off payload
    ],
    ids=["raises", "empty-payload", "killed", "cut-payload"],
)
def test_failed_worker_leaves_every_result_and_fault_unchanged(
    target, fault, forks, monkeypatch, capfd, tmp_path
):
    monkeypatch.setattr(target, fault)
    rng = np.random.default_rng(5)
    split = 0
    for _ in range(20):
        path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(rng))
        assert_reads_like_one_process(path)
        assert_no_child()
        split += splits(path)
    for name in MALFORMED:
        for path in malformed_files(tmp_path, name):
            assert_reads_like_one_process(path)
            assert_no_child()
    assert len(forks) == 2 * (split + 2 * len(MALFORMED))
    assert capfd.readouterr().err == ""


def test_read_is_sequential_when_fork_fails(forks, monkeypatch, tmp_path):
    def fail():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", fail)
    path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(np.random.default_rng(11)))
    assert splits(path)
    assert_reads_like_one_process(path)


def test_read_is_sequential_when_the_second_fork_fails(forks, monkeypatch, tmp_path):
    """The first worker is killed and reaped, and one process reads the file."""
    fork, calls = os.fork, []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError("no fork")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(np.random.default_rng(11)))
    assert splits(path)
    assert_reads_like_one_process(path)
    assert_no_child()
    assert len(calls) == 2 and len(forks) == 1


def test_no_fork_while_sigchld_is_ignored(forks, tmp_path):
    # The kernel would reap the worker itself, and a wait for it would wait
    # for every child of the process.
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(np.random.default_rng(13)))
        assert splits(path)
        assert_reads_like_one_process(path)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forks == []


def reap_children(signum, frame):
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def test_two_process_read_under_a_reaping_sigchld_handler(forks, tmp_path):
    previous = signal.signal(signal.SIGCHLD, reap_children)
    split = 0
    try:
        rng = np.random.default_rng(17)
        for _ in range(30):
            path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(rng))
            assert_reads_like_one_process(path)
            assert_no_child()
            split += splits(path)
        for name in MALFORMED:
            for path in malformed_files(tmp_path, name):
                assert_reads_like_one_process(path)
                assert_no_child()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 2 * (split + 2 * len(MALFORMED))


def test_worker_reaped_by_someone_else_first(forks, monkeypatch, tmp_path):
    """The reader neither fails nor kills again when its worker is already gone."""
    waitpid, kill = os.waitpid, os.kill
    gone = []

    def reaped_waitpid(pid, options):
        if pid not in forks:
            return waitpid(pid, options)
        waitpid(pid, 0)
        gone.append(pid)
        raise ChildProcessError

    def reaped_kill(pid, sig):
        assert pid in forks and pid not in gone
        kill(pid, signal.SIGKILL)
        waitpid(pid, 0)
        gone.append(pid)
        raise ProcessLookupError

    monkeypatch.setattr(os, "waitpid", reaped_waitpid)
    monkeypatch.setattr(os, "kill", reaped_kill)
    rng = np.random.default_rng(19)
    split = 0
    for _ in range(10):
        path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(rng))
        assert_reads_like_one_process(path)
        split += splits(path)
    for name in MALFORMED:
        for path in malformed_files(tmp_path, name):
            assert_reads_like_one_process(path)
    # A fault in the first half, so the second half's worker is killed.
    bad_first = write_lines(tmp_path / "bad.tsv", ["X\n"] + messy_corpus_lines(rng) + [PAD])
    assert_same_fault(read_corpus_file, bad_first, (ParseError, "unknown record tag", 1, "X"))
    monkeypatch.undo()
    assert_no_child()
    assert sorted(gone) == sorted(forks) and len(forks) == 2 * (split + 2 * len(MALFORMED) + 1)


def test_no_fork_while_another_python_thread_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(corpus_module, "_FORK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a second thread running"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(np.random.default_rng(3)))
        assert splits(path)
        assert_reads_like_one_process(path)
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize(
    "files, cgroup, cpus",
    [
        ({"cpu.max": "max 100000\n"}, "0::/\n", math.inf),
        ({"cpu.max": "100000 100000\n"}, "0::/\n", 1.0),
        (
            {"cpu.max": "max 100000\n", "app.slice/job/cpu.max": "250000 100000\n"},
            "0::/app.slice/job\n",
            2.5,
        ),
        ({"cpu.max": "50000 100000\n"}, "0::/docker/abc\n", 0.5),
        (
            {"cpu,cpuacct/cpu.cfs_quota_us": "-1\n", "cpu,cpuacct/cpu.cfs_period_us": "100000\n"},
            "2:cpu,cpuacct:/\n1:memory:/job\n0::/\n",
            math.inf,
        ),
        (
            {"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"},
            "2:cpu:/\n0::/\n",
            1.5,
        ),
        (
            {
                "cpu/cpu.cfs_quota_us": "150000\n",
                "cpu/cpu.cfs_period_us": "100000\n",
                "unified/cpu.max": "50000 100000\n",
            },
            "2:cpu:/\n0::/\n",
            0.5,
        ),
        ({"cpu.max": "lots\n"}, "0::/\n", math.inf),
        ({"cpu/cpu.cfs_quota_us": "100000\n"}, "2:cpu:/\n", math.inf),
        ({"cpu.max": "100000 100000\n"}, None, math.inf),
    ],
    ids=[
        "v2-max",
        "v2-one-cpu",
        "v2-own-directory",
        "v2-mount-root",
        "v1-no-quota",
        "v1-quota",
        "smallest-wins",
        "malformed",
        "no-period",
        "no-cgroup-file",
    ],
)
def test_cpu_quota_reads_the_cgroup_files(files, cgroup, cpus, tmp_path, monkeypatch):
    for name, text in files.items():
        path = tmp_path / "fs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    if cgroup is not None:
        (tmp_path / "cgroup").write_text(cgroup)
    monkeypatch.setattr(corpus_module, "_CGROUP_FILE", str(tmp_path / "cgroup"))
    monkeypatch.setattr(corpus_module, "_CGROUP_ROOT", str(tmp_path / "fs"))
    assert corpus_module._cpu_quota() == cpus


def test_no_fork_under_a_one_cpu_quota(forks, tmp_path, monkeypatch):
    """Two CPUs in the affinity mask but one in the quota: one process."""
    (tmp_path / "cgroup").write_text("0::/\n")
    quota = tmp_path / "cpu.max"
    quota.write_text("100000 100000\n")
    monkeypatch.setattr(corpus_module, "_CGROUP_FILE", str(tmp_path / "cgroup"))
    monkeypatch.setattr(corpus_module, "_CGROUP_ROOT", str(tmp_path))
    path = write_lines(tmp_path / "corpus.tsv", messy_corpus_lines(np.random.default_rng(5)))
    assert splits(path)
    assert_reads_like_one_process(path)
    assert forks == []
    quota.write_text("200000 100000\n")
    assert_reads_like_one_process(path)
    assert_no_child()
    assert len(forks) == 2


@pytest.mark.parametrize(
    "year, accepted", [(1899, False), (1900, True), (2100, True), (2101, False)]
)
def test_every_stage_shares_one_year_range(year, accepted):
    """Ingest, synthesis and indicators accept and reject the same years."""
    checks = [
        (ValidationError, lambda: read_corpus(_lines(J1, _a("P1", year=str(year))))),
        (ConfigError, lambda: replace(ten_field_config(1), year_range=(year, year))),
        (ConfigError, lambda: IndicatorConfig(if_year_range=(year, year))),
        (ConfigError, lambda: IndicatorConfig(pub_window=(year, year))),
    ]
    for error, check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(error, match="outside"):
                check()
