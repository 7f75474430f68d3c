"""Record-at-a-time reference reader of corpus files.

The oracle for the corpus readers of ``refclass.corpus``: each line is split
into its columns, stripped and checked in full, without the library's
reader, and the records are checked in file order as they are parsed. It
returns what the array corpus must give, or raises the same first fault.
"""

from __future__ import annotations

from dataclasses import replace

from refclass.corpus import YEAR_BOUNDS, ArticleRecord, JournalRecord
from refclass.errors import ParseError, ValidationError


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
            if j_id.startswith("#"):
                faults.append(f"journal id has a leading '#', token {j_id!r}")
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
