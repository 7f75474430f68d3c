"""Bibliographic corpus: typed records, TSV parsing, citation index, validation.

Corpus file format (UTF-8, LF, TSV, ``#`` comments allowed):

* article rows: ``A<TAB>id<TAB>journal_id<TAB>year<TAB>doc_type<TAB>refs``
  where ``refs`` is a comma-separated list of article ids (may be empty);
* journal rows: ``J<TAB>id<TAB>name<TAB>categories`` with semicolon-separated
  category names.

Canonical emission writes journals then articles, each sorted by id.
Identifiers and category names may not contain tabs, newlines, or their own
list separator; this keeps parse -> emit -> parse the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, UnknownNameError, ValidationError

DOC_TYPES = ("article", "review", "other")

DEFAULT_YEAR_BOUNDS = (1900, 2100)


def _check_token(value: str, what: str, forbidden: str) -> None:
    if not value:
        raise ValidationError(f"empty {what}")
    for ch in forbidden:
        if ch in value:
            raise ValidationError(f"{what} contains forbidden character {ch!r}", token=value)


@dataclass(frozen=True)
class ArticleRecord:
    """One bibliographic item with its outgoing reference list."""

    id: str
    journal_id: str
    year: int
    doc_type: str
    references: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "references", tuple(self.references))
        _check_token(self.id, "article id", "\t\n,")
        _check_token(self.journal_id, "journal id", "\t\n,")
        if self.doc_type not in DOC_TYPES:
            raise ValidationError("unknown doc_type", token=self.doc_type)
        for ref in self.references:
            _check_token(ref, "reference id", "\t\n,")


@dataclass(frozen=True)
class JournalRecord:
    """One journal with its subject-category list (order preserved)."""

    id: str
    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        _check_token(self.id, "journal id", "\t\n,")
        if "\t" in self.name or "\n" in self.name:
            raise ValidationError("journal name contains forbidden character", token=self.name)
        if not self.categories:
            raise ValidationError(f"journal {self.id!r} has no categories")
        for cat in self.categories:
            _check_token(cat, "category name", "\t\n;")


def parse_record(line: str, line_no: int | None = None) -> ArticleRecord | JournalRecord:
    """Parse one corpus TSV row into a typed record.

    Field order and count are enforced exactly; errors carry the line number
    and offending token.
    """
    parts = line.rstrip("\n").split("\t")
    tag = parts[0]
    if tag == "A":
        if len(parts) != 6:
            raise ParseError(f"article row needs 6 columns, got {len(parts)}", line_no, line)
        _, art_id, journal_id, year_s, doc_type, refs_s = (p.strip() for p in parts)
        try:
            year = int(year_s)
        except ValueError:
            raise ParseError("non-integer year", line_no, year_s) from None
        refs: list[str] = []
        if refs_s:
            for token in refs_s.split(","):
                token = token.strip()
                if not token:
                    raise ParseError("empty reference id", line_no, refs_s)
                refs.append(token)
        if doc_type not in DOC_TYPES:
            raise ParseError("unknown doc_type", line_no, doc_type)
        try:
            return ArticleRecord(art_id, journal_id, year, doc_type, tuple(refs))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, art_id) from None
    if tag == "J":
        if len(parts) != 4:
            raise ParseError(f"journal row needs 4 columns, got {len(parts)}", line_no, line)
        _, j_id, name, cats_s = (p.strip() for p in parts)
        cats = [c.strip() for c in cats_s.split(";")] if cats_s else []
        if any(not c for c in cats):
            raise ParseError("empty category name", line_no, cats_s)
        try:
            return JournalRecord(j_id, name, tuple(cats))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, j_id) from None
    raise ParseError("unknown record tag", line_no, tag)


def read_records(source: Iterable[str]) -> Iterator[ArticleRecord | JournalRecord]:
    """Yield typed records from corpus TSV lines, skipping comments and blanks."""
    for line_no, raw in enumerate(source, start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        yield parse_record(raw, line_no)


def emit_record(record: ArticleRecord | JournalRecord) -> str:
    """Render one record as its canonical TSV row (no trailing newline)."""
    if isinstance(record, ArticleRecord):
        refs = ",".join(record.references)
        return f"A\t{record.id}\t{record.journal_id}\t{record.year}\t{record.doc_type}\t{refs}"
    cats = ";".join(record.categories)
    return f"J\t{record.id}\t{record.name}\t{cats}"


class Corpus:
    """Immutable article/journal tables plus the inverse citation index.

    ``citation_index`` maps each in-corpus cited article id to the tuple of
    ``(citing_article_id, citing_year)`` pairs, sorted by citing id. It is
    exactly the inverse of the union of (deduplicated) reference lists
    restricted to ids present in the corpus. Instances are immutable after
    construction; concurrent reads need no locking.
    """

    def __init__(
        self,
        articles: dict[str, ArticleRecord],
        journals: dict[str, JournalRecord],
        citation_index: dict[str, tuple[tuple[str, int], ...]],
        dangling_reference_count: int,
    ):
        self._articles: Mapping[str, ArticleRecord] = MappingProxyType(articles)
        self._journals: Mapping[str, JournalRecord] = MappingProxyType(journals)
        self._citation_index: Mapping[str, tuple[tuple[str, int], ...]] = MappingProxyType(
            citation_index
        )
        self._dangling = dangling_reference_count

    @property
    def articles(self) -> Mapping[str, ArticleRecord]:
        return self._articles

    @property
    def journals(self) -> Mapping[str, JournalRecord]:
        return self._journals

    @property
    def citation_index(self) -> Mapping[str, tuple[tuple[str, int], ...]]:
        return self._citation_index

    @property
    def dangling_reference_count(self) -> int:
        return self._dangling

    def article(self, article_id: str) -> ArticleRecord:
        try:
            return self._articles[article_id]
        except KeyError:
            raise UnknownNameError(f"unknown article: {article_id!r}") from None

    def journal(self, journal_id: str) -> JournalRecord:
        try:
            return self._journals[journal_id]
        except KeyError:
            raise UnknownNameError(f"unknown journal: {journal_id!r}") from None


def build_corpus(
    records: Iterable[ArticleRecord | JournalRecord],
    *,
    year_bounds: tuple[int, int] = DEFAULT_YEAR_BOUNDS,
) -> Corpus:
    """Assemble a validated :class:`Corpus` from parsed records.

    Journals may appear before or after the articles that reference them.
    Duplicate reference entries within one article are collapsed to a single
    occurrence (first-occurrence order). Raises :class:`ValidationError` for
    duplicate ids, self-citations, out-of-bounds years, or unresolvable
    journal ids (all offenders listed).
    """
    articles: dict[str, ArticleRecord] = {}
    journals: dict[str, JournalRecord] = {}
    lo, hi = year_bounds
    for rec in records:
        if isinstance(rec, ArticleRecord):
            if rec.id in articles:
                raise ValidationError("duplicate article id", token=rec.id)
            if not lo <= rec.year <= hi:
                raise ValidationError(
                    f"article {rec.id!r} year {rec.year} outside bounds [{lo}, {hi}]"
                )
            if rec.id in rec.references:
                raise ValidationError(f"article {rec.id!r} cites itself")
            deduped = tuple(dict.fromkeys(rec.references))
            if len(deduped) != len(rec.references):
                rec = replace(rec, references=deduped)
            articles[rec.id] = rec
        elif isinstance(rec, JournalRecord):
            if rec.id in journals:
                raise ValidationError("duplicate journal id", token=rec.id)
            journals[rec.id] = rec
        else:
            raise ValidationError(f"unsupported record type: {type(rec).__name__}")

    unresolved = sorted({a.journal_id for a in articles.values() if a.journal_id not in journals})
    if unresolved:
        raise ValidationError("articles reference unknown journals: " + ", ".join(unresolved))

    articles = dict(sorted(articles.items()))
    journals = dict(sorted(journals.items()))

    index: dict[str, list[tuple[str, int]]] = {}
    dangling = 0
    for art in articles.values():
        for ref in art.references:
            if ref in articles:
                index.setdefault(ref, []).append((art.id, art.year))
            else:
                dangling += 1
    citation_index = {cited: tuple(entries) for cited, entries in sorted(index.items())}
    return Corpus(articles, journals, citation_index, dangling)


def read_corpus(
    source: Iterable[str], *, year_bounds: tuple[int, int] = DEFAULT_YEAR_BOUNDS
) -> Corpus:
    """Parse and build a corpus from TSV lines in one step."""
    return build_corpus(read_records(source), year_bounds=year_bounds)


def emit_corpus(corpus: Corpus) -> str:
    """Render the canonical corpus file: journals then articles, sorted by id."""
    lines = [emit_record(corpus.journals[j]) for j in sorted(corpus.journals)]
    lines += [emit_record(corpus.articles[a]) for a in sorted(corpus.articles)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValidationReport:
    """Counting summary of a built corpus; reporting only, never fails."""

    articles: int
    journals: int
    dangling_references: int
    zero_reference_articles: int
    doc_type_counts: dict[str, int]
    year_counts: dict[int, int]
    journal_article_counts: dict[str, int]

    def as_lines(self) -> list[str]:
        lines = [
            f"articles\t{self.articles}",
            f"journals\t{self.journals}",
            f"dangling_references\t{self.dangling_references}",
            f"zero_reference_articles\t{self.zero_reference_articles}",
        ]
        lines += [f"doc_type.{d}\t{n}" for d, n in sorted(self.doc_type_counts.items())]
        lines += [f"year.{y}\t{n}" for y, n in sorted(self.year_counts.items())]
        lines += [f"journal.{j}\t{n}" for j, n in sorted(self.journal_article_counts.items())]
        return lines


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Produce per-corpus counts: sizes, dangling refs, doc types, year histogram."""
    doc_counts: dict[str, int] = {}
    year_counts: dict[int, int] = {}
    journal_counts = {j: 0 for j in corpus.journals}
    zero_refs = 0
    for art in corpus.articles.values():
        doc_counts[art.doc_type] = doc_counts.get(art.doc_type, 0) + 1
        year_counts[art.year] = year_counts.get(art.year, 0) + 1
        journal_counts[art.journal_id] += 1
        if not art.references:
            zero_refs += 1
    return ValidationReport(
        articles=len(corpus.articles),
        journals=len(corpus.journals),
        dangling_references=corpus.dangling_reference_count,
        zero_reference_articles=zero_refs,
        doc_type_counts=dict(sorted(doc_counts.items())),
        year_counts=dict(sorted(year_counts.items())),
        journal_article_counts=dict(sorted(journal_counts.items())),
    )
