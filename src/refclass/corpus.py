"""Bibliographic corpus: integer rows, CSR references, TSV parsing, validation.

Corpus file format (UTF-8, LF, TSV, ``#`` comments allowed):

* article rows: ``A<TAB>id<TAB>journal_id<TAB>year<TAB>doc_type<TAB>refs``
  where ``refs`` is a comma-separated list of article ids (may be empty);
* journal rows: ``J<TAB>id<TAB>name<TAB>categories`` with semicolon-separated
  category names.

:func:`read_corpus` is the one reader and :func:`emit_corpus` the one writer;
emission puts journals then articles, each sorted by id. Ids, journal names
and category names hold no tab, ``\n`` or ``\r`` (ids and categories no list
separator either), so read -> emit -> read is the identity, also through a
file read with universal newlines.

Storage: a :class:`Corpus` keeps articles as rows in sorted-id order, as
integer columns (journal code into the sorted journal ids, year, doc-type
code) plus CSR reference arrays (``indptr`` and per-reference codes, deduped
in first-occurrence order). A reference to an id outside the corpus stays in
the CSR with a code past the last row, indexing a table of dangling ids, so
emission keeps its position. ``articles`` and ``citation_index`` are derived
views: the first builds an :class:`ArticleRecord` on each access, the second
is built once on first access. :func:`read_corpus` and :func:`build_corpus`
(from records) check each record as it arrives, in file order, and end in
one column builder; :func:`read_corpus` validates each line once and never
builds an :class:`ArticleRecord`. Article years must lie in
:data:`YEAR_BOUNDS`, the one year range that synthesis and the indicators
check too; no reader takes another.

The builder codes rows and references as ``int32``, so rows plus dangling
ids must stay below ``2**31``. It sorts an ``int64`` (row, code) key in
place and compares neighbours to see whether any reference repeats; only
then does a stable sort of that key find the repeats to drop. It skips the
id sort when ids arrive strictly ascending, and the grouping by citing row
when the references already arrive grouped. Files :func:`emit_corpus`
writes take all three shortcuts: sorted ids, grouped and without repeats.

:func:`read_corpus` always takes its input into a list first. Two
processes: when ``os.fork`` exists, the CPU affinity holds at least two
CPUs, no other Python thread runs, ``SIGCHLD`` is not ignored and the input
has at least :data:`_FORK_LINES` lines, it forks one worker for the second
half. Each process checks and codes its own half; the worker pipes its rows
and codes back, and the parent merges them and builds the corpus once.
Results and errors are those of the one-process read, which runs whenever
one of the conditions fails, the fork fails, the worker fails or an id
appears in both halves. The price: a caller that passes an open file has
all its lines in memory during the read, and the two processes together
hold more memory than one. A CPU quota (a cgroup limit) is not detected:
under a one-CPU quota with a two-CPU affinity mask the read still forks.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ParseError, UnknownNameError, ValidationError

DOC_TYPES = ("article", "review", "other")

#: The one year range of every stage: corpus years, synthetic years and
#: indicator years all lie within it, ends included.
YEAR_BOUNDS = (1900, 2100)

_DOC_CODE = {t: i for i, t in enumerate(DOC_TYPES)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _year_pair(years, name: str) -> tuple[int, int]:
    """``years`` as a non-empty ``(lo, hi)`` range within :data:`YEAR_BOUNDS`.

    Raises :class:`ConfigError` naming the knob ``name`` otherwise.
    """
    if not (isinstance(years, (tuple, list)) and len(years) == 2 and all(map(_is_int, years))):
        raise ConfigError(f"{name} must be a pair of integers")
    lo, hi = years
    if lo > hi:
        raise ConfigError(f"empty {name}")
    if lo < YEAR_BOUNDS[0] or hi > YEAR_BOUNDS[1]:
        raise ConfigError(f"{name} outside year bounds {YEAR_BOUNDS[0]}-{YEAR_BOUNDS[1]}")
    return lo, hi


def _check_token(value: str, what: str, forbidden: str) -> None:
    if not value:
        raise ValidationError(f"empty {what}")
    for ch in forbidden:
        if ch in value:
            raise ValidationError(f"{what} contains forbidden character {ch!r}", token=value)
    # The readers strip every field, so a padded token would not read back.
    if value != value.strip():
        raise ValidationError(f"{what} has surrounding whitespace", token=value)


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
        _check_token(self.id, "article id", "\t\n\r,")
        _check_token(self.journal_id, "journal id", "\t\n\r,")
        if self.doc_type not in DOC_TYPES:
            raise ValidationError("unknown doc_type", token=self.doc_type)
        for ref in self.references:
            _check_token(ref, "reference id", "\t\n\r,")


@dataclass(frozen=True)
class JournalRecord:
    """One journal with its subject-category list (order preserved)."""

    id: str
    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        _check_token(self.id, "journal id", "\t\n\r,")
        if any(ch in self.name for ch in "\t\n\r"):
            raise ValidationError("journal name contains forbidden character", token=self.name)
        if self.name != self.name.strip():
            raise ValidationError("journal name has surrounding whitespace", token=self.name)
        if not self.categories:
            raise ValidationError(f"journal {self.id!r} has no categories")
        for cat in self.categories:
            _check_token(cat, "category name", "\t\n\r;")


def _article_fields(
    parts: list[str], line: str, line_no: int | None
) -> tuple[str, str, int, str, str]:
    """Check every rule of one article row once; the first broken rule raises.

    Returns id, journal id, year, doc type and the comma-joined references
    with each one stripped.
    """
    if len(parts) != 6:
        raise ParseError(f"article row needs 6 columns, got {len(parts)}", line_no, line)
    _, art_id, journal_id, year_s, doc_type, refs_s = parts
    art_id, journal_id, year_s = art_id.strip(), journal_id.strip(), year_s.strip()
    doc_type, refs_s = doc_type.strip(), refs_s.strip()
    try:
        year = int(year_s)
    except ValueError:
        raise ParseError("non-integer year", line_no, year_s) from None
    refs = refs_s
    # Every whitespace character but " " is unprintable, so only a field
    # holding one can have a token that str.strip() changes.
    if " " in refs or not refs.isprintable():
        refs = ",".join(token.strip() for token in refs.split(","))
    if refs and (",," in refs or refs[0] == "," or refs[-1] == ","):
        raise ParseError("empty reference id", line_no, refs_s)
    if doc_type not in DOC_TYPES:
        raise ParseError("unknown doc_type", line_no, doc_type)
    # The ArticleRecord token rules. Splitting on tabs and commas leaves only
    # an empty or comma-holding id, or a "\n" or "\r" in the line, to find.
    if (
        not art_id
        or not journal_id
        or "," in art_id
        or "," in journal_id
        or "\n" in art_id
        or "\n" in journal_id
        or "\n" in refs
        or "\r" in line
    ):
        try:
            _check_token(art_id, "article id", "\t\n\r,")
            _check_token(journal_id, "journal id", "\t\n\r,")
            for ref in refs.split(",") if refs else ():
                _check_token(ref, "reference id", "\t\n\r,")
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, art_id) from None
    return art_id, journal_id, year, doc_type, refs


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _ArticleView(Mapping):
    """Read-only id -> :class:`ArticleRecord` view that builds each record on access."""

    def __init__(self, corpus: Corpus):
        self._corpus = corpus

    def __getitem__(self, article_id: str) -> ArticleRecord:
        return self._corpus._record(self._corpus.row_of[article_id])

    def __contains__(self, article_id) -> bool:
        return article_id in self._corpus.row_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._corpus.ids)

    def __len__(self) -> int:
        return len(self._corpus.ids)


class Corpus:
    """Immutable article rows, journal table and CSR reference arrays.

    Row ``r`` is the article ``ids[r]`` (ids sorted); ``row_of`` inverts
    ``ids``. Per row: ``journal_codes`` index ``journal_ids`` (sorted),
    ``years`` and ``doc_types`` (codes into :data:`DOC_TYPES`). The
    references of row ``r`` are ``refs[indptr[r]:indptr[r + 1]]`` in
    first-occurrence order without duplicates; a code ``c < len(ids)`` is a
    row, a larger code names ``dangling_ids[c - len(ids)]``. Arrays are
    read-only.

    ``citation_index`` maps each in-corpus cited article id to the tuple of
    ``(citing_article_id, citing_year)`` pairs, sorted by citing id. It is
    exactly the inverse of the union of (deduplicated) reference lists
    restricted to ids present in the corpus. Instances are immutable after
    construction; concurrent reads need no locking.
    """

    def __init__(
        self,
        ids: tuple[str, ...],
        journals: dict[str, JournalRecord],
        journal_codes: np.ndarray,
        years: np.ndarray,
        doc_types: np.ndarray,
        indptr: np.ndarray,
        refs: np.ndarray,
        dangling_ids: tuple[str, ...],
    ):
        self.ids = ids
        self.row_of: Mapping[str, int] = MappingProxyType(dict(zip(ids, range(len(ids)))))
        self._journals: Mapping[str, JournalRecord] = MappingProxyType(journals)
        self.journal_ids = tuple(journals)
        self.journal_codes = _frozen(journal_codes)
        self.years = _frozen(years)
        self.doc_types = _frozen(doc_types)
        self.indptr = _frozen(indptr)
        self.refs = _frozen(refs)
        self.dangling_ids = dangling_ids
        # Row ids then dangling ids, so a reference code indexes its id.
        self._names = _frozen(np.array(ids + dangling_ids, dtype=object))
        self._dangling = int(np.count_nonzero(refs >= len(ids)))

    @property
    def articles(self) -> Mapping[str, ArticleRecord]:
        return _ArticleView(self)

    @property
    def journals(self) -> Mapping[str, JournalRecord]:
        return self._journals

    @cached_property
    def citation_index(self) -> Mapping[str, tuple[tuple[str, int], ...]]:
        n = len(self.ids)
        linked = self.refs < n
        # CSR rows are in id order, so a stable sort by cited row keeps each
        # cited article's citers sorted by id.
        order = np.argsort(self.refs[linked], kind="stable")
        cited = self.refs[linked][order]
        ids, years = self.ids, self.years.tolist()
        pairs = [(ids[r], years[r]) for r in self.citer_rows()[linked][order].tolist()]
        bounds = np.searchsorted(cited, np.arange(n + 1)).tolist()
        return MappingProxyType(
            {ids[c]: tuple(pairs[bounds[c] : bounds[c + 1]]) for c in np.unique(cited).tolist()}
        )

    @property
    def dangling_reference_count(self) -> int:
        return self._dangling

    def citer_rows(self) -> np.ndarray:
        """The citing row of every entry of ``refs``."""
        return np.repeat(np.arange(len(self.ids), dtype=np.int32), np.diff(self.indptr))

    def _record(self, row: int) -> ArticleRecord:
        return ArticleRecord(
            self.ids[row],
            self.journal_ids[self.journal_codes[row]],
            int(self.years[row]),
            DOC_TYPES[self.doc_types[row]],
            tuple(self._names[self.refs[self.indptr[row] : self.indptr[row + 1]]].tolist()),
        )

    def article(self, article_id: str) -> ArticleRecord:
        try:
            row = self.row_of[article_id]
        except KeyError:
            raise UnknownNameError(f"unknown article: {article_id!r}") from None
        return self._record(row)

    def journal(self, journal_id: str) -> JournalRecord:
        try:
            return self._journals[journal_id]
        except KeyError:
            raise UnknownNameError(f"unknown journal: {journal_id!r}") from None


def _assemble(
    ids: Sequence[str],
    journal_of: Sequence[str],
    years: Sequence[int],
    doc_types: Sequence[int],
    citer: np.ndarray,
    target: np.ndarray,
    dangling_ids: tuple[str, ...],
    journals: Sequence[JournalRecord],
) -> Corpus:
    """The one corpus constructor: sort rows by id, code, dedupe, build CSR.

    Articles come in record order, already checked record by record (see
    :meth:`_Rows.extend`). Each reference is one ``(citer, target)`` pair
    of record indices in draw order; ``target >= len(ids)`` names
    ``dangling_ids[target - len(ids)]``. Raises :class:`ValidationError`
    for unresolvable journal ids (all offenders listed), then when the rows
    and dangling ids together reach ``2**31`` codes.

    Row and reference codes are ``int32``; only the dedupe key
    ``src * width + dst`` is ``int64``. Sorting a copy of that key in place
    and comparing neighbours shows whether any pair repeats. Only then does
    a stable argsort of the key put every repeat right after its first
    occurrence, so a neighbour compare drops the repeats and keeps draw
    order. Sorts are skipped when the input makes them a no-op: the id sort
    when the ids arrive strictly ascending, the grouping of references by
    citing row when they already arrive grouped, and the argsort when no
    pair repeats. Every file :func:`emit_corpus` writes skips all three.
    """
    journal_table = dict(sorted((j.id, j) for j in journals))
    journal_code = {j_id: c for c, j_id in enumerate(journal_table)}
    unresolved = sorted(set(journal_of) - journal_code.keys())
    if unresolved:
        raise ValidationError("articles reference unknown journals: " + ", ".join(unresolved))
    n, width = len(ids), len(ids) + len(dangling_ids)
    if width >= 2**31:
        raise ValidationError(f"{width} article and dangling ids reach the 2**31 code limit")

    codes = np.fromiter(map(journal_code.__getitem__, journal_of), np.int32, count=n)
    years = np.asarray(years, dtype=np.int64)
    doc_types = np.asarray(doc_types, dtype=np.int8)
    # Callers pass no repeated id, so ascending means strictly ascending.
    if all(map(str.__le__, ids, islice(ids, 1, None))):
        src, dst = citer.astype(np.int32, copy=False), target.astype(np.int32, copy=False)
    else:
        order = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.int32)
        rank = np.arange(width, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        src, dst = rank[citer], rank[target]
        ids = [ids[i] for i in order.tolist()]
        codes, years, doc_types = codes[order], years[order], doc_types[order]

    # Group references by citing row, keeping draw order inside each row.
    if len(src) > 1 and not (src[1:] >= src[:-1]).all():
        by_row = np.argsort(src, kind="stable")
        src, dst = src[by_row], dst[by_row]
        del by_row
    # Keep the first occurrence of every (row, code) pair. A sorted copy of
    # the pair key shows whether any pair repeats; if one does, a stable
    # sort leaves each repeat right behind an equal key.
    key = src.astype(np.int64) * width + dst
    key.sort()
    repeats = bool((key[1:] == key[:-1]).any())
    del key
    if repeats:
        key = src.astype(np.int64) * width + dst
        perm = np.argsort(key, kind="stable")
        key = key[perm]
        keep = np.ones(len(key), dtype=bool)
        keep[perm[1:][key[1:] == key[:-1]]] = False
        del key, perm
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    return Corpus(tuple(ids), journal_table, codes, years, doc_types, indptr, dst, dangling_ids)


class _Codes(dict):
    """Article id -> record index; an unknown id gets the next code past the rows."""

    def __init__(self, ids: Sequence[str]):
        super().__init__(zip(ids, range(len(ids))))
        self.first_dangling = len(ids)
        self.dangling: list[str] = []

    def __missing__(self, ref: str) -> int:
        code = self[ref] = self.first_dangling + len(self.dangling)
        self.dangling.append(ref)
        return code


class _Rows:
    """Article and journal rows in record order, checked as the readers collect them.

    ``refs`` holds each article's references as one comma-joined string, so
    no per-reference object outlives the line that produced it.
    """

    def __init__(self):
        self.ids: list[str] = []
        self.journal_of: list[str] = []
        self.years: list[int] = []
        self.doc_types: list[int] = []
        self.counts: list[int] = []
        self.refs: list[str] = []
        self.journals: list[JournalRecord] = []

    def extend(self, items: Iterable[tuple[str, str, int, str, str] | JournalRecord]) -> _Rows:
        """Add ``items`` in order, raising at the first record that breaks a rule.

        A repeated journal id raises; per article, in this order, a repeated
        id, a year outside :data:`YEAR_BOUNDS` and a self-citation. The seen
        ids stay local, out of the rows a worker pickles.
        """
        lo, hi = YEAR_BOUNDS
        seen_ids: set[str] = set()
        seen_journals: set[str] = set()
        for item in items:
            if isinstance(item, JournalRecord):
                if item.id in seen_journals:
                    raise ValidationError("duplicate journal id", token=item.id)
                seen_journals.add(item.id)
                self.journals.append(item)
                continue
            art_id, journal_id, year, doc_type, refs = item
            if art_id in seen_ids:
                raise ValidationError("duplicate article id", token=art_id)
            seen_ids.add(art_id)
            if not lo <= year <= hi:
                raise ValidationError(f"article {art_id!r} year {year} outside bounds [{lo}, {hi}]")
            if art_id in refs and art_id in refs.split(","):
                raise ValidationError(f"article {art_id!r} cites itself")
            self.ids.append(art_id)
            self.journal_of.append(journal_id)
            self.years.append(year)
            self.doc_types.append(_DOC_CODE[doc_type])
            self.counts.append(refs.count(",") + 1 if refs else 0)
            self.refs.append(refs)
        return self

    def append(self, other: _Rows) -> None:
        """Put the rows of ``other`` after these; both have their references coded."""
        for name, column in vars(other).items():
            getattr(self, name).extend(column)

    def targets(self, codes: _Codes) -> np.ndarray:
        """The code of every reference in draw order, then drops the strings.

        An id not in ``codes`` joins ``codes.dangling``.
        """
        tokens = chain.from_iterable(refs.split(",") for refs in self.refs if refs)
        target = np.fromiter(map(codes.__getitem__, tokens), np.int32, count=sum(self.counts))
        self.refs = []
        return target

    def build(self, target: np.ndarray, dangling: tuple[str, ...]) -> Corpus:
        """The corpus of these rows, whose references ``target`` codes."""
        citer = np.repeat(np.arange(len(self.ids), dtype=np.int32), self.counts)
        return _assemble(
            self.ids,
            self.journal_of,
            self.years,
            self.doc_types,
            citer,
            target,
            dangling,
            self.journals,
        )


def _record_rows(records: Iterable[ArticleRecord | JournalRecord]):
    for rec in records:
        if isinstance(rec, ArticleRecord):
            yield rec.id, rec.journal_id, rec.year, rec.doc_type, ",".join(rec.references)
        elif isinstance(rec, JournalRecord):
            yield rec
        else:
            raise ValidationError(f"unsupported record type: {type(rec).__name__}")


def _line_rows(source: Iterable[str], start: int = 1):
    for line_no, raw in enumerate(source, start=start):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if parts[0] == "A":
            yield _article_fields(parts, raw, line_no)
            continue
        if parts[0] != "J":
            raise ParseError("unknown record tag", line_no, parts[0])
        if len(parts) != 4:
            raise ParseError(f"journal row needs 4 columns, got {len(parts)}", line_no, raw)
        _, j_id, name, cats_s = parts
        j_id, name, cats_s = j_id.strip(), name.strip(), cats_s.strip()
        cats = [c.strip() for c in cats_s.split(";")] if cats_s else []
        if any(not c for c in cats):
            raise ParseError("empty category name", line_no, cats_s)
        try:
            record = JournalRecord(j_id, name, tuple(cats))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, j_id) from None
        yield record


def build_corpus(records: Iterable[ArticleRecord | JournalRecord]) -> Corpus:
    """Assemble a validated :class:`Corpus` from in-memory records.

    Journals may appear before or after the articles that reference them.
    Duplicate reference entries within one article are collapsed to a single
    occurrence (first-occurrence order). Raises :class:`ValidationError` for
    duplicate ids, self-citations, years outside :data:`YEAR_BOUNDS`, or
    unresolvable journal ids (all offenders listed).
    """
    rows = _Rows().extend(_record_rows(records))
    codes = _Codes(rows.ids)
    return rows.build(rows.targets(codes), tuple(codes.dangling))


#: Shorter inputs are read in one process. Timed in-process on prefixes of
#: a synthetic corpus (2 cores), the fork lost at 5,000 lines and fewer and
#: won clearly from 8,000 lines on.
_FORK_LINES = 8000


def _can_fork() -> bool:
    """Whether a read may fork and reap its own worker.

    A second CPU must be in the affinity mask, no other Python thread may
    run, and ``SIGCHLD`` must be neither ignored nor set outside Python: with
    it ignored the kernel reaps children itself, so the worker's pid could
    be reused before a kill, and waiting for it would wait for every child.
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
        and signal.getsignal(signal.SIGCHLD) not in (signal.SIG_IGN, None)
    )


def _article_ids(lines: Iterable[str]) -> list[str]:
    """The id of every article line: the ids the parse gives if every line parses."""
    return [raw.split("\t", 2)[1].strip() for raw in lines if raw.startswith("A\t")]


def _coded_rows(lines: list[str], lo: int, hi: int) -> tuple[_Rows, np.ndarray, _Codes]:
    """``lines[lo:hi]`` parsed and checked, with their references coded.

    References are coded against the ids of every line, those outside
    ``lines[lo:hi]`` taken straight from their ``A`` lines; an id outside
    them gets the next code past them in its order of first appearance in
    ``lines[lo:hi]``, and joins ``codes.dangling``.
    """
    rows = _Rows().extend(_line_rows(islice(lines, lo, hi), start=lo + 1))
    codes = _Codes(
        _article_ids(islice(lines, lo)) + rows.ids + _article_ids(islice(lines, hi, None))
    )
    return rows, rows.targets(codes), codes


def _read_halves(lines: list[str]) -> tuple[_Rows, np.ndarray, _Codes] | None:
    """:func:`_coded_rows` of all ``lines``, the second half read by a forked worker.

    Each process runs :func:`_coded_rows` on its half. The worker pipes back
    its rows, codes and dangling ids and exits; the parent recodes the
    worker's dangling ids after its own and appends the worker's rows. A
    fault in the first half is the first fault in file order: it raises
    here after the worker is killed. Returns ``None`` when the fork fails,
    when the worker fails in any way (a fault in its half included) and when
    an id appears in both halves, a repeat that neither process checks; the
    one-process read then finds the result or the first fault. Empties
    ``lines`` once both halves are read.
    """
    mid = len(lines) // 2
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a process with other OS threads, such as
            # numpy's idle BLAS pool, forks; the worker calls no BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # The worker never returns into the caller's code: whatever happens,
        # it exits here, printing nothing, and a failure leaves a payload
        # that does not load.
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                rows, target, codes = _coded_rows(lines, mid, len(lines))
                pickle.dump((rows, target, codes.dangling), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    payload = None
    try:
        with os.fdopen(r, "rb") as pipe:
            rows, target, codes = _coded_rows(lines, 0, mid)
            payload = pipe.read()
    finally:
        # A SIGCHLD handler of the caller's may have reaped the worker already.
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            if payload is None:
                # A fault in this half: the worker's rows are not wanted.
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # The payload alone tells whether the worker succeeded: an empty or cut
    # off pickle fails to load, whatever the worker's exit status was.
    try:
        other, other_target, other_dangling = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):
        return None
    del payload
    # Neither process saw the other's records, so a repeat across the halves
    # is found here: an article id in both leaves the table of every line's
    # ids shorter than that list.
    n = codes.first_dangling
    journals = {j.id for j in rows.journals}
    if len(codes) - len(codes.dangling) < n or journals.intersection(j.id for j in other.journals):
        return None
    lines.clear()
    # The worker's dangling codes follow the rows in its own order; recode
    # them through this half's table, which keeps first-appearance order.
    recode = np.fromiter(map(codes.__getitem__, other_dangling), np.int32, len(other_dangling))
    dangling = other_target >= n
    other_target[dangling] = recode[other_target[dangling] - n]
    rows.append(other)
    return rows, np.concatenate([target, other_target]), codes


def read_corpus(source: Iterable[str]) -> Corpus:
    """Parse and build a corpus from TSV lines, skipping blanks and ``#`` lines.

    Takes ``source`` into a list first, so an error that ``source`` raises
    while it is read (a decode error of an open file, say) wins over any
    fault in its lines. Then raises the first fault in file order, as each
    record is checked when it is read: a :class:`ParseError` with line
    number and token for a malformed line, or the :class:`ValidationError`
    of a rule of :func:`build_corpus`; unknown journals and the ``2**31``
    code limit are checked once every line is read.

    Where the process can fork (``os.fork`` exists, its CPU affinity holds
    at least two CPUs, no other Python thread runs and ``SIGCHLD`` is not
    ignored), from :data:`_FORK_LINES` lines on, a forked worker reads the
    second half (see :func:`_read_halves`). The result and every error are
    the same either way.
    """
    lines = list(source)
    halves = _read_halves(lines) if len(lines) >= _FORK_LINES and _can_fork() else None
    rows, target, codes = halves or _coded_rows(lines, 0, len(lines))
    lines.clear()
    dangling = tuple(codes.dangling)
    del halves, codes
    return rows.build(target, dangling)


def emit_corpus(corpus: Corpus) -> str:
    """Render the canonical corpus file: journals then articles, sorted by id."""
    lines = [f"J\t{j.id}\t{j.name}\t{';'.join(j.categories)}" for j in corpus.journals.values()]
    refs = corpus._names[corpus.refs].tolist()
    bounds = corpus.indptr.tolist()
    journal_ids = corpus.journal_ids
    lines += [
        f"A\t{a_id}\t{journal_ids[j]}\t{year}\t{DOC_TYPES[doc]}\t{','.join(refs[lo:hi])}"
        for a_id, j, year, doc, lo, hi in zip(
            corpus.ids,
            corpus.journal_codes.tolist(),
            corpus.years.tolist(),
            corpus.doc_types.tolist(),
            bounds,
            bounds[1:],
        )
    ]
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
    doc_counts = np.bincount(corpus.doc_types, minlength=len(DOC_TYPES)).tolist()
    years, year_counts = np.unique(corpus.years, return_counts=True)
    journal_counts = np.bincount(corpus.journal_codes, minlength=len(corpus.journal_ids))
    return ValidationReport(
        articles=len(corpus.ids),
        journals=len(corpus.journal_ids),
        dangling_references=corpus.dangling_reference_count,
        zero_reference_articles=int(np.count_nonzero(np.diff(corpus.indptr) == 0)),
        doc_type_counts={d: n for d, n in sorted(zip(DOC_TYPES, doc_counts)) if n},
        year_counts=dict(zip(years.tolist(), year_counts.tolist())),
        journal_article_counts=dict(zip(corpus.journal_ids, journal_counts.tolist())),
    )
