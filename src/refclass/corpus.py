"""Bibliographic corpus: integer rows, CSR references, TSV parsing, validation.

Corpus file format (UTF-8, LF, TSV, ``#`` comments allowed):

* article rows: ``A<TAB>id<TAB>journal_id<TAB>year<TAB>doc_type<TAB>refs``
  where ``refs`` is a comma-separated list of article ids (may be empty);
* journal rows: ``J<TAB>id<TAB>name<TAB>categories`` with semicolon-separated
  category names.

Readers and writer: :func:`read_corpus_file` reads a corpus file,
:func:`read_corpus` streams lines from any iterable and :func:`emit_corpus`
is the one writer; emission puts journals then articles, each sorted by
id. Ids, journal names and category names hold no tab, ``\n`` or ``\r``
(ids and categories no list separator either), so read -> emit -> read is
the identity, also through a file read with universal newlines. An article
id has no leading ``#``, so its assignment line never reads as a comment,
and neither has a journal id, which leads the rows of its report tables.

Storage: a :class:`Corpus` keeps articles as rows in sorted-id order, each
id held once (one view class, ``_IdView``, bisects the sorted ids for
``row_of``, ``articles`` and every assignment table), as integer
columns (journal code into the sorted journal ids, year, doc-type code)
plus CSR reference arrays (``indptr`` and per-reference codes, deduped in
first-occurrence order). A reference to an id outside the corpus stays in
the CSR with a code past the last row, indexing a table of dangling ids, so
emission keeps its position. ``articles`` and ``citation_index`` are derived
views: the first builds an :class:`ArticleRecord` on each access, the second
is built once on first access. The readers and :func:`build_corpus` (from
records) check each record as it arrives, in file order, and code the
records as one form, ``_Columns``, that one builder turns into the corpus;
:func:`generate_synthetic <refclass.synthetic.generate_synthetic>` builds
the same form from its draws. The readers validate each line once and never
build an :class:`ArticleRecord`. Article years must lie in
:data:`YEAR_BOUNDS`, the one year range that synthesis and the indicators
check too; no reader takes another.

The builder takes each article's references grouped, as a count per
article plus one array of codes (draw-order pairs are grouped first). It
codes rows and references as ``int32``, so rows plus dangling ids must stay
below ``2**31``. It builds the ``int64`` (row, code) key one block of whole
rows at a time, sorts the block in place and compares neighbours to see
whether a reference repeats; only then does a stable sort of that block find
the repeats to drop. It skips the id sort when ids arrive strictly
ascending. Files :func:`emit_corpus` writes take that shortcut and hold no
repeat.

:func:`read_corpus_file` decodes the file exactly as ``open()`` does (UTF-8,
universal newlines) and streams its lines into the checks: no process holds
a list of the file's lines. A fault in a line stands only once the rest of
the file decodes, so a byte that is not UTF-8 wins over every fault, as a
:class:`ParseError` naming the file. Two workers: when ``os.fork`` exists,
the CPU affinity mask holds at least two CPUs, no other Python thread runs,
``SIGCHLD`` is not ignored and the file holds at least :data:`_FORK_BYTES`
bytes, it forks one worker per half; no CPU quota is read. The file splits
at the first line start at or past its middle; each worker decodes only its
own byte range, read with ``os.pread``, reads, checks and codes it as a
corpus of its own, and pipes back its ``_Columns`` and its reference codes.
The parent parses no line: it merges the two halves into whole-file codes,
with no dict of the ids, drops them and builds the corpus once. Results and
errors are those of the one-process read, which streams the whole file from
the same descriptor whenever one of the conditions fails, a fork fails, a
worker fails (a fault in its half included) or an id appears in both halves.

The reads of ``classify`` and ``indicators`` are lean: each codes only the
references its command reads. :func:`_read_corpus_file` takes a journal
predicate, for which it first scans the journal rows that lead the file
(with ``os.pread``, so the file offset stays at 0), and a year range.
A corpus that is not a regular file, a pipe say, is pre-scanned for
nothing, so its ``classify`` read codes every row; only speed changes.
``classify`` passes the journals that seed, whose rows never vote;
``indicators`` passes its impact years, as its cube counts only citations
made in them. A row of a journal found in the scan, or of a year outside
the range, is checked like every other row but not coded: it gets no
references, and its reference field is neither split nor looked up, in
one process and in both workers alike. The same predicate then records,
per row, whether the row was coded, and what reads a row's references
refuses the corpus with a :class:`TypeError` when the read left one of
its rows uncoded: ``classify`` checks its open rows, ``count_cube`` its
citers in the impact years, and ``articles``, ``citation_index``,
``dangling_reference_count``, :func:`emit_corpus` and
:func:`validate_corpus` every row. On the ``seeded`` benchmark corpus the
``classify`` read codes 40,235 of the 1,040,731 references and the
``indicators`` read (impact years 2002-2004) 638,478. ``classify`` peaks
at 44 MB in the parent (set by the assignment text) and 30 MB per worker,
against 48 MB and 38 MB for a full read; on ``open`` at 48 MB (set by the
vote) and 36-38 MB, against 49 MB and 38-39 MB (``VmHWM``, 2 CPUs, Python
3.11.7, numpy 2.4.6). ``indicators`` peaks at 45.6-46.5 MB on the
benchmark workloads, set by ``count_cube``, against 49.4-50.0 MB with the
full read and the older cube (``ru_maxrss`` of the child).

One reader opens and decodes every input file of the CLI, the taxonomy,
the assignments and the report tables included: :func:`_read_file`, with
:func:`_read_corpus_file` for the corpus. Given a hash object, it feeds
every byte of the file into it in the same pass, below the text layer,
so a manifest digest is of the bytes that were parsed, a pipe's included;
a read that writes no manifest passes none and hashes nothing.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import stat
import threading
import warnings
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParseError, RefclassError, UnknownNameError, ValidationError

DOC_TYPES = ("article", "review", "other")

#: The one year range of every stage: corpus years, synthetic years and
#: indicator years all lie within it, ends included.
YEAR_BOUNDS = (1900, 2100)

_DOC_CODE = {t: i for i, t in enumerate(DOC_TYPES)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _items(values, name: str, what: str, error: type[RefclassError]) -> Iterator:
    """An iterator over ``values``; a string (not read as its letters) or a
    non-iterable raises ``error`` naming the argument ``name``."""
    if not isinstance(values, str):
        try:
            return iter(values)
        except TypeError:
            pass
    raise error(f"{name} must be a collection of {what}, not {type(values).__name__}")


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


def _check_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, not {type(value).__name__}")


def _check_token(value: str, what: str, forbidden: str) -> None:
    _check_str(value, what)
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
    """One bibliographic item with its outgoing reference list.

    ``year`` is a Python or numpy integer; ``references`` is any collection
    of ids but a string.
    """

    id: str
    journal_id: str
    year: int
    doc_type: str
    references: tuple[str, ...] = ()

    def __post_init__(self):
        refs = _items(self.references, "references", "reference ids", ValidationError)
        object.__setattr__(self, "references", tuple(refs))
        _check_token(self.id, "article id", "\t\n\r,")
        if self.id[0] == "#":
            raise ValidationError("article id has a leading '#'", token=self.id)
        _check_token(self.journal_id, "journal id", "\t\n\r,")
        if not (_is_int(self.year) or isinstance(self.year, np.integer)):
            raise ValidationError(
                f"article {self.id!r} year must be an integer, not {type(self.year).__name__}"
            )
        if self.doc_type not in DOC_TYPES:
            raise ValidationError("unknown doc_type", token=self.doc_type)
        for ref in self.references:
            _check_token(ref, "reference id", "\t\n\r,")


@dataclass(frozen=True)
class JournalRecord:
    """One journal with its subject-category list (order preserved); the
    list is any collection of names but a string."""

    id: str
    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        cats = _items(self.categories, "categories", "category names", ValidationError)
        object.__setattr__(self, "categories", tuple(cats))
        _check_token(self.id, "journal id", "\t\n\r,")
        if self.id[0] == "#":
            raise ValidationError("journal id has a leading '#'", token=self.id)
        _check_str(self.name, "journal name")
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
    # an empty, comma-holding or "#"-led id, or a "\n" or "\r" in the line,
    # to find.
    if (
        not art_id
        or art_id[0] == "#"
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
            if art_id[0] == "#":
                raise ValidationError("article id has a leading '#'")
            _check_token(journal_id, "journal id", "\t\n\r,")
            for ref in refs.split(",") if refs else ():
                _check_token(ref, "reference id", "\t\n\r,")
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, art_id) from None
    return art_id, journal_id, year, doc_type, refs


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _IdView(Mapping):
    """Read-only id -> value view of the sorted ``ids``: a lookup bisects
    them, so no dict of the ids is held, and builds the value of the id's
    row ``r`` on access, ``value(r)``, or ``r`` itself without ``value``. A
    key that is not one of the ids, one that is not a ``str`` included, is a
    :class:`KeyError`."""

    def __init__(self, ids: tuple[str, ...], value: Callable[[int], object] | None = None):
        self.ids = ids
        self._value = value

    def _row(self, key) -> int:
        """The row of ``key``; -1 when it is not one of the ids."""
        ids = self.ids
        row = bisect_left(ids, key) if isinstance(key, str) else len(ids)
        return row if row < len(ids) and ids[row] == key else -1

    def __getitem__(self, key):
        row = self._row(key)
        if row < 0:
            raise KeyError(key)
        return row if self._value is None else self._value(row)

    def __contains__(self, key) -> bool:
        return self._row(key) >= 0

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class Corpus:
    """Immutable article rows, journal table and CSR reference arrays.

    Row ``r`` is the article ``ids[r]`` (ids sorted); ``row_of`` inverts
    ``ids`` by bisecting them, so each id is held once. Per row:
    ``journal_codes`` index ``journal_ids`` (sorted), ``years`` (``int16``,
    as every year lies in :data:`YEAR_BOUNDS`) and ``doc_types`` (codes into
    :data:`DOC_TYPES`). The references of row ``r`` are
    ``refs[indptr[r]:indptr[r + 1]]`` in first-occurrence order without
    duplicates; a code ``c < len(ids)`` is a row, a larger code names
    ``dangling_ids[c - len(ids)]``. Arrays are read-only.

    ``citation_index`` maps each in-corpus cited article id to the tuple of
    ``(citing_article_id, citing_year)`` pairs, sorted by citing id. It is
    exactly the inverse of the union of (deduplicated) reference lists
    restricted to ids present in the corpus. Instances are immutable after
    construction; concurrent reads need no locking.

    A lean read (see :func:`_read_corpus_file`) leaves the references of
    some rows uncoded; ``_coverage`` then records which rows hold theirs.
    What reads the references of a row the read left uncoded refuses the
    corpus (:meth:`_require_coded`).
    """

    #: ``None`` when every row holds its references; after a lean read that
    #: left any row uncoded, one read-only bool per row (``True``: coded)
    #: and the phrase that names the other rows.
    _coverage: tuple[np.ndarray, str] | None = None

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
        self.row_of: Mapping[str, int] = _IdView(ids)
        self._journals: Mapping[str, JournalRecord] = MappingProxyType(journals)
        self.journal_ids = tuple(journals)
        self.journal_codes = _frozen(journal_codes)
        self.years = _frozen(years)
        self.doc_types = _frozen(doc_types)
        self.indptr = _frozen(indptr)
        self.refs = _frozen(refs)
        self.dangling_ids = dangling_ids
        self._dangling = int(np.count_nonzero(refs >= len(ids)))

    def _require_coded(self, rows: np.ndarray | None = None) -> None:
        """Raise :class:`TypeError` when a lean read left any of ``rows``
        (row indices or a row mask; every row by default) uncoded. Only the
        CLI's ``classify`` and ``indicators`` read lean, so a caller that
        gets here holds a private object, not a faulty input."""
        if self._coverage is None:
            return
        coded, uncoded = self._coverage
        if rows is None or not coded[rows].all():
            raise TypeError(f"a lean corpus read lacks the references of its {uncoded}")

    @property
    def articles(self) -> Mapping[str, ArticleRecord]:
        self._require_coded()
        return _IdView(self.ids, self._record)

    @property
    def journals(self) -> Mapping[str, JournalRecord]:
        return self._journals

    @cached_property
    def citation_index(self) -> Mapping[str, tuple[tuple[str, int], ...]]:
        self._require_coded()
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
            {
                ids[c]: tuple(pairs[bounds[c] : bounds[c + 1]])
                for c in np.flatnonzero(np.diff(bounds)).tolist()
            }
        )

    @cached_property
    def _names(self) -> np.ndarray:
        """Row ids then dangling ids, so a reference code indexes its id.

        Built on first use: only :meth:`_record` and :func:`emit_corpus`
        read it, and ``classify`` and ``indicators`` call neither.
        """
        return _frozen(np.array(self.ids + self.dangling_ids, dtype=object))

    @property
    def dangling_reference_count(self) -> int:
        self._require_coded()
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
            return self.articles[article_id]
        except KeyError:
            raise UnknownNameError(f"unknown article: {article_id!r}") from None

    def journal(self, journal_id: str) -> JournalRecord:
        try:
            return self._journals[journal_id]
        except (KeyError, TypeError):
            raise UnknownNameError(f"unknown journal: {journal_id!r}") from None


#: References whose (row, code) keys the builder sorts per block: whole
#: rows of about this many.
_KEY_BLOCK = 1 << 16


def _row_blocks(indptr: np.ndarray, size: int) -> list[tuple[int, int]]:
    """The bounds ``(lo, hi)`` of consecutive blocks of whole rows of the
    CSR ``indptr`` that hold every reference, computed at once: a block
    starts at the first row whose references start at or past a multiple
    of ``size``, so it holds at most ``size`` references besides those of
    its last row."""
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], size)).tolist()
    bounds = list(dict.fromkeys([*starts, len(indptr) - 1]))
    return list(zip(bounds, bounds[1:]))


def _pair_key(src: np.ndarray, dst: np.ndarray, width: int) -> np.ndarray:
    key = src.astype(np.int64)
    key *= width
    key += dst
    return key


class _Columns(NamedTuple):
    """A corpus under construction: its articles in record order, as columns.

    Article ``i`` is ``ids[i]``, in the journal
    ``journal_names[journal_of[i]]``, with ``counts[i]`` references; the
    reference codes travel beside the columns (see :func:`_assemble`). A
    code past the last article names ``dangling[code - len(ids)]``. A read
    worker pipes these columns back as they are.
    """

    ids: Sequence[str]
    journal_names: Sequence[str]
    journal_of: Sequence[int]
    years: Sequence[int]
    doc_types: Sequence[int]
    counts: Sequence[int]
    dangling: Sequence[str]
    journals: Sequence[JournalRecord]


def _by_citer(citer: np.ndarray, target: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(citer, target)`` pairs of record indices in draw order, grouped for
    :func:`_assemble`: the reference count of each of the ``n`` rows, and
    ``target`` grouped by citing row, in draw order within each row."""
    citer = citer.astype(np.int32, copy=False)
    if len(citer) > 1 and not (citer[1:] >= citer[:-1]).all():
        target = target[np.argsort(citer, kind="stable")]
    return np.bincount(citer, minlength=n), target


def _id_order(ids: Sequence[str]) -> list[int] | None:
    """The record indices of ``ids`` in id order; ``None`` when the ids
    ascend strictly, so that record ``i`` is row ``i`` already."""
    if all(map(str.__lt__, ids, islice(ids, 1, None))):
        return None
    return sorted(range(len(ids)), key=ids.__getitem__)


def _assemble(columns: _Columns, target: np.ndarray, order: Sequence[int] | None) -> Corpus:
    """The one corpus constructor: sort rows by id, code, dedupe, build CSR.

    The ``columns`` hold the articles in record order, already checked
    record by record (see :func:`_coded`). Their references come grouped by
    article: ``target`` holds the ``counts[0]`` references of the first
    article, then those of the second, and so on, each in draw order
    (:func:`_by_citer` groups pairs). A target ``>= len(ids)`` names
    ``dangling[target - len(ids)]``. ``order`` is the ids'
    :func:`_id_order`, which the caller computes once; ``None`` means they
    already ascend strictly. Raises :class:`ValidationError` for
    unresolvable journal ids (all offenders listed), then when the rows and
    dangling ids together reach ``2**31`` codes.

    Row and reference codes are ``int32``; only the dedupe key
    ``src * width + dst`` is ``int64``, built for one block of whole rows
    (about :data:`_KEY_BLOCK` references) at a time, as a repeat lies within
    one row. Sorting a block's key in place and comparing neighbours shows
    whether any pair in it repeats. Only then does a stable argsort of the
    block's key put every repeat right after its first occurrence, so a
    neighbour compare drops the repeats and keeps draw order. The id sort is
    skipped when the ids arrive strictly ascending and the argsort when no
    pair repeats; every file :func:`emit_corpus` writes skips both.
    """
    ids, journal_names, journal_of, years, doc_types, counts, dangling, journals = columns
    journal_table = dict(sorted((j.id, j) for j in journals))
    journal_code = {j_id: c for c, j_id in enumerate(journal_table)}
    unresolved = sorted(set(journal_names) - journal_code.keys())
    if unresolved:
        raise ValidationError("articles reference unknown journals: " + ", ".join(unresolved))
    n, width = len(ids), len(ids) + len(dangling)
    if width >= 2**31:
        raise ValidationError(f"{width} article and dangling ids reach the 2**31 code limit")

    codes = np.array([journal_code[j] for j in journal_names], dtype=np.int32)
    codes = codes[np.asarray(journal_of, dtype=np.intp)]
    years = np.asarray(years, dtype=np.int16)
    doc_types = np.asarray(doc_types, dtype=np.int8)
    counts = np.asarray(counts, dtype=np.int64)
    dst = target.astype(np.int32, copy=False)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if order is not None:
        order = np.array(order, dtype=np.intp)
        rank = np.arange(width, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        # Each row's references move with the row, in one gather.
        starts, counts = indptr[order], counts[order]
        np.cumsum(counts, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], counts)
        at += np.arange(len(at))
        dst = rank[dst[at]]
        ids = [ids[i] for i in order.tolist()]
        codes, years, doc_types = codes[order], years[order], doc_types[order]

    # Keep the first occurrence of every (row, code) pair, one block of whole
    # rows at a time. A block's sorted key shows whether any pair in it
    # repeats; if one does, a stable sort leaves each repeat right behind an
    # equal key.
    keep = None
    for lo, hi in _row_blocks(indptr, _KEY_BLOCK):
        refs = slice(indptr[lo], indptr[hi])
        src = np.repeat(np.arange(lo, hi, dtype=np.int32), counts[lo:hi])
        key = _pair_key(src, dst[refs], width)
        key.sort()
        if (key[1:] == key[:-1]).any():
            key = _pair_key(src, dst[refs], width)
            perm = np.argsort(key, kind="stable")
            key = key[perm]
            repeats = perm[1:][key[1:] == key[:-1]]
            if keep is None:
                keep, counts = np.ones(len(dst), dtype=bool), counts.copy()
            keep[refs.start + repeats] = False
            counts[lo:hi] -= np.bincount(src[repeats] - lo, minlength=hi - lo)
    if keep is not None:
        dst = dst[keep]
        np.cumsum(counts, out=indptr[1:])

    return Corpus(tuple(ids), journal_table, codes, years, doc_types, indptr, dst, tuple(dangling))


class _Codes(dict):
    """Article id -> code, set row by row; then an unknown id gets the next
    code and joins ``dangling``."""

    def __init__(self):
        super().__init__()
        self.dangling: list[str] = []

    def __missing__(self, ref: str) -> int:
        code = self[ref] = len(self)
        self.dangling.append(ref)
        return code


class _Coding(NamedTuple):
    """Which rows a read codes the references of: those whose journal is not
    in ``skip`` and whose year lies in ``years`` (ends included). The
    default, every row, is the full read."""

    skip: frozenset[str] = frozenset()
    years: tuple[int, int] = YEAR_BOUNDS

    def coverage(self, corpus: Corpus) -> tuple[np.ndarray, str] | None:
        """The ``_coverage`` of ``corpus`` read under this coding: ``None``
        when every row is coded."""
        lo, hi = self.years
        skipped = np.array([j in self.skip for j in corpus.journal_ids], dtype=bool)
        skipped = skipped[corpus.journal_codes]
        undated = (corpus.years < lo) | (corpus.years > hi)
        uncoded = []
        if skipped.any():
            uncoded.append("seeding rows")
        if undated.any():
            uncoded.append(f"rows published outside {lo}-{hi}")
        if not uncoded:
            return None
        return _frozen(~(skipped | undated)), " and its ".join(uncoded)


def _coded(items: Iterable, coding: _Coding = _Coding()) -> tuple[_Columns, np.ndarray]:
    """``items`` (journal records, and article fields as
    :func:`_article_fields` returns them) checked in order and coded as a
    corpus of their own.

    Raises at the first record that breaks a rule: a repeated journal id;
    per article, in this order, a repeated id, a year outside
    :data:`YEAR_BOUNDS` and a self-citation. Returns the columns and the
    code of every reference in draw order. References are coded against the
    articles' own ids; an id outside them gets the next code past them in
    its order of first appearance. Each article's references stay one
    comma-joined string until they are coded, so no per-reference object
    outlives the line that produced it. An article that ``coding`` does
    not code is checked like any other, by every rule in the same order,
    but gets no references: its field is neither split nor looked up.
    """
    lo, hi = YEAR_BOUNDS
    skip, (first, last) = coding
    ids, journal_of, years, doc_types, counts, refs_of, journals = [], [], [], [], [], [], []
    journal_names: dict[str, int] = {}  # in order of first appearance
    codes, seen_journals = _Codes(), set()
    journal_code = journal_names.setdefault
    shared_year = {}.setdefault  # one object per distinct year, not one per row
    for item in items:
        if isinstance(item, JournalRecord):
            if item.id in seen_journals:
                raise ValidationError("duplicate journal id", token=item.id)
            seen_journals.add(item.id)
            journals.append(item)
            continue
        art_id, journal_id, year, doc_type, refs = item
        if art_id in codes:
            raise ValidationError("duplicate article id", token=art_id)
        codes[art_id] = len(ids)
        if not lo <= year <= hi:
            raise ValidationError(f"article {art_id!r} year {year} outside bounds [{lo}, {hi}]")
        if art_id in refs and art_id in refs.split(","):
            raise ValidationError(f"article {art_id!r} cites itself")
        ids.append(art_id)
        journal_of.append(journal_code(journal_id, len(journal_names)))
        years.append(shared_year(year, year))
        doc_types.append(_DOC_CODE[doc_type])
        if journal_id in skip or not first <= year <= last:
            counts.append(0)
            continue
        counts.append(refs.count(",") + 1 if refs else 0)
        refs_of.append(refs)
    tokens = chain.from_iterable(refs.split(",") for refs in refs_of if refs)
    target = np.fromiter(map(codes.__getitem__, tokens), np.int32, count=sum(counts))
    del refs_of, tokens  # fromiter stops at its count: ``tokens`` still holds the strings
    columns = _Columns(
        ids,
        list(journal_names),
        np.array(journal_of, dtype=np.int32),
        np.array(years, dtype=np.int16),
        np.array(doc_types, dtype=np.int8),
        np.array(counts, dtype=np.int64),
        codes.dangling,
        journals,
    )
    return columns, target


def _record_rows(records: Iterable[ArticleRecord | JournalRecord]):
    for rec in records:
        if isinstance(rec, ArticleRecord):
            yield rec.id, rec.journal_id, rec.year, rec.doc_type, ",".join(rec.references)
        elif isinstance(rec, JournalRecord):
            yield rec
        else:
            raise ValidationError(f"unsupported record type: {type(rec).__name__}")


def _line_rows(source: Iterable[str]):
    for line_no, raw in enumerate(source, start=1):
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


def _built(items: Iterable, coding: _Coding = _Coding()) -> Corpus:
    """The corpus of ``items``, checked and coded by :func:`_coded`."""
    columns, target = _coded(items, coding)
    return _assemble(columns, target, _id_order(columns.ids))


def build_corpus(records: Iterable[ArticleRecord | JournalRecord]) -> Corpus:
    """Assemble a validated :class:`Corpus` from in-memory records.

    Journals may appear before or after the articles that reference them.
    Duplicate reference entries within one article are collapsed to a single
    occurrence (first-occurrence order). Raises :class:`ValidationError` for
    duplicate ids, self-citations, years outside :data:`YEAR_BOUNDS`, or
    unresolvable journal ids (all offenders listed).
    """
    return _built(_record_rows(records))


#: Shorter files are read in one process. Timed in-process on prefixes of
#: a synthetic corpus (2 cores), the fork lost at 5,000 lines and fewer and
#: won clearly from 8,000 lines on, about 219 bytes each. Re-timed on file
#: prefixes of the ``seeded`` benchmark corpus, it lost at 3,000 lines
#: (0.64 MB) and mostly won from 4,000 on, by 5-25% in noise of about 20%.
_FORK_BYTES = 1_750_000

#: Bytes per read of an input file (a buffer fill or an ``os.pread`` call),
#: and codes per block of the merge's remap.
_READ_BLOCK = 1 << 16


def _can_fork() -> bool:
    """Whether a read may fork and reap its own worker.

    The affinity mask alone counts CPUs, and must hold two: on one CPU two
    workers read a benchmark corpus slower than one process (0.41-0.43 s
    against 0.32-0.34 s). No other Python thread may run, and ``SIGCHLD``
    must be neither ignored nor set outside Python: with it ignored the
    kernel reaps children itself, so the worker's pid could be reused
    before a kill, and waiting for it would wait for every child.
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
        and signal.getsignal(signal.SIGCHLD) not in (signal.SIG_IGN, None)
    )


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, stop)`` of the open file ``fd``, read with ``os.pread``.

    ``os.pread`` leaves the file offset alone, which a forked worker shares
    with its parent.
    """

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


class _Hashed(io.RawIOBase):
    """The open binary file ``file`` read through, every byte read fed into
    ``digest``; closing it leaves ``file`` open."""

    def __init__(self, file: io.RawIOBase, digest):
        self._file, self._digest = file, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n


def _text(raw: io.RawIOBase) -> io.TextIOWrapper:
    """The bytes of ``raw`` decoded as ``open()`` decodes a file: UTF-8,
    universal newlines."""
    return io.TextIOWrapper(io.BufferedReader(raw, _READ_BLOCK), encoding="utf-8", newline=None)


def _hash_rest(file: io.RawIOBase, digest) -> None:
    """Feed the bytes of ``file`` from its offset on into ``digest``."""
    for block in iter(lambda: file.read(_READ_BLOCK), b""):
        digest.update(block)


def _whole(lines: Iterable[str], read):
    """``read(lines)``; a fault it raises stands only once the rest of
    ``lines`` is read, so an error of the input itself (a byte that is not
    UTF-8 anywhere in a file, say) wins over every line fault."""
    lines = iter(lines)
    try:
        return read(lines)
    except RefclassError:
        for _line in lines:
            pass
        raise


@contextlib.contextmanager
def _utf8(path):
    """Raise a decode error of the file ``path`` as one :class:`ParseError`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _decoded(file: io.RawIOBase, read, digest):
    """``read`` over the lines of the open binary ``file``, from its offset,
    decoded by :func:`_text` and streamed, faults as :func:`_whole` orders
    them. With ``digest``, every byte of the file from that offset on is fed
    into it once, those that ``read`` leaves unread included."""
    with _text(file if digest is None else _Hashed(file, digest)) as text:
        result = _whole(text, read)
        if digest is not None:
            _hash_rest(file, digest)
    return result


def _read_file(path, read, digest=None):
    """``read`` over the lines of the UTF-8 file ``path``, streamed; a byte
    that is not UTF-8 anywhere in the file wins over every fault in its
    lines, as one :class:`ParseError` naming the file. With ``digest``,
    every byte of the file is fed into it, so the file is opened once."""
    with _utf8(path), open(path, "rb", buffering=0) as file:
        return _decoded(file, read, digest)


def _second_half(fd: int, size: int) -> int:
    """The first byte after the first ``\\n`` at or past the middle of the
    file, ``size`` when there is none."""
    at = size // 2
    while at < size:
        block = os.pread(fd, _READ_BLOCK, at)
        if not block:
            break
        end = block.find(b"\n")
        if end >= 0:
            return at + end + 1
        at += len(block)
    return size


def _fork_reader(
    fd: int, start: int, stop: int, coding: _Coding
) -> tuple[int, io.BufferedReader] | None:
    """Fork a worker that reads the bytes ``[start, stop)`` of ``fd``,
    coding the references of the rows that ``coding`` codes (see
    :func:`_coded`).

    Returns its pid and the pipe its payload arrives on, or ``None`` when
    the fork fails. The payload is the pickled :class:`_Columns` of the
    range, then its ``int32`` reference codes as raw bytes. The worker
    never returns into the caller's code: whatever happens, it exits here,
    printing nothing, and a failure (a fault in its half included) leaves a
    payload that does not load. Its line numbers start at 1: a fault in its half is never
    reported from it.
    """
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
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                rows = _line_rows(_text(_ByteRange(fd, start, stop)))
                columns, target = _coded(rows, coding)
                pickle.dump(columns, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.write(target.data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _read_halves(fd: int, mid: int, size: int, coding: _Coding) -> Corpus | None:
    """The corpus of the file ``fd``, each half read by a forked worker: the
    bytes before ``mid`` and the bytes from ``mid`` on. Each codes the
    references of the rows that ``coding`` codes.

    ``mid`` starts a line, so each half decodes as the same text that it is
    of the whole file. Each worker reads, checks and codes its half with
    :func:`_coded`, as a corpus of its own, and pipes it back (see
    :func:`_fork_reader`). The parent parses no line: it loads the first
    half's columns, then the second's, and merges them (:func:`_merge`).
    Returns ``None`` when a fork fails, when a worker fails in any way, a
    fault in its half included, and when an article or journal id appears
    in both halves, a repeat that neither worker checks; both workers are
    then killed, and the one-process read finds the result or the first
    fault. Every worker is reaped before this returns.
    """
    workers: list[tuple[int, io.BufferedReader]] = []
    corpus = None
    try:
        for start, stop in ((0, mid), (mid, size)):
            worker = _fork_reader(fd, start, stop, coding)
            if worker is None:
                return None
            workers.append(worker)
        corpus = _merge([pipe for _pid, pipe in workers])
        return corpus
    finally:
        for pid, pipe in workers:
            pipe.close()
            # A SIGCHLD handler of the caller's may have reaped the worker already.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                if corpus is None:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _merge(pipes: list[io.BufferedReader]) -> Corpus | None:
    """The corpus of the two halves that ``pipes`` carry, the first half's
    rows first; ``None`` when a payload does not load, a pipe ends early or
    an article or journal id appears in both halves.

    Holds no dict of the ids. When they arrive strictly ascending, as in
    every file :func:`emit_corpus` writes, record ``i`` is row ``i``;
    otherwise they are sorted once, the sort :func:`_assemble` then reuses,
    and an id in both halves shows as two equal neighbours. Each half's
    dangling ids are looked up in the sorted ids with
    :func:`bisect.bisect_left`, the first half's first, which keeps the ids
    that stay dangling in file order. A half's codes index its rows, then
    its dangling ids; each half's are read straight into their place in one
    array and mapped there to whole-file codes, one block at a time. The
    halves, with their id and dangling lists, are dropped before the corpus
    is built.
    """
    # An empty or cut-off payload fails to load, whatever the worker's exit
    # status was.
    try:
        halves = [pickle.load(pipe) for pipe in pipes]
    except (EOFError, pickle.UnpicklingError):
        return None
    ids = [a_id for half in halves for a_id in half.ids]
    journals = [j for half in halves for j in half.journals]
    if len({j.id for j in journals}) < len(journals):
        return None
    n = len(ids)
    order = _id_order(ids)
    if order is None:
        by_id, row = ids, range(n)
    else:
        by_id, row = [ids[i] for i in order], order
        if any(map(str.__eq__, by_id, islice(by_id, 1, None))):
            return None
    first, second = halves
    # _assemble codes the names; a name both halves list is listed twice.
    journal_names = [*first.journal_names, *second.journal_names]
    journal_of = np.concatenate([first.journal_of, second.journal_of + len(first.journal_names)])
    years, doc_types, counts = (
        np.concatenate([getattr(h, column) for h in halves])
        for column in ("years", "doc_types", "counts")
    )
    dangling: dict[str, int] = {}
    refs = np.empty(int(counts.sum()), dtype=np.int32)
    start = at = 0
    for half, pipe in zip(halves, pipes):
        rows = len(half.ids)
        table = np.arange(start, start + rows + len(half.dangling), dtype=np.int32)
        table[rows:] = [
            row[r]
            if (r := bisect_left(by_id, d)) < n and by_id[r] == d
            else dangling.setdefault(d, n + len(dangling))
            for d in half.dangling
        ]
        codes = refs[at : at + int(half.counts.sum())]
        if pipe.readinto(memoryview(codes).cast("B")) != codes.nbytes:
            return None
        for lo in range(0, len(codes), _READ_BLOCK):
            block = codes[lo : lo + _READ_BLOCK]
            np.take(table, block, out=block)
        start, at = start + rows, at + len(codes)
    del halves, half, first, second, by_id
    columns = _Columns(
        ids, journal_names, journal_of, years, doc_types, counts, tuple(dangling), journals
    )
    return _assemble(columns, refs, order)


def read_corpus_file(path) -> Corpus:
    """Read and build the corpus in the file ``path``; see :func:`read_corpus`.

    Decodes the file as ``open(path, encoding="utf-8")`` does and streams
    its lines; no process holds a list of them. Raises what
    :func:`read_corpus` raises for the same lines, except that a byte that
    is not UTF-8 anywhere in the file wins over every fault, as a
    :class:`ParseError` naming the file and the decoder's reason.

    From :data:`_FORK_BYTES` bytes on, where :func:`_can_fork` allows it,
    two forked workers read the halves of the file (see
    :func:`_read_halves`). The result and every error are the same either
    way.
    """
    return _read_corpus_file(path)


def _read_corpus_file(
    path,
    digest=None,
    seeds: Callable[[JournalRecord], bool] | None = None,
    years: tuple[int, int] = YEAR_BOUNDS,
) -> Corpus:
    """:func:`read_corpus_file`, feeding every byte of the file into
    ``digest`` once when it is given: after a forked read, from the offset
    0 that the workers' ``os.pread`` leaves; otherwise as the one process
    reads the file.

    Given ``seeds`` or ``years``, the read is lean: every row is checked,
    but only the references of the rows whose year lies in ``years`` (ends
    included) and whose journal is not among the leading journals for which
    ``seeds`` holds (:func:`_leading_journals`, of a regular file only) are
    coded (see :func:`_coded`). The same :class:`_Coding` then records
    which rows were coded (``Corpus._coverage``). In a read that succeeds
    each journal id appears once, so the leading record is the corpus's;
    when journal rows do not lead the file, fewer rows go uncoded.
    """
    with _utf8(path), open(path, "rb", buffering=0) as file:
        fd = file.fileno()
        status = os.fstat(fd)
        size = status.st_size
        scan = seeds is not None and stat.S_ISREG(status.st_mode)
        skip = _leading_journals(fd, size, seeds) if scan else frozenset()
        coding = _Coding(skip, years)
        corpus = None
        if size >= _FORK_BYTES and _can_fork():
            mid = _second_half(fd, size)
            corpus = _read_halves(fd, mid, size, coding) if mid < size else None
            if corpus is not None and digest is not None:
                _hash_rest(file, digest)
        if corpus is None:
            # Nothing above moved the file offset, which is still at 0.
            corpus = _decoded(file, lambda lines: _built(_line_rows(lines), coding), digest)
    corpus._coverage = coding.coverage(corpus)
    return corpus


def _leading_journals(fd: int, size: int, keep: Callable[[JournalRecord], bool]) -> frozenset[str]:
    """The ids of the journals, among the journal rows that lead the file
    ``fd`` of ``size`` bytes, for which ``keep`` holds.

    Reads with ``os.pread``, which leaves the file offset at 0, and stops at
    the first record that is not a journal row. A fault (a malformed line,
    a byte that is not UTF-8) ends the scan silently: the read proper
    raises it.
    """
    found = set()
    with contextlib.suppress(RefclassError, UnicodeDecodeError):
        with _text(_ByteRange(fd, 0, size)) as text:
            for record in _line_rows(text):
                if not isinstance(record, JournalRecord):
                    break
                if keep(record):
                    found.add(record.id)
    return frozenset(found)


def read_corpus(source: Iterable[str]) -> Corpus:
    """Parse and build a corpus from TSV lines, skipping blanks and ``#`` lines.

    Reads in one process and streams ``source``: no list of its lines is
    held. Raises the first fault in file order, as each record is checked
    when it is read: a :class:`ParseError` with line number and token for a
    malformed line, or the :class:`ValidationError` of a rule of
    :func:`build_corpus`; unknown journals and the ``2**31`` code limit are
    checked once every line is read. A fault stands only once the rest of
    ``source`` is read, so an error that ``source`` raises while it is read
    (a decode error of an open file, say) wins over any fault in its lines.
    :func:`read_corpus_file` reads a file in up to two processes.
    """
    return _whole(source, lambda lines: _built(_line_rows(lines)))


def emit_corpus(corpus: Corpus) -> str:
    """Render the canonical corpus file: journals then articles, sorted by id."""
    corpus._require_coded()
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
    corpus._require_coded()
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
