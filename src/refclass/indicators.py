"""Field-resolved journal impact indicators over a classified corpus.

The central quantity is an impact-factor-like measure: citations received in
year y, from citers of every doc type, to a journal's articles published in
the preceding ``window`` years, divided by the count of those articles,
scaled by a correction factor ``kappa``. Reviews and other items are not
citable. Restricting the articles to one broad area (via the assignment
table) yields per-field values; using all sources yields field baselines.
Prestige is the ratio of a journal's field value to the field baseline.

Every indicator is a slice of one :class:`CountCube`: integer article and
citation counts per (journal, broad area, year span) cell, built in a single
read-only pass over the immutable corpus and assignment table.
Integer numerators and denominators are summed first and divided exactly
once, so results are independent of evaluation order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .classifier import AssignmentTable, _require_table
from .corpus import _DOC_CODE, YEAR_BOUNDS, Corpus, JournalRecord, _is_int, _items, _year_pair
from .errors import (
    ConfigError,
    DomainError,
    EmptyScopeError,
    UndefinedValueError,
    UnknownNameError,
    ValidationError,
)
from .taxonomy import BROAD_AREAS, Taxonomy

#: Scope token: aggregate over every journal in the corpus.
ALL_SOURCES = "ALL_SOURCES"
#: Area token: no broad-area restriction.
ALL_AREAS = "ALL"

#: Largest citation window: the span of the corpus year bounds.
MAX_WINDOW = YEAR_BOUNDS[1] - YEAR_BOUNDS[0]

#: References the count cube counts per block of citing rows.
_CITE_BLOCK = 1 << 16


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class IndicatorConfig:
    """Knobs of the impact computation.

    The citable items are articles, cited by every doc type; that rule is
    fixed. ``kappa`` is a finite int or float above 5e-7, so the tables' 6
    decimals do not write it as 0. ``window`` and both year ranges are
    integers; the years lie within the corpus year bounds and the window
    spans at most those bounds, which bounds the size of every
    :class:`CountCube`.
    """

    window: int = 2
    kappa: float = 1.04
    if_year_range: tuple[int, int] = (2007, 2016)
    pub_window: tuple[int, int] = (2005, 2015)

    def __post_init__(self):
        if not _is_int(self.window) or not 1 <= self.window <= MAX_WINDOW:
            raise ConfigError(f"window must be an integer in [1, {MAX_WINDOW}]")
        # Compared exactly, so an int too large for a float fails here too.
        if not (_is_number(self.kappa) and 0 < self.kappa <= sys.float_info.max):
            raise ConfigError("kappa must be a finite positive number")
        # The tables write kappa and every value with 6 decimals.
        if f"{self.kappa:.6f}" == "0.000000":
            raise ConfigError(f"kappa={self.kappa!r} is written as 0.000000 in the tables")
        for name in ("if_year_range", "pub_window"):
            object.__setattr__(self, name, _year_pair(getattr(self, name), name))


@dataclass(frozen=True)
class IfValue:
    """One impact value cell: exact integer counts plus the scaled ratio."""

    journal_id: str
    area: str
    year: int
    numerator: int
    denominator: int
    value: float


@dataclass(frozen=True)
class MeanIfValue:
    """Mean of yearly impact values; zero-denominator years are skipped and listed."""

    journal_id: str
    area: str
    value: float
    yearly: tuple[IfValue, ...]
    skipped_years: tuple[int, ...]


@dataclass(frozen=True)
class PrestigeValue:
    """Ratio of a journal's (field) impact value to the field baseline."""

    journal_id: str
    area: str
    journal_if: float
    baseline_if: float
    value: float


@dataclass(frozen=True)
class CompositionTable:
    """Per-area article shares within a journal set and publication window."""

    journal_set: tuple[str, ...]
    pub_window: tuple[int, int]
    counts: dict[str, int]
    total: int

    @property
    def shares(self) -> dict[str, float]:
        return {area: n / self.total for area, n in self.counts.items()}

    def share(self, area: str) -> float:
        return self.counts.get(area, 0) / self.total


@dataclass(frozen=True)
class RepresentationTable:
    """Per-area over/under-representation of a journal set against all sources."""

    journal_set: tuple[str, ...]
    pub_window: tuple[int, int]
    ratios: dict[str, float]
    share_set: dict[str, float]
    share_all: dict[str, float]
    omitted_areas: tuple[str, ...]


@dataclass(frozen=True)
class RankingEntry:
    journal_id: str
    value: float | None
    field_restricted: bool
    rank: int | None


@dataclass(frozen=True)
class RankingTable:
    area: str
    entries: tuple[RankingEntry, ...]


@dataclass(frozen=True)
class SummaryRow:
    """Per-journal counts and means backing the headline summary table."""

    journal_id: str
    articles: int
    articles_classified: int
    citations: int
    mean_if: float | None


class CountCube:
    """Integer article and citation counts; every indicator is a slice of them.

    ``den[scope, area, column]`` counts articles and
    ``num[scope, area, column]`` the citations they receive from citers of
    every doc type. Column 0 holds the articles published in
    ``config.pub_window`` and their citations from every impact year. Column
    ``1 + k``, for the impact year ``y = config.if_year_range[0] + k``, holds
    the articles published in ``[y - window, y - 1]`` and their citations
    from citers published in ``y``.
    Scope slots are the requested journals in order plus one last slot for
    every other journal, so :data:`ALL_SOURCES` is the sum over the scope
    axis. Area slot 0 holds unclassified articles, so :data:`ALL_AREAS` is the
    sum over the area axis. ``journals`` maps each journal id to its record.
    Build one with :func:`count_cube`. A journal the cube was not built for,
    other than :data:`ALL_SOURCES`, raises :class:`UnknownNameError`; an area
    that is not a string raises :class:`ConfigError`, and one that no
    assignment names selects nothing.
    """

    def __init__(
        self,
        config: IndicatorConfig,
        journals: Mapping[str, JournalRecord],
        area_slots: Mapping[str, int],
        den: np.ndarray,
        num: np.ndarray,
    ):
        self.config = config
        self.den = den
        self.num = num
        self._journals = journals
        self._scope_slots = {j: i for i, j in enumerate(journals)}
        self._area_slots = area_slots

    def _slot(self, journal: str) -> int:
        try:
            return self._scope_slots[journal]
        except (KeyError, TypeError):
            raise UnknownNameError(f"journal {journal!r} was not counted in this cube") from None

    def _scope(self, journal: str) -> slice:
        if journal == ALL_SOURCES:
            return slice(None)
        i = self._slot(journal)
        return slice(i, i + 1)

    def _area(self, area: str) -> slice:
        if not isinstance(area, str):
            raise ConfigError(f"area must be a broad-area name, not {type(area).__name__}")
        if area == ALL_AREAS:
            return slice(None)
        i = self._area_slots.get(area)
        return slice(0, 0) if i is None else slice(i, i + 1)

    def impact_factor(self, journal: str, year: int, area: str = ALL_AREAS) -> IfValue:
        """Impact value of ``journal`` (or :data:`ALL_SOURCES`) in ``year``.

        Denominator: articles published in ``[year - window, year - 1]``,
        restricted to ``area`` via the assignment table unless ``area`` is
        :data:`ALL_AREAS` (unclassified articles are excluded from
        area-restricted counts but included in whole-journal counts).
        Numerator: citations from citers of exactly ``year`` to those
        articles. Raises
        :class:`ConfigError` naming ``if_year_range`` when ``year`` is not an
        integer in ``config.if_year_range``, :class:`UndefinedValueError`
        when the denominator is zero, and :class:`ConfigError` naming
        ``kappa`` when the scaled value overflows a float.
        """
        first, last = self.config.if_year_range
        if not (_is_int(year) and first <= year <= last):
            raise ConfigError(
                f"impact year {year!r} is not an integer in if_year_range {first}-{last}"
            )
        cell = (self._scope(journal), self._area(area), year - first + 1)
        denominator = int(self.den[cell].sum())
        if denominator == 0:
            raise UndefinedValueError(
                f"no qualifying articles for journal={journal} area={area} year={year}"
            )
        numerator = int(self.num[cell].sum())
        value = self.config.kappa * (numerator / denominator)
        if value > sys.float_info.max:
            raise ConfigError(f"kappa={self.config.kappa!r} overflows the impact of {journal}")
        return IfValue(journal, area, year, numerator, denominator, value)

    def mean_impact_factor(self, journal: str, area: str = ALL_AREAS) -> MeanIfValue:
        """Arithmetic mean of yearly impact values over ``config.if_year_range``.

        Years with a zero denominator are skipped and reported in
        ``skipped_years``; if every year is undefined the mean itself is
        undefined and raises :class:`UndefinedValueError`. Years are added left
        to right in ascending order, the same on every Python version; a sum
        that overflows raises :class:`ConfigError` as in :meth:`impact_factor`.
        """
        yearly: list[IfValue] = []
        skipped: list[int] = []
        lo, hi = self.config.if_year_range
        for year in range(lo, hi + 1):
            try:
                yearly.append(self.impact_factor(journal, year, area))
            except UndefinedValueError:
                skipped.append(year)
        if not yearly:
            raise UndefinedValueError(
                f"impact value undefined in every year {lo}-{hi} for journal={journal} area={area}"
            )
        total = 0.0
        for v in yearly:  # left to right: from Python 3.12 on, sum() of floats compensates
            total += v.value
        mean = total / len(yearly)
        if mean > sys.float_info.max:
            raise ConfigError(f"kappa={self.config.kappa!r} overflows the mean impact of {journal}")
        return MeanIfValue(journal, area, mean, tuple(yearly), tuple(skipped))

    def summary_row(self, journal: str) -> SummaryRow:
        """Counts for one journal (or :data:`ALL_SOURCES`): articles published in
        ``config.pub_window``, how many are classified, the citations they
        receive over ``config.if_year_range``, and the whole-journal mean
        impact value (None when undefined)."""
        cell = (self._scope(journal), slice(None), 0)
        items = self.den[cell]
        mean = self._mean_or_none(journal, ALL_AREAS)
        return SummaryRow(
            journal, int(items.sum()), int(items[:, 1:].sum()), int(self.num[cell].sum()), mean
        )

    def _area_counts(self, scopes: list[int] | slice) -> dict[str, int]:
        per_area = self.den[scopes, :, 0].sum(axis=0)
        return {
            area: int(per_area[slot])
            for area, slot in sorted(self._area_slots.items())
            if per_area[slot]
        }

    def composition(self, journal_set: Iterable[str]) -> CompositionTable:
        """Disciplinary composition of the classified articles in a journal set.

        Counts articles published in ``config.pub_window``. Shares are over
        classified articles only and sum to 1; areas with no classified
        article in scope are absent from ``counts`` (``share`` reports them
        as 0). Raises :class:`ConfigError` for a string (not read as its
        letters) or a non-iterable ``journal_set``, :class:`UnknownNameError`
        for a journal the cube did not count and :class:`EmptyScopeError`
        when nothing in scope is classified.
        """
        journal_ids = _items(journal_set, "journal_set", "journal ids", ConfigError)
        slots = {j: self._slot(j) for j in journal_ids}
        if not slots:
            raise EmptyScopeError("empty journal set")
        journals = tuple(sorted(slots))
        counts = self._area_counts(list(slots.values()))
        total = sum(counts.values())
        pub_window = self.config.pub_window
        if total == 0:
            raise EmptyScopeError(
                f"no classified articles in journals {journals} within {pub_window}"
            )
        return CompositionTable(journals, pub_window, counts, total)

    def representation(self, journal_set: Iterable[str]) -> RepresentationTable:
        """Ratio of each area's share in the set to its share over all sources.

        Shares are those of :meth:`composition`. Ratios are defined for every
        area with a positive all-sources share (0.0 when the set has no such
        articles); areas with zero all-sources share are omitted and listed in
        ``omitted_areas``.
        """
        inside = self.composition(journal_set)
        # Not zero: the all-sources counts include the set's, and composition
        # raised unless those hold a classified article.
        all_counts = self._area_counts(slice(None))
        all_total = sum(all_counts.values())
        share_all = {area: n / all_total for area, n in all_counts.items()}
        ratios = {area: inside.share(area) / share for area, share in share_all.items()}
        omitted = tuple(a for a in BROAD_AREAS if a not in share_all)
        return RepresentationTable(
            inside.journal_set, inside.pub_window, ratios, inside.shares, share_all, omitted
        )

    def ranking(self, taxonomy: Taxonomy, area: str) -> RankingTable:
        """Rank the cube's journals within one broad area by mean impact value.

        Journals carrying any multidisciplinary category are scored by their
        ``area`` mean, disciplinary journals by their :data:`ALL_AREAS` mean.
        Sorted descending, ties broken by journal id; journals with an
        undefined mean are listed last, unranked. A wrongly typed ``area``
        raises :class:`ConfigError` and a journal naming a category missing
        from ``taxonomy`` :class:`ValidationError`, before any journal is
        scored.
        """
        self._area(area)
        taxonomy.check_journals(self._journals.values())
        rows: list[tuple[str, float | None, bool]] = []
        for j_id, record in sorted(self._journals.items()):
            multi = any(taxonomy.is_multidisciplinary(c) for c in record.categories)
            rows.append((j_id, self._mean_or_none(j_id, area if multi else ALL_AREAS), multi))
        scored = sorted((row for row in rows if row[1] is not None), key=lambda r: (-r[1], r[0]))
        entries = [RankingEntry(j, v, multi, rank) for rank, (j, v, multi) in enumerate(scored, 1)]
        entries += [RankingEntry(j, None, multi, None) for j, v, multi in rows if v is None]
        return RankingTable(area, tuple(entries))

    def _mean_or_none(self, journal: str, area: str) -> float | None:
        try:
            return self.mean_impact_factor(journal, area).value
        except UndefinedValueError:
            return None


def count_cube(
    corpus: Corpus,
    assignments: AssignmentTable,
    journals: Iterable[str],
    config: IndicatorConfig,
) -> CountCube:
    """Count every article and citation the indicators can ask for, in one pass.

    The cube holds one column for the publication window ``config.pub_window``
    and one for each impact year of ``config.if_year_range`` (see
    :class:`CountCube`), and its scope axis holds only ``journals`` plus one
    slot for the rest, so its size does not depend on the corpus.
    Raises :class:`ConfigError` for a string or non-iterable ``journals`` or
    one that names :data:`ALL_SOURCES`, the scope token of every journal,
    then :class:`UnknownNameError` for a journal not in the corpus, then
    :class:`ConfigError` for a ``config`` that is not an
    :class:`IndicatorConfig` and for ``assignments`` that are not a table,
    then :class:`ValidationError` for a table over another corpus's articles.
    """
    requested = list(_items(journals, "journals", "journal ids", ConfigError))
    if ALL_SOURCES in requested:
        raise ConfigError(f"journals must not name {ALL_SOURCES}, the scope of every journal")
    journals = {record.id: record for record in map(corpus.journal, requested)}
    if not isinstance(config, IndicatorConfig):
        raise ConfigError(f"config must be an IndicatorConfig, got {type(config).__name__}")
    cite_lo, cite_hi = config.if_year_range
    width = cite_hi - cite_lo + 2

    scope_of = dict.fromkeys(corpus.journal_ids, len(journals))
    scope_of.update((j, i) for i, j in enumerate(journals))
    table = _require_table(assignments)
    if table.ids is not corpus.ids and table.ids != corpus.ids:
        raise ValidationError("assignments cover another corpus's articles")
    # Area slots: 0 for unclassified, then every area the table names, sorted.
    present = np.flatnonzero(np.bincount(table.area[table.area >= 0], minlength=len(table.areas)))
    area_slots = {table.areas[c]: slot for slot, c in enumerate(present.tolist(), start=1)}
    slot_of = np.zeros(len(table.areas) + 1, dtype=np.int64)  # code -1 reads the last
    slot_of[present] = np.arange(1, len(present) + 1)
    n_scopes, n_areas = len(journals) + 1, len(area_slots) + 1

    # One (scope, area) cell per article, and one last cell, which no query
    # reads, for other doc types and dangling ids. Years lie in YEAR_BOUNDS,
    # so int16 holds them; a dangling id reads year 0. den counts each
    # column's span of publication years.
    scope = np.array([scope_of[j] for j in corpus.journal_ids], dtype=np.int64)
    articles = np.flatnonzero(corpus.doc_types == _DOC_CODE["article"])
    n_cells, n_dangling = n_scopes * n_areas, len(corpus.dangling_ids)
    cell = np.full(len(corpus.ids) + n_dangling, n_cells, dtype=np.int64)
    cell[articles] = scope[corpus.journal_codes[articles]] * n_areas + slot_of[table.area[articles]]
    years = np.pad(corpus.years.astype(np.int16), (0, n_dangling))
    spans = [config.pub_window, *((y - config.window, y - 1) for y in range(cite_lo, cite_hi + 1))]
    den = np.zeros((n_cells, width), dtype=np.int64)
    article_cell, article_year = cell[articles], years[articles]
    for column, (first, last) in enumerate(spans):
        in_span = (article_year >= first) & (article_year <= last)
        den[:, column] = np.bincount(article_cell[in_span], minlength=n_cells)

    # Citations: in-corpus references from a citer published in an impact
    # year, counted one block of citing rows at a time, so no per-reference
    # array outlives its block. A reference counts in column 0 when the
    # cited year lies in the publication window, and in its citer's year's
    # column when it lies in that year's citation window.
    citing_ok = (years >= cite_lo) & (years <= cite_hi)
    win_lo, win_hi = config.pub_window
    indptr, n = corpus.indptr, len(corpus.ids)
    num = np.zeros((n_cells + 1) * width, dtype=np.int64)
    lo = 0
    while lo < n:
        hi = min(int(np.searchsorted(indptr, indptr[lo] + _CITE_BLOCK)), n)
        ok, counts = citing_ok[lo:hi], np.diff(indptr[lo : hi + 1])
        refs = corpus.refs[indptr[lo] : indptr[hi]][np.repeat(ok, counts)]
        key, pub = cell[refs], years[refs]
        key *= width
        num += np.bincount(key[(pub >= win_lo) & (pub <= win_hi)], minlength=num.size)
        citing = np.repeat(years[lo:hi][ok], counts[ok])
        pub -= citing  # minus the lag
        citing -= cite_lo - 1
        key += citing
        num += np.bincount(key[(pub < 0) & (pub >= -config.window)], minlength=num.size)
        lo = hi
    shape = (n_scopes, n_areas, width)
    return CountCube(config, journals, area_slots, den.reshape(shape), num[:-width].reshape(shape))


def prestige(
    journal_if: float,
    baseline_if: float,
    *,
    journal_id: str = "",
    area: str = ALL_AREAS,
) -> PrestigeValue:
    """Field-normalized standing ``journal_if / baseline_if``, scale-invariant
    in the common factor. Raises :class:`DomainError` unless ``journal_if`` is
    a finite non-negative int or float and ``baseline_if`` a finite positive one.
    """
    if not (_is_number(journal_if) and 0 <= journal_if <= sys.float_info.max):
        raise DomainError(f"journal impact value must be a finite number >= 0, got {journal_if!r}")
    if not (_is_number(baseline_if) and 0 < baseline_if <= sys.float_info.max):
        raise DomainError(f"baseline impact value must be a finite number > 0, got {baseline_if!r}")
    return PrestigeValue(journal_id, area, journal_if, baseline_if, journal_if / baseline_if)

