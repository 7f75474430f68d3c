"""Field-resolved journal impact indicators over a classified corpus.

The central quantity is an impact-factor-like measure: citations received in
year y, from citers of every doc type, to a journal's articles published in
the preceding ``window`` years, divided by the count of those articles,
scaled by a correction factor ``kappa``. Reviews and other items are not
citable. Restricting the articles to one broad area (via the assignment
table) yields per-field values; using all sources yields field baselines.
Prestige is the ratio of a journal's field value to the field baseline.

Every indicator is a slice of one :class:`CountCube`: integer article and
citation counts per (journal, broad area, publication year) cell, built in a
single read-only pass over the immutable corpus and assignment table.
Integer numerators and denominators are summed first and divided exactly
once, so results are independent of evaluation order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .classifier import Assignment, AssignmentTable
from .corpus import _DOC_CODE, YEAR_BOUNDS, Corpus, JournalRecord, _is_int, _year_pair
from .errors import (
    ConfigError,
    DomainError,
    EmptyScopeError,
    UndefinedValueError,
    UnknownNameError,
)
from .taxonomy import BROAD_AREAS, Taxonomy

#: Scope token: aggregate over every journal in the corpus.
ALL_SOURCES = "ALL_SOURCES"
#: Area token: no broad-area restriction.
ALL_AREAS = "ALL"

#: Largest citation window: the span of the corpus year bounds.
MAX_WINDOW = YEAR_BOUNDS[1] - YEAR_BOUNDS[0]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _journal_ids(journals, name: str) -> Iterator:
    """An iterator over ``journals``; a string (not read as its letters) or a
    non-iterable raises :class:`ConfigError` naming the argument ``name``."""
    if not isinstance(journals, str):
        try:
            return iter(journals)
        except TypeError:
            pass
    raise ConfigError(
        f"{name} must be a collection of journal ids, not {type(journals).__name__}"
    )


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

    ``den[scope, area, pub_year]`` counts articles.
    ``num[scope, area, pub_year, citing_year]`` counts the citations those
    articles receive from citers of every doc type. Citing years are
    ``config.if_year_range``; publication years start at ``first_pub_year``
    and cover ``config.pub_window`` and every impact year's citation window.
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
        first_pub_year: int,
        den: np.ndarray,
        num: np.ndarray,
    ):
        self.config = config
        self.first_pub_year = first_pub_year
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

    def _pub(self, lo: int, hi: int) -> slice:
        return slice(lo - self.first_pub_year, hi - self.first_pub_year + 1)

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
        cell = (
            self._scope(journal),
            self._area(area),
            self._pub(year - self.config.window, year - 1),
        )
        denominator = int(self.den[cell].sum())
        if denominator == 0:
            raise UndefinedValueError(
                f"no qualifying articles for journal={journal} area={area} year={year}"
            )
        numerator = int(self.num[cell][..., year - first].sum())
        value = self.config.kappa * (numerator / denominator)
        if value > sys.float_info.max:
            raise ConfigError(f"kappa={self.config.kappa!r} overflows the impact of {journal}")
        return IfValue(journal, area, year, numerator, denominator, value)

    def mean_impact_factor(self, journal: str, area: str = ALL_AREAS) -> MeanIfValue:
        """Arithmetic mean of yearly impact values over ``config.if_year_range``.

        Years with a zero denominator are skipped and reported in
        ``skipped_years``; if every year is undefined the mean itself is
        undefined and raises :class:`UndefinedValueError`. Years are summed in
        ascending order; a sum that overflows raises :class:`ConfigError` as in
        :meth:`impact_factor`.
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
        mean = sum(v.value for v in yearly) / len(yearly)
        if mean > sys.float_info.max:
            raise ConfigError(f"kappa={self.config.kappa!r} overflows the mean impact of {journal}")
        return MeanIfValue(journal, area, mean, tuple(yearly), tuple(skipped))

    def summary_row(self, journal: str) -> SummaryRow:
        """Counts for one journal (or :data:`ALL_SOURCES`): articles published in
        ``config.pub_window``, how many are classified, the citations they
        receive over ``config.if_year_range``, and the whole-journal mean
        impact value (None when undefined)."""
        cell = (self._scope(journal), slice(None), self._pub(*self.config.pub_window))
        items = self.den[cell]
        mean = self._mean_or_none(journal, ALL_AREAS)
        return SummaryRow(
            journal, int(items.sum()), int(items[:, 1:].sum()), int(self.num[cell].sum()), mean
        )

    def _area_counts(self, scopes: list[int] | slice) -> dict[str, int]:
        pub = self._pub(*self.config.pub_window)
        per_area = self.den[scopes, :, pub].sum(axis=(0, 2))
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
        slots = {j: self._slot(j) for j in _journal_ids(journal_set, "journal_set")}
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
    assignments: Mapping[str, Assignment],
    journals: Iterable[str],
    config: IndicatorConfig,
) -> CountCube:
    """Count every article and citation the indicators can ask for, in one pass.

    The cube serves impact values for the years ``config.if_year_range`` and
    article and citation counts over the publication years
    ``config.pub_window``. Its year axes span only those years and the
    impact years' citation windows, and its scope axis only ``journals``
    plus one slot for the rest, so its size does not depend on the corpus.
    ``assignments`` is read as an :class:`AssignmentTable`, so a plain
    mapping is converted once. Assignments for ids outside the corpus are
    ignored; corpus articles without one count as unclassified. Raises
    :class:`ConfigError` for a string or non-iterable ``journals`` or one
    that names :data:`ALL_SOURCES`, the scope token of every journal, and
    :class:`UnknownNameError` for a journal that is not in the corpus.
    """
    requested = list(_journal_ids(journals, "journals"))
    if ALL_SOURCES in requested:
        raise ConfigError(f"journals must not name {ALL_SOURCES}, the scope of every journal")
    journals = {record.id: record for record in map(corpus.journal, requested)}
    cite_lo, cite_hi = config.if_year_range
    pub_lo = min(config.pub_window[0], cite_lo - config.window)
    n_pub = max(config.pub_window[1], cite_hi - 1) - pub_lo + 1
    n_cite = cite_hi - cite_lo + 1

    scope_of = dict.fromkeys(corpus.journal_ids, len(journals))
    scope_of.update((j, i) for i, j in enumerate(journals))
    # Area slots: 0 for unclassified, then every area the table names, sorted.
    table = AssignmentTable.of(assignments)
    present = np.unique(table.area[table.area >= 0])
    area_slots = {table.areas[c]: slot for slot, c in enumerate(present.tolist(), start=1)}
    slot_of = np.zeros(len(table.areas) + 1, dtype=np.int64)  # code -1 reads the last
    slot_of[present] = np.arange(1, len(present) + 1)
    n_scopes, n_areas = len(journals) + 1, len(area_slots) + 1

    # One cell (scope, area, publication year) per article, -1 for other doc
    # types and outside the years.
    area = np.zeros(len(corpus.ids), dtype=np.int64)
    rows = table.corpus_rows(corpus)
    inside = rows >= 0
    area[rows[inside]] = slot_of[table.area[inside]]
    scope = np.array([scope_of[j] for j in corpus.journal_ids], dtype=np.int64)
    pub = corpus.years - pub_lo
    counted = (corpus.doc_types == _DOC_CODE["article"]) & (pub >= 0) & (pub < n_pub)
    cell = np.where(counted, (scope[corpus.journal_codes] * n_areas + area) * n_pub + pub, -1)
    den = np.bincount(cell[counted], minlength=n_scopes * n_areas * n_pub)

    # Citations: in-corpus references to a counted article from a citer
    # published in an impact year. The references are filtered before any
    # key is built; the key adds two per-row tables, cell * n_cite and the
    # citing-year offset, in int32 unless the cube has 2**31 cells.
    citing_ok = (corpus.years >= cite_lo) & (corpus.years <= cite_hi)
    n_num = n_scopes * n_areas * n_pub * n_cite
    key_type = np.int32 if n_num < 2**31 else np.int64
    citer = corpus.citer_rows()
    hit = citing_ok[citer]
    citer, cited = citer[hit], corpus.refs[hit]
    hit = cited < len(corpus.ids)
    hit[hit] = counted[cited[hit]]
    citer, cited = citer[hit], cited[hit]
    del hit
    key = np.where(counted, cell * n_cite, 0).astype(key_type)[cited]
    key += np.where(citing_ok, corpus.years - cite_lo, 0).astype(key_type)[citer]
    del citer, cited
    num = np.bincount(key, minlength=n_num)
    den = den.reshape(n_scopes, n_areas, n_pub)
    num = num.reshape(n_scopes, n_areas, n_pub, n_cite)
    return CountCube(config, journals, area_slots, pub_lo, den, num)


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

