"""Seeded synthetic corpora with planted per-article fields.

The generated world mirrors the structure the classifier is built for:
``num_fields`` disciplines, each served by single-category journals, plus
optional general journals flagged multidisciplinary whose articles are drawn
from every field. Every article carries a planted field recorded in
:class:`GroundTruth`, which acts as the oracle for accuracy tests.

Reference model
---------------
* Organic references: each article draws a Poisson(``mean_refs``) number of
  references; each one targets, with probability ``p_intra``, a same-year
  article of its own planted field, otherwise a same-year article of a
  uniformly chosen other field. Same-year targets keep organic references out
  of every trailing citation window, so measured impact values are driven
  solely by the citation mechanism below and match ``kappa * rate``
  analytically.
* Citations: each article receives, in every subsequent corpus year, a
  Poisson-distributed number of citations with mean
  ``field_citation_rate[field]``, realized as extra references attached to
  uniformly chosen same-field articles of the citing year.

General-journal articles get their planted fields by largest-remainder
quotas of ``general_field_mix`` per (journal, year) cohort, so expected
composition equals the mix exactly.

Determinism
-----------
All randomness comes from one ``numpy.random.Generator`` seeded with PCG64
(a named, documented, portable 64-bit generator). Draws happen in a fixed
order: per year ascending, organic reference counts, then the intra/inter
split, field choices, and target indices; afterwards, per citing year and
field ascending, citation counts and citer indices. Output is a pure
function of (config, seed); generation is always single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, JournalRecord, _assemble, _is_int, _year_pair
from .errors import ConfigError
from .taxonomy import BROAD_AREAS, MULTIDISCIPLINARY_FLAG, SubjectCategory, Taxonomy

GENERAL_CATEGORY = "multidisciplinary"


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic world; validated on construction."""

    num_fields: int
    journals_per_field: int
    num_general_journals: int
    articles_per_journal_year: int
    year_range: tuple[int, int]
    mean_refs: float
    p_intra: float
    field_citation_rate: float | Sequence[float] | Mapping[int, float]
    general_field_mix: Sequence[float]
    seed: int

    def __post_init__(self):
        f = self.num_fields
        if not _is_int(f) or f < 2:
            raise ConfigError("num_fields must be an integer >= 2")
        if f > len(BROAD_AREAS):
            raise ConfigError(
                f"num_fields must be <= {len(BROAD_AREAS)} so each field maps to a distinct broad area"
            )
        for name, low in (
            ("journals_per_field", 1),
            ("num_general_journals", 0),
            ("articles_per_journal_year", 1),
        ):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}")
        object.__setattr__(self, "year_range", _year_pair(self.year_range, "year_range"))
        # numpy's Poisson sampler rejects means a little below 2**63; NaN fails too.
        if not 0 < self.mean_refs <= 2.0**62:
            raise ConfigError("mean_refs must be positive and at most 2**62")
        if not 0.0 <= self.p_intra <= 1.0:
            raise ConfigError("p_intra must be in [0, 1]")
        rate = self.field_citation_rate
        if isinstance(rate, Mapping):
            missing = [i for i in range(f) if i not in rate]
            if missing:
                raise ConfigError(f"field_citation_rate missing fields: {missing}")
            rates = tuple(float(rate[i]) for i in range(f))
        elif isinstance(rate, (int, float)):
            rates = (float(rate),) * f
        else:
            rates = tuple(float(r) for r in rate)
        if len(rates) != f:
            raise ConfigError("field_citation_rate must cover every field")
        if not all(0 < r <= 2.0**62 for r in rates):
            raise ConfigError("field_citation_rate entries must be positive and at most 2**62")
        object.__setattr__(self, "field_citation_rate", rates)
        mix = tuple(float(m) for m in self.general_field_mix)
        if len(mix) != f:
            raise ConfigError("general_field_mix must have one entry per field")
        if not all(0 <= m <= 1 for m in mix):
            raise ConfigError("general_field_mix entries must be in [0, 1]")
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigError("general_field_mix must sum to 1")
        object.__setattr__(self, "general_field_mix", mix)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit non-negative integer")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(self.year_range[0], self.year_range[1] + 1))


@dataclass(frozen=True)
class GroundTruth:
    """Planted field per generated article, plus the field -> category map."""

    field_of: dict[str, int]
    categories: tuple[str, ...]

    def category_of(self, article_id: str) -> str:
        return self.categories[self.field_of[article_id]]

    def as_lines(self, taxonomy: Taxonomy) -> list[str]:
        lines = []
        for art_id in sorted(self.field_of):
            f = self.field_of[art_id]
            cat = self.categories[f]
            lines.append(f"{art_id}\t{f}\t{cat}\t{taxonomy.broad_area_of(cat)}")
        return lines


def field_category(field: int) -> str:
    """Category name planted for a synthetic field index."""
    return f"field-{field:02d}"


def _quota_counts(mix: Sequence[float], n: int) -> list[int]:
    # Largest-remainder apportionment of n slots; ties go to lower indices.
    exact = [m * n for m in mix]
    base = [int(e) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(mix)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def generate_synthetic(config: SyntheticConfig) -> tuple[Corpus, GroundTruth, Taxonomy]:
    """Generate a deterministic (corpus, ground truth, taxonomy) triple.

    The returned taxonomy has one non-multidisciplinary category per field,
    each on a distinct broad area, plus a ``multidisciplinary`` catch-all
    category when general journals are configured. Generated corpora contain
    no dangling references and no reviews (every item has doc_type
    ``article``).
    """
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    nf = config.num_fields
    years = config.years
    apj = config.articles_per_journal_year

    cats = [SubjectCategory(field_category(f), BROAD_AREAS[f]) for f in range(nf)]
    if config.num_general_journals > 0:
        cats.append(SubjectCategory(GENERAL_CATEGORY, BROAD_AREAS[0], True))
    taxonomy = Taxonomy(cats)

    journals: list[JournalRecord] = []
    for f in range(nf):
        for s in range(config.journals_per_field):
            journals.append(
                JournalRecord(f"JF{f:02d}S{s:02d}", f"Field {f:02d} Journal {s:02d}", (field_category(f),))
            )
    for g in range(config.num_general_journals):
        journals.append(JournalRecord(f"JG{g:02d}", f"General Journal {g:02d}", (GENERAL_CATEGORY,)))

    # Article layout. Rows are assigned year by year: regular articles in
    # (field, journal-slot) order, then general-journal articles with quota
    # fields. Everything downstream works on integer rows.
    ids: list[str] = []
    row_field: list[int] = []
    row_journal: list[str] = []
    row_year: list[int] = []
    row_pos: list[int] = []  # position inside the (year, field) pool
    pools: dict[int, list[list[int]]] = {}  # year -> field -> rows
    year_rows: dict[int, tuple[int, int]] = {}  # year -> [start, end) rows
    general_quota = _quota_counts(config.general_field_mix, apj)

    def add_article(year: int, field: int, journal_id: str) -> None:
        row = len(ids)
        ids.append(f"A{row:07d}")
        row_field.append(field)
        row_journal.append(journal_id)
        row_year.append(year)
        pool = pools[year][field]
        row_pos.append(len(pool))
        pool.append(row)

    for year in years:
        start = len(ids)
        pools[year] = [[] for _ in range(nf)]
        for f in range(nf):
            for s in range(config.journals_per_field):
                for _ in range(apj):
                    add_article(year, f, f"JF{f:02d}S{s:02d}")
        for g in range(config.num_general_journals):
            for f in range(nf):
                for _ in range(general_quota[f]):
                    add_article(year, f, f"JG{g:02d}")
        year_rows[year] = (start, len(ids))

    n_articles = len(ids)
    fields_arr = np.array(row_field, dtype=np.int64)
    pos_arr = np.array(row_pos, dtype=np.int64)
    pool_arrays = {
        y: [np.array(p, dtype=np.int64) for p in by_field] for y, by_field in pools.items()
    }

    # Every (citer, target) pair, batch by batch in draw order; the corpus
    # builder groups them by citer and keeps the first of each pair.
    citers = [np.zeros(0, dtype=np.int64)]
    targets = [np.zeros(0, dtype=np.int64)]

    # Phase 1: organic references, one vectorized batch per year.
    for year in years:
        start, end = year_rows[year]
        n_y = end - start
        counts = rng.poisson(config.mean_refs, size=n_y)
        total = int(counts.sum())
        if total == 0:
            continue
        intra = rng.random(total) < config.p_intra
        field_u = rng.random(total)
        target_u = rng.random(total)
        own_field = np.repeat(fields_arr[start:end], counts)
        own_pos = np.repeat(pos_arr[start:end], counts)
        other = (field_u * (nf - 1)).astype(np.int64)
        np.minimum(other, nf - 2, out=other)
        other += other >= own_field
        tgt_field = np.where(intra, own_field, other)
        sizes = np.array([len(pool_arrays[year][f]) for f in range(nf)], dtype=np.int64)
        m = sizes[tgt_field] - intra  # intra draws exclude the article itself
        valid = m > 0
        idx = (target_u * m).astype(np.int64)
        np.minimum(idx, np.maximum(m - 1, 0), out=idx)
        idx += intra & (idx >= own_pos)
        target_row = np.zeros(total, dtype=np.int64)
        for f in range(nf):
            sel = valid & (tgt_field == f)
            if sel.any():
                target_row[sel] = pool_arrays[year][f][idx[sel]]
        citers.append(np.repeat(np.arange(start, end), counts)[valid])
        targets.append(target_row[valid])

    # Phase 2: citations, realized as references from same-field articles of
    # the citing year to articles of earlier years.
    prior: list[list[np.ndarray]] = [[] for _ in range(nf)]
    for year in years:
        for f in range(nf):
            if prior[f] and config.field_citation_rate[f] > 0:
                cited = np.concatenate(prior[f])
                counts = rng.poisson(config.field_citation_rate[f], size=len(cited))
                total = int(counts.sum())
                if total:
                    citer_pool = pool_arrays[year][f]
                    picks = (rng.random(total) * len(citer_pool)).astype(np.int64)
                    citers.append(citer_pool[picks])
                    targets.append(np.repeat(cited, counts))
        for f in range(nf):
            prior[f].append(pool_arrays[year][f])

    # Rows are already in id order, so row numbers are the record indices.
    corpus = _assemble(
        ids,
        row_journal,
        row_year,
        [0] * n_articles,  # every item is an "article"
        np.concatenate(citers),
        np.concatenate(targets),
        (),
        journals,
        [0] * len(journals),
    )
    truth = GroundTruth(
        field_of={ids[row]: row_field[row] for row in range(n_articles)},
        categories=tuple(field_category(f) for f in range(nf)),
    )
    return corpus, truth, taxonomy
