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
field ascending, citation counts and citer indices. The row layout is
array arithmetic that draws nothing, so this order is the one every
pinned digest in the tests was recorded with, under numpy 2.4.6. Within
one numpy release, output is a pure function of (config, seed) on every
platform; generation is always single-threaded. NEP 19 fixes the
``PCG64`` bit stream across releases but not the streams of ``Generator``
methods such as ``poisson``, so another numpy release may draw other
values from the same seed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, JournalRecord, _assemble, _by_citer, _Columns, _is_int, _year_pair
from .errors import ConfigError
from .taxonomy import BROAD_AREAS, MULTIDISCIPLINARY_FLAG, SubjectCategory, Taxonomy

GENERAL_CATEGORY = "multidisciplinary"


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    field_citation_rate: float | Sequence[float]
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
        # Article rows stay below the 2**31 corpus code limit, and so do the
        # draws of one year; NaN fails the comparisons too.
        journals = f * self.journals_per_field + self.num_general_journals
        per_year = self.articles_per_journal_year * journals
        articles = per_year * len(self.years)
        if articles >= 2**31:
            raise ConfigError(f"articles_per_journal_year makes {articles} articles, not below 2**31")
        if not (_is_real(self.mean_refs) and 0 < self.mean_refs * per_year < 2**31):
            raise ConfigError(f"mean_refs must be positive and below 2**31 / {per_year} articles")
        if not (_is_real(self.p_intra) and 0.0 <= self.p_intra <= 1.0):
            raise ConfigError("p_intra must be a number in [0, 1]")
        rate = self.field_citation_rate
        if isinstance(rate, Mapping):
            raise ConfigError("field_citation_rate must be a number or a list, not a mapping")
        rates = tuple(rate) if isinstance(rate, Iterable) else (rate,) * f
        if len(rates) != f:
            raise ConfigError("field_citation_rate must cover every field")
        # Compared before the float conversion, which fails on a huge int. A
        # citing year draws per earlier article, so below rate * articles.
        if not all(_is_real(r) and 0 < r * articles < 2**31 for r in rates):
            raise ConfigError(f"field_citation_rate must be positive and below 2**31 / {articles}")
        object.__setattr__(self, "field_citation_rate", tuple(map(float, rates)))
        mix = self.general_field_mix
        mix = tuple(mix) if isinstance(mix, Iterable) else (mix,)
        if len(mix) != f:
            raise ConfigError("general_field_mix must have one entry per field")
        if not all(_is_real(m) and 0 <= m <= 1 for m in mix):
            raise ConfigError("general_field_mix entries must be numbers in [0, 1]")
        mix = tuple(map(float, mix))
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigError("general_field_mix must sum to 1")
        object.__setattr__(self, "general_field_mix", mix)
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
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
        tail = {}
        for f in set(self.field_of.values()):
            cat = self.categories[f]
            tail[f] = f"{f}\t{cat}\t{taxonomy.broad_area_of(cat)}"
        return [f"{art_id}\t{tail[self.field_of[art_id]]}" for art_id in sorted(self.field_of)]


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

    # Article layout. Every year holds the same block of rows: regular
    # articles in (field, journal-slot) order, then each general journal's
    # quota fields. ``by_field`` lists the block's rows field by field, in
    # row order, so field ``f``'s pool is ``by_field[first[f]:first[f + 1]]``
    # and a row's position in its pool is its index there minus ``first``.
    # Everything downstream works on integer rows.
    jpf, ng = config.journals_per_field, config.num_general_journals
    quota = _quota_counts(config.general_field_mix, apj)
    block_field = np.concatenate(
        [np.repeat(np.arange(nf), jpf * apj), np.tile(np.repeat(np.arange(nf), quota), ng)]
    )
    width, n_articles = len(block_field), len(block_field) * len(years)
    by_field = np.argsort(block_field, kind="stable")
    sizes = np.bincount(block_field, minlength=nf)
    first = np.concatenate(([0], np.cumsum(sizes)))
    block_pos = np.empty(width, dtype=np.int64)
    block_pos[by_field] = np.arange(width) - np.repeat(first[:-1], sizes)
    pools = [by_field[first[f] : first[f + 1]] for f in range(nf)]
    ids = [f"A{row:07d}" for row in range(n_articles)]

    # Every (citer, target) pair, batch by batch in draw order; _by_citer
    # groups them by citer and the corpus builder keeps the first of each pair.
    citers = [np.zeros(0, dtype=np.int64)]
    targets = [np.zeros(0, dtype=np.int64)]

    # Phase 1: organic references, one vectorized batch per year.
    for start in range(0, n_articles, width):
        counts = rng.poisson(config.mean_refs, size=width)
        total = int(counts.sum())
        if total == 0:
            continue
        intra = rng.random(total) < config.p_intra
        field_u = rng.random(total)
        target_u = rng.random(total)
        own_field = np.repeat(block_field, counts)
        own_pos = np.repeat(block_pos, counts)
        other = (field_u * (nf - 1)).astype(np.int64)
        np.minimum(other, nf - 2, out=other)
        other += other >= own_field
        tgt_field = np.where(intra, own_field, other)
        m = sizes[tgt_field] - intra  # intra draws exclude the article itself
        valid = m > 0
        idx = (target_u * m).astype(np.int64)
        np.minimum(idx, np.maximum(m - 1, 0), out=idx)
        idx += intra & (idx >= own_pos)
        citers.append(np.repeat(np.arange(start, start + width), counts)[valid])
        targets.append(start + by_field[(first[tgt_field] + idx)[valid]])

    # Phase 2: citations, realized as references from same-field articles of
    # the citing year to the same field's articles of every earlier year.
    for i in range(1, len(years)):
        for f in range(nf):
            cited = (pools[f] + width * np.arange(i)[:, None]).ravel()
            counts = rng.poisson(config.field_citation_rate[f], size=len(cited))
            total = int(counts.sum())
            if total:
                picks = (rng.random(total) * len(pools[f])).astype(np.int64)
                citers.append(i * width + pools[f][picks])
                targets.append(np.repeat(cited, counts))

    # Rows are already in id order, so row numbers are the record indices
    # and `_assemble` is given no id order.
    # Each journal holds ``apj`` rows of the block: the quotas apportion them.
    counts, targets = _by_citer(np.concatenate(citers), np.concatenate(targets), n_articles)
    columns = _Columns(
        ids,
        [j.id for j in journals],
        np.tile(np.repeat(np.arange(len(journals)), apj), len(years)),
        np.repeat(years, width),
        np.zeros(n_articles, dtype=np.int8),  # every item is an "article"
        counts,
        (),
        journals,
    )
    corpus = _assemble(columns, targets, None)
    truth = GroundTruth(
        field_of=dict(zip(ids, block_field.tolist() * len(years))),
        categories=tuple(field_category(f) for f in range(nf)),
    )
    return corpus, truth, taxonomy
