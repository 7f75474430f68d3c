"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

import refclass.corpus as corpus_module
from refclass.corpus import ArticleRecord, Corpus, JournalRecord, build_corpus
from refclass.synthetic import SyntheticConfig
from refclass.taxonomy import Taxonomy, load_taxonomy

TOY_TAXONOMY_TEXT = """\
# toy taxonomy
Astronomy & Astrophysics\tAstronomy\t
Oncology\tMedicine\t
Geochemistry & Geophysics\tGeosciences\t
Cell Biology\tBioscience\t
Multidisciplinary Sciences\tBioscience\tmultidisciplinary
"""


@pytest.fixture
def toy_taxonomy() -> Taxonomy:
    return load_taxonomy(TOY_TAXONOMY_TEXT.splitlines(keepends=True))


@pytest.fixture
def forks(monkeypatch):
    """Read every corpus file that splits with two forked workers; yields their pids."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(corpus_module, "_FORK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(corpus_module, "_CGROUP_FILE", os.devnull)  # no CPU quota
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def journal(j_id: str, categories, name: str | None = None) -> JournalRecord:
    if isinstance(categories, str):
        categories = (categories,)
    return JournalRecord(j_id, name or f"Journal {j_id}", tuple(categories))


def article(a_id: str, j_id: str, year: int, refs=(), doc_type: str = "article") -> ArticleRecord:
    return ArticleRecord(a_id, j_id, year, doc_type, tuple(refs))


def corpus_of(*records) -> Corpus:
    return build_corpus(records)


def ten_field_config(articles_per_journal_year: int) -> SyntheticConfig:
    """The criterion-1 synthetic shape (10 fields, 52 journals) at a given size."""
    return SyntheticConfig(
        num_fields=10,
        journals_per_field=5,
        num_general_journals=2,
        articles_per_journal_year=articles_per_journal_year,
        year_range=(2000, 2004),
        mean_refs=20.0,
        p_intra=0.8,
        field_citation_rate=0.5,
        general_field_mix=[0.1] * 10,
        seed=20250810,
    )


def open_field_config(articles_per_journal_year: int) -> SyntheticConfig:
    """The mostly-open benchmark shape (10 fields x 1 journal + 40 general) at a given size."""
    return SyntheticConfig(
        num_fields=10,
        journals_per_field=1,
        num_general_journals=40,
        articles_per_journal_year=articles_per_journal_year,
        year_range=(2000, 2004),
        mean_refs=20.0,
        p_intra=0.8,
        field_citation_rate=0.5,
        general_field_mix=[0.1] * 10,
        seed=20250810,
    )


def traced(call) -> tuple[object, int, int]:
    """``call()``'s result, and the bytes it leaves live and allocates at its
    peak, over what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        live, peak = tracemalloc.get_traced_memory()
        return result, live - start, peak - start
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak, over what was live before it."""
    return traced(call)[2]


def random_corpus(rng: np.random.Generator, max_articles: int = 500) -> tuple[Corpus, Taxonomy]:
    """A randomized small corpus with the messy shapes real data has.

    Mixes single-category, multi-category, and multidisciplinary journals;
    articles with dangling references, no references, and every doc type.
    """
    taxonomy = load_taxonomy(TOY_TAXONOMY_TEXT.splitlines(keepends=True))
    cats = sorted(taxonomy.assignment_targets)
    n_journals = int(rng.integers(3, 9))
    journals = []
    for j in range(n_journals):
        kind = rng.random()
        if kind < 0.5:
            j_cats = [cats[int(rng.integers(len(cats)))]]
        elif kind < 0.75:
            picks = rng.choice(len(cats), size=2, replace=False)
            j_cats = [cats[int(p)] for p in sorted(picks)]
        else:
            j_cats = ["Multidisciplinary Sciences"]
        journals.append(journal(f"J{j:02d}", j_cats))
    n_articles = int(rng.integers(10, max_articles + 1))
    ids = [f"P{i:04d}" for i in range(n_articles)]
    articles = []
    doc_types = ("article", "review", "other")
    for i, a_id in enumerate(ids):
        n_refs = int(rng.integers(0, 7))
        refs = []
        for _ in range(n_refs):
            if rng.random() < 0.08:
                refs.append(f"X{int(rng.integers(1000)):04d}")  # dangling
            else:
                tgt = ids[int(rng.integers(n_articles))]
                if tgt != a_id:
                    refs.append(tgt)
        articles.append(
            article(
                a_id,
                f"J{int(rng.integers(n_journals)):02d}",
                2000 + int(rng.integers(0, 10)),
                tuple(dict.fromkeys(refs)),
                doc_types[int(rng.integers(3))],
            )
        )
    return build_corpus(journals + articles), taxonomy
