"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import os
import signal
import sys
import tracemalloc

import numpy as np
import pytest

import refclass.corpus as corpus_module
from refclass.classifier import AssignmentTable, _seeding, classify, emit_assignments
from refclass.corpus import (
    ArticleRecord,
    Corpus,
    JournalRecord,
    _read_corpus_file,
    build_corpus,
    read_corpus_file,
)
from refclass.errors import RefclassError
from refclass.indicators import IndicatorConfig, count_cube
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


#: Seconds any one test may run, far above the slowest (about 8 s on 2
#: CPUs), so that a hang fails its test instead of holding up the run.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past :data:`TEST_TIME_LIMIT_S`; no limit where
    ``signal.alarm`` is missing (Windows)."""
    if not hasattr(signal, "alarm"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"ran past its {TEST_TIME_LIMIT_S} s time limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


#: The log that the audit hook of :func:`opened` appends to, while a test runs.
_open_log: list[str] | None = None
_hooked = False


def _log_open(event: str, args: tuple) -> None:
    if event == "open" and _open_log is not None and not isinstance(args[0], int):
        _open_log.append(os.fsdecode(args[0]))


@pytest.fixture
def opened():
    """Every path the test opens, in order, as ``str``. An audit hook logs
    them, so ``os.open``, ``io.FileIO`` and ``builtins.open`` all count; an
    open of a file descriptor does not. Audit hooks cannot be removed, so
    the hook stays installed, idle, after the first test that asks for it."""
    global _open_log, _hooked
    if not _hooked:
        sys.addaudithook(_log_open)
        _hooked = True
    _open_log = []
    yield _open_log
    _open_log = None


def journal(j_id: str, categories, name: str | None = None) -> JournalRecord:
    if isinstance(categories, str):
        categories = (categories,)
    return JournalRecord(j_id, name or f"Journal {j_id}", tuple(categories))


def article(a_id: str, j_id: str, year: int, refs=(), doc_type: str = "article") -> ArticleRecord:
    return ArticleRecord(a_id, j_id, year, doc_type, tuple(refs))


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


def lean_read(path, taxonomy: Taxonomy) -> Corpus:
    """The corpus read of ``path`` that the CLI's ``classify`` makes."""
    return _read_corpus_file(path, seeds=_seeding(taxonomy))


def year_read(path, years: tuple[int, int]) -> Corpus:
    """The corpus read of ``path`` that the CLI's ``indicators`` makes with
    ``--if-years`` ``years``."""
    return _read_corpus_file(path, years=years)


def leading_journal_ids(path) -> list[str]:
    """The ids of the journal rows before the first other record of the
    valid corpus file ``path``, read as ``open()`` reads it."""
    ids = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            tag, j_id, *_ = line.split("\t")
            if tag != "J":
                break
            ids.append(j_id.strip())
    return ids


def references_by_id(corpus: Corpus) -> dict[str, tuple[str, ...]]:
    """Each article's references as ids, read from the CSR arrays."""
    names = corpus.ids + corpus.dangling_ids
    bounds, refs = corpus.indptr.tolist(), corpus.refs.tolist()
    return {
        a_id: tuple(names[c] for c in refs[lo:hi])
        for a_id, lo, hi in zip(corpus.ids, bounds, bounds[1:])
    }


def classify_outcome(corpus: Corpus, taxonomy: Taxonomy):
    """The assignment text ``classify`` gives, or its error as type and message."""
    try:
        return emit_assignments(classify(corpus, taxonomy))
    except RefclassError as exc:
        return type(exc), str(exc)


def read_alike(path, read) -> tuple[Corpus, Corpus] | None:
    """:func:`read_corpus_file` of ``path`` and ``read(path)``: ``None``
    when both raise the same error, else both corpora, which must hold the
    same rows and journals."""
    try:
        full = read_corpus_file(path)
    except RefclassError as exc:
        with pytest.raises(RefclassError) as lean_exc:
            read(path)
        assert (type(lean_exc.value), str(lean_exc.value)) == (type(exc), str(exc))
        return None
    lean = read(path)
    assert lean.ids == full.ids and lean.journals == full.journals
    for column in ("journal_codes", "years", "doc_types"):
        assert np.array_equal(getattr(lean, column), getattr(full, column))
    return full, lean


def assert_lean_read_agrees(path, taxonomy: Taxonomy) -> None:
    """The lean read of ``path`` against :func:`read_corpus_file`: the same
    error, or the same rows, with the full references of every row but
    those of the seeding journals among the leading journal rows, which
    have none, and the same ``classify`` outcome, byte for byte."""
    read = read_alike(path, lambda path: lean_read(path, taxonomy))
    if read is None:
        return
    full, lean = read
    seeding = _seeding(taxonomy)
    uncoded = {j for j in leading_journal_ids(path) if seeding(full.journals[j])}
    expected = {
        a_id: () if full.journal_ids[j] in uncoded else refs
        for (a_id, refs), j in zip(references_by_id(full).items(), full.journal_codes.tolist())
    }
    assert references_by_id(lean) == expected
    assert classify_outcome(lean, taxonomy) == classify_outcome(full, taxonomy)


def striped_table(corpus: Corpus) -> AssignmentTable:
    """An assignment table over ``corpus`` that leaves every third row
    unclassified and gives the others two areas in turn."""
    n = len(corpus.ids)
    none = np.full(n, -1, np.int32)
    area = (np.arange(n) % 3 - 1).astype(np.int32)
    zeros = np.zeros(n, np.int64)
    return AssignmentTable(
        corpus, (), none, ("Bioscience", "Medicine"), area, zeros.astype(np.int8), zeros, zeros
    )


def cube_counts(corpus: Corpus, config: IndicatorConfig) -> tuple:
    """The counts of :func:`count_cube` over ``corpus`` with
    :func:`striped_table`, for its first two journals."""
    cube = count_cube(corpus, striped_table(corpus), corpus.journal_ids[:2], config)
    return cube.den.tolist(), cube.num.tolist()


def assert_year_read_agrees(path, years: tuple[int, int]) -> None:
    """The read of ``path`` that ``indicators`` makes for the impact years
    ``years`` against :func:`read_corpus_file`: the same error, or the same
    rows, with the full references of every row published in ``years`` and
    none for the others, and the same :func:`count_cube` counts. What needs
    every row refuses it when a row lies outside ``years``."""
    read = read_alike(path, lambda path: year_read(path, years))
    if read is None:
        return
    full, lean = read
    lo, hi = years
    expected = {
        a_id: refs if lo <= year <= hi else ()
        for (a_id, refs), year in zip(references_by_id(full).items(), full.years.tolist())
    }
    assert references_by_id(lean) == expected
    config = IndicatorConfig(if_year_range=years)
    assert cube_counts(lean, config) == cube_counts(full, config)
    if all(lo <= year <= hi for year in full.years.tolist()):
        assert dict(lean.articles) == dict(full.articles)
    else:
        outside = f"lacks the references of its rows published outside {lo}-{hi}$"
        with pytest.raises(TypeError, match=outside):
            lean.articles
