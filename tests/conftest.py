"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import tracemalloc
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from naive_corpus import naive_records, reference_reading

import refclass.corpus as corpus_module
from refclass.classifier import AssignmentTable, _seeding, classify, emit_assignments
from refclass.corpus import (
    YEAR_BOUNDS,
    ArticleRecord,
    Corpus,
    JournalRecord,
    _read_corpus_file,
    build_corpus,
    emit_corpus,
    read_corpus,
    validate_corpus,
)
from refclass.errors import InputError, ParseError, RefclassError
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


def counted_forks(patch: pytest.MonkeyPatch) -> list[int]:
    """Patch the corpus read to read every file that splits with two forked
    workers; returns the list that their pids are appended to."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(corpus_module, "_FORK_BYTES", 1)
    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    patch.setattr(os, "fork", counted_fork)
    return pids


@pytest.fixture
def forks(monkeypatch):
    """Read every corpus file that splits with two forked workers; yields their pids."""
    return counted_forks(monkeypatch)


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


def reading_of(corpus: Corpus) -> tuple:
    """What :func:`reference_reading` gives, read from ``corpus``."""
    return (
        dict(corpus.articles.items()),
        dict(corpus.citation_index),
        corpus.dangling_reference_count,
        validate_corpus(corpus).as_lines(),
        emit_corpus(corpus),
    )


def file_lines(path) -> list[str]:
    """The lines of ``path`` as ``open()`` reads them: universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def splits(path) -> bool:
    """Whether a ``\n`` at or past the middle of ``path`` is followed by a second half."""
    data = Path(path).read_bytes()
    return data.find(b"\n", len(data) // 2) not in (-1, len(data) - 1)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: The three readings of a corpus file: the full read of ``validate`` and
#: the library, and the lean reads of the CLI's ``classify`` and ``indicators``.
READINGS = ("full", "classify", "indicators")

#: The paths a corpus file is read along: in one process, by two forked
#: workers, and from a pipe where ``/dev/fd`` names open files.
READ_PATHS = ("one-process", "forked") + (("pipe",) if os.path.isdir("/dev/fd") else ())


@contextlib.contextmanager
def piped(path):
    """The ``/dev/fd`` name of a pipe that a thread feeds the bytes of the
    file ``path``, of any size; closing the pipe first ends the feed."""
    r, w = os.pipe()

    def feed(data: bytes) -> None:
        with contextlib.suppress(BrokenPipeError), open(w, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, args=(Path(path).read_bytes(),))
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()


def read_every_way(
    path, reading: str, taxonomy: Taxonomy, years: tuple[int, int], paths=READ_PATHS
) -> int | None:
    """Read the corpus file ``path`` along each of ``paths``, by default every
    path of :data:`READ_PATHS`, under ``reading``: the full read,
    ``classify``'s (the journals that seed under ``taxonomy``) or
    ``indicators``' (the impact years ``years``).

    Every path raises :func:`reference_reading`'s first fault (for a byte
    that is not UTF-8, the decode error naming the file), or gives its rows
    with the references of each row it leaves uncoded emptied, the dangling
    ids of the others in file order, and with no row uncoded its whole
    reading. A file read leaves uncoded the rows of the leading journals
    that seed, a pipe none; ``indicators`` the rows outside ``years``.
    ``classify`` gives the full read's output where every open row is
    coded, and :func:`count_cube` its counts where every citer in ``years``
    is coded. Only the forked path forks, two workers exactly when the file
    splits, and no path leaves a child.

    Returns the number of rows with references that a file read leaves
    uncoded, or ``None`` when the file holds a fault.
    """
    seeds = _seeding(taxonomy) if reading == "classify" else None
    lo, hi = years if reading == "indicators" else YEAR_BOUNDS
    try:
        lines = file_lines(path)
        expected = reference_reading(lines)
    except UnicodeDecodeError as exc:
        expected = ParseError(f"{path}: not valid UTF-8 ({exc.reason})")
    except InputError as exc:
        expected = exc
    reads = {}
    for via in paths:
        with pytest.MonkeyPatch.context() as patch, contextlib.ExitStack() as pipe:
            pids = counted_forks(patch)
            if via != "forked":
                patch.setattr(corpus_module, "_FORK_BYTES", 1 << 62)
            name = pipe.enter_context(piped(path)) if via == "pipe" else path
            try:
                reads[via] = _read_corpus_file(name, seeds=seeds, years=(lo, hi))
            except InputError as exc:
                message = str(exc).replace(str(name), str(path))
                reads[via] = type(exc), message, exc.line_no, exc.token
        assert_no_child()
        assert len(pids) == (2 * splits(path) if via == "forked" else 0), via
    if isinstance(expected, InputError):
        fault = type(expected), str(expected), expected.line_no, expected.token
        assert reads == dict.fromkeys(paths, fault)
        return None
    articles = expected[0]
    records = list(naive_records(lines))  # in file order
    journals = {rec.id: rec for rec in records if isinstance(rec, JournalRecord)}
    rows = [rec for rec in records if isinstance(rec, ArticleRecord)]
    seeding = _seeding(taxonomy)
    heads = takewhile(lambda rec: isinstance(rec, JournalRecord), records)
    leading = {j.id for j in heads if seeding(j)} if seeds else ()
    voting = {a.id for a in rows if not seeding(journals[a.journal_id])}
    citing = {a.id for a in rows if years[0] <= a.year <= years[1]}

    def coded_rows(skip) -> set[str]:
        return {a.id for a in rows if a.journal_id not in skip and lo <= a.year <= hi}

    full, config = read_corpus(lines), IndicatorConfig(if_year_range=years)
    classified, counted = classify_outcome(full, taxonomy), cube_counts(full, config)
    in_file = coded_rows(leading)
    for via, corpus in reads.items():
        assert not isinstance(corpus, tuple), (via, corpus)
        coded = coded_rows(()) if via == "pipe" else in_file
        assert corpus.ids == full.ids and corpus.journals == full.journals
        for column in ("journal_codes", "years", "doc_types"):
            assert np.array_equal(getattr(corpus, column), getattr(full, column)), (via, column)
        assert references_by_id(corpus) == {
            a_id: a.references if a_id in coded else () for a_id, a in articles.items()
        }, via
        dangling = (r for a in rows if a.id in coded for r in a.references if r not in articles)
        assert corpus.dangling_ids == tuple(dict.fromkeys(dangling)), via
        if len(coded) == len(articles):
            assert reading_of(corpus) == expected, via
        else:
            with pytest.raises(TypeError, match="^a lean corpus read lacks the references of"):
                corpus.articles
        if voting <= coded:
            assert classify_outcome(corpus, taxonomy) == classified, via
        if citing <= coded:
            assert cube_counts(corpus, config) == counted, via
    return sum(bool(a.references) for a_id, a in articles.items() if a_id not in in_file)
