"""Iterative reference-based classification of articles.

Articles published in classifier journals (exactly one non-multidisciplinary
category) are seeded with that category and never change. Every other
article is repeatedly re-labeled by tallying the current labels of its
in-corpus references and taking the strict plurality, until the label table
reaches a fixed point or ``max_iterations`` passes have run. Updates are
synchronous: iteration k+1 reads only iteration k's table, so the result is
independent of traversal order.

Tie handling: under the default ``unclassified-until-stable`` policy a tied
tally resolves to no label during iterations; once iteration stops, a single
terminal pass breaks remaining ties lexicographically (status ``tie-broken``,
computed from the final table). The terminal pass breaks ties only - it never
applies strict-plurality resolutions left pending by an iteration cutoff.
Under the ``lexicographic`` policy ties are broken immediately.

Bookkeeping: an assignment's ``iteration`` and ``tally`` snapshot belong to
the iteration that last changed its label (0 and an empty tally for seeds).
Articles left unclassified carry ``iteration = 0`` and the final-table tally
that failed to resolve. The result is an :class:`AssignmentTable`: per
corpus row a category code, a broad-area code, a status code, the iteration
and the total votes, plus the nonzero tally counts as CSR arrays. It builds
an :class:`Assignment` only when an entry is read; :func:`read_assignments`
returns the same kind of table in file order.

Kernel: seed categories are integer codes in sorted order, read per journal
and spread to the corpus rows through their journal codes; labels are those
codes, or broad-area codes in broad-area mode. The edges are the rows the
non-seeded articles reference, cut from the corpus's CSR with per-article
offsets, dangling references dropped. One vote function fills a reused
``int32`` tally matrix (non-seeded articles x seed labels) with one
``np.bincount`` per fixed block of articles, so its transients are O(block).
It runs once on the seed table and again after every iteration that moved
a label, so each iteration and the terminal pass read the tallies of the
current table, and no table is tallied twice. The kernel runs on one thread.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, _frozen, _is_int
from .errors import ConfigError, ParseError, ValidationError
from .taxonomy import BROAD_AREA_SET, Taxonomy

STATUS_SEEDED = "journal-seeded"
STATUS_REFERENCE = "reference-classified"
STATUS_TIE_BROKEN = "tie-broken"
STATUS_UNCLASSIFIED = "unclassified"
STATUSES = (STATUS_SEEDED, STATUS_REFERENCE, STATUS_TIE_BROKEN, STATUS_UNCLASSIFIED)
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}

TIE_UNTIL_STABLE = "unclassified-until-stable"
TIE_LEXICOGRAPHIC = "lexicographic"
TIE_POLICIES = (TIE_UNTIL_STABLE, TIE_LEXICOGRAPHIC)

MODE_CATEGORY = "category-level"
MODE_BROAD_AREA = "broad-area-level"
MODES = (MODE_CATEGORY, MODE_BROAD_AREA)
_BLOCK_CELLS = 1 << 14  # tally cells the vote kernel counts per block


@dataclass(frozen=True)
class VoteTally:
    """Vote counts per label (category, or broad area in broad-area mode)."""

    counts: dict[str, int]
    total_votes: int


@dataclass(frozen=True)
class ClassifierConfig:
    max_iterations: int = 10
    min_votes: int = 1
    tie_policy: str = TIE_UNTIL_STABLE
    mode: str = MODE_CATEGORY

    def __post_init__(self):
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ConfigError("max_iterations must be an integer >= 1")
        if not _is_int(self.min_votes) or self.min_votes < 1:
            raise ConfigError("min_votes must be an integer >= 1")
        if self.tie_policy not in TIE_POLICIES:
            raise ConfigError(f"unknown tie_policy: {self.tie_policy!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode: {self.mode!r}")


@dataclass(frozen=True)
class Assignment:
    """Classification outcome for one article, with vote provenance."""

    article_id: str
    category: str | None
    broad_area: str | None
    status: str
    iteration: int
    tally: VoteTally | None


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    newly_classified: int
    changed: int


class AssignmentTable(Mapping):
    """Read-only id -> :class:`Assignment` view over row-aligned columns.

    Row ``r`` is the article ``ids[r]``. ``category[r]`` indexes
    ``categories`` and ``area[r]`` indexes ``areas`` (both name tuples
    sorted; -1 for none), ``status[r]`` indexes :data:`STATUSES`, and
    ``iteration[r]`` and ``votes[r]`` are the assignment's iteration and
    total votes. ``tally`` is ``(labels, indptr, label, count)``: the vote
    counts of row ``r`` are ``count[k]`` for ``labels[label[k]]`` over
    ``k`` in ``indptr[r]:indptr[r + 1]``; without it every tally holds only
    its total. An :class:`Assignment` is built on each read; arrays are
    read-only.
    """

    def __init__(
        self,
        ids: Sequence[str],
        categories: tuple[str, ...],
        category: np.ndarray,
        areas: tuple[str, ...],
        area: np.ndarray,
        status: np.ndarray,
        iteration: np.ndarray,
        votes: np.ndarray,
        *,
        tally: tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray] | None = None,
        row_of: Mapping[str, int] | None = None,
    ):
        self.ids = ids
        self.categories = categories
        self.category = _frozen(category)
        self.areas = areas
        self.area = _frozen(area)
        self.status = _frozen(status)
        self.iteration = _frozen(iteration)
        self.votes = _frozen(votes)
        if tally is None:
            empty = np.zeros(0, np.int32)
            tally = ((), np.zeros(len(ids) + 1, np.int64), empty, empty)
        labels, indptr, label, count = tally
        self.tally = (labels, _frozen(indptr), _frozen(label), _frozen(count))
        if row_of is not None:
            self.row_of = row_of

    @cached_property
    def row_of(self) -> Mapping[str, int]:
        return MappingProxyType(dict(zip(self.ids, range(len(self.ids)))))

    @classmethod
    def of(cls, assignments: Mapping[str, Assignment]) -> AssignmentTable:
        """The table itself, or the columns of a plain mapping's entries.

        A converted mapping keeps each tally's total but not its counts.
        """
        if isinstance(assignments, AssignmentTable):
            return assignments
        entries = list(assignments.values())
        return _table_of(
            list(assignments),
            [a.category or "" for a in entries],
            [a.broad_area or "" for a in entries],
            [a.status for a in entries],
            [a.iteration for a in entries],
            [a.tally.total_votes if a.tally is not None else 0 for a in entries],
        )

    def corpus_rows(self, corpus: Corpus) -> np.ndarray:
        """The corpus row of every entry, -1 for an id outside the corpus."""
        get = corpus.row_of.get
        return np.fromiter(map(get, self.ids, repeat(-1)), np.int64, count=len(self.ids))

    def __getitem__(self, article_id: str) -> Assignment:
        row = self.row_of[article_id]
        category, area = int(self.category[row]), int(self.area[row])
        labels, indptr, label, count = self.tally
        lo, hi = indptr[row], indptr[row + 1]
        counts = dict(zip([labels[c] for c in label[lo:hi].tolist()], count[lo:hi].tolist()))
        return Assignment(
            article_id,
            self.categories[category] if category >= 0 else None,
            self.areas[area] if area >= 0 else None,
            STATUSES[self.status[row]],
            int(self.iteration[row]),
            VoteTally(counts, int(self.votes[row])),
        )

    def __contains__(self, article_id) -> bool:
        return article_id in self.row_of

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _coded(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct names of a column and each entry's code, -1 for ``""``."""
    names = tuple(sorted(set(column) - {""}))
    code = {name: i for i, name in enumerate(names)}
    code[""] = -1
    return names, np.fromiter(map(code.__getitem__, column), np.int32, count=len(column))


def _table_of(
    ids: Sequence[str],
    categories: Sequence[str],
    areas: Sequence[str],
    statuses: Sequence[str],
    iterations: Sequence[int],
    votes: Sequence[int],
) -> AssignmentTable:
    """Code per-row string columns (``""`` for no category or area) into a table."""
    category_names, category = _coded(categories)
    area_names, area = _coded(areas)
    status = np.fromiter(map(_STATUS_CODE.__getitem__, statuses), np.int8, count=len(statuses))
    iteration = np.array(iterations, dtype=np.int64)
    total_votes = np.array(votes, dtype=np.int64)
    return AssignmentTable(
        ids, category_names, category, area_names, area, status, iteration, total_votes
    )


def _lookup(values: Sequence[int], codes: np.ndarray) -> np.ndarray:
    """``values[code]`` for every code, -1 where the code is -1."""
    return np.append(np.asarray(values, dtype=np.int32), np.int32(-1))[codes]


@dataclass(frozen=True)
class ClassificationResult:
    """Assignments by article id, plus how the iteration went.

    :func:`classify` returns the assignments as an :class:`AssignmentTable`,
    a lazy view over its result arrays; any mapping of ids to
    :class:`Assignment` is accepted.
    """

    assignments: Mapping[str, Assignment]
    iterations_run: int
    iteration_stats: tuple[IterationStats, ...]


def _seeds(corpus: Corpus, taxonomy: Taxonomy) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted seed categories and each row's seed category code (-1: not seeded)."""
    per_journal = [
        j.categories[0] if taxonomy.is_classifier_journal(j) else None
        for j in corpus.journals.values()
    ]
    categories = tuple(sorted({c for c in per_journal if c is not None}))
    code = {c: i for i, c in enumerate(categories)}
    journal_category = [code.get(c, -1) for c in per_journal]
    return categories, _lookup(journal_category, corpus.journal_codes)


def _area_codes(names: Sequence[str], taxonomy: Taxonomy) -> tuple[tuple[str, ...], list[int]]:
    """Sorted broad areas of the categories ``names`` and each one's area code."""
    areas = tuple(sorted({taxonomy.broad_area_of(c) for c in names}))
    return areas, [areas.index(taxonomy.broad_area_of(c)) for c in names]


def seed_assignments(corpus: Corpus, taxonomy: Taxonomy) -> AssignmentTable:
    """Iteration-0 table: classifier-journal articles seeded, everything else unclassified.

    A lazy view over per-row arrays, like :attr:`ClassificationResult.assignments`.
    """
    categories, category = _seeds(corpus, taxonomy)
    areas, category_area = _area_codes(categories, taxonomy)
    n = len(corpus.ids)
    status = np.where(category >= 0, _STATUS_CODE[STATUS_SEEDED], _STATUS_CODE[STATUS_UNCLASSIFIED])
    return AssignmentTable(
        corpus.ids,
        categories,
        category,
        areas,
        _lookup(category_area, category),
        status.astype(np.int8),
        np.zeros(n, np.int64),
        np.zeros(n, np.int64),
        row_of=corpus.row_of,
    )


def classify(
    corpus: Corpus,
    taxonomy: Taxonomy,
    config: ClassifierConfig | None = None,
) -> ClassificationResult:
    """Run the full iterative classification to its fixed point.

    One vote kernel, run on one thread, serves every iteration and the
    terminal pass. The assignments are an :class:`AssignmentTable` over the
    corpus rows.
    """
    if config is None:
        config = ClassifierConfig()
    area_mode = config.mode == MODE_BROAD_AREA

    # Labels only come from seeds. Their codes follow sorted order, so argmax
    # over a row picks the lexicographically smallest leader.
    categories, category = _seeds(corpus, taxonomy)
    areas, category_area = _area_codes(categories, taxonomy)
    names = areas if area_mode else categories
    label = _lookup(category_area, category) if area_mode else category.copy()
    open_rows = np.flatnonzero(label < 0)
    n_rows, n_open, width = len(corpus.ids), len(open_rows), max(len(names), 1)

    # Edges straight from the CSR: open article i cites the rows
    # dst[edge_ptr[i]:edge_ptr[i + 1]]; dangling references drop out.
    refs_per_row = np.diff(corpus.indptr)
    dst = corpus.refs[np.repeat(label < 0, refs_per_row)]
    edge_ptr = np.zeros(n_open + 1, np.int64)
    np.cumsum(refs_per_row[open_rows], out=edge_ptr[1:])
    dangling = np.flatnonzero(dst >= n_rows)
    edge_ptr -= np.searchsorted(dangling, edge_ptr)
    dst = np.delete(dst, dangling)
    block = max(_BLOCK_CELLS // width, 1)
    counts = np.empty((n_open, width), np.int32)

    def votes(table: np.ndarray):
        """Per open article: tally row, total votes, leader count, first leader.

        Fills ``counts`` a block of open articles at a time; key column 0 of a
        block catches the unlabeled (-1) references and is dropped.
        """
        for lo in range(0, n_open, block):
            span = edge_ptr[lo : lo + block + 1]
            rows = len(span) - 1
            key = np.repeat(np.arange(rows) * (width + 1) + 1, np.diff(span))
            key += table[dst[span[0] : span[-1]]]
            tally = np.bincount(key, minlength=rows * (width + 1))
            counts[lo : lo + rows] = tally.reshape(rows, width + 1)[:, 1:]
        top = counts.max(axis=1)
        at_top = np.count_nonzero(counts == top[:, None], axis=1)
        return counts, counts.sum(axis=1), at_top, counts.argmax(axis=1)

    # Per open article: iteration of the last label change, whether it came
    # through a tie, and the tally snapshot of that change.
    set_iteration = np.zeros(n_open, np.int64)
    via_tie = np.zeros(n_open, bool)
    snapshot = np.zeros((n_open, width), np.int32)
    lexicographic = config.tie_policy == TIE_LEXICOGRAPHIC

    stats: list[IterationStats] = []
    iterations_run = 0
    counts, total, at_top, best = votes(label)
    for iteration in range(1, config.max_iterations + 1):
        iterations_run = iteration
        tied = at_top > 1
        won = (total >= config.min_votes) & (lexicographic | ~tied)
        old = label[open_rows]
        new = np.where(won, best, -1)
        moved = new != old
        set_now = moved & won
        set_iteration[set_now] = iteration
        via_tie[set_now] = tied[set_now]
        snapshot[set_now] = counts[set_now]
        label[open_rows] = new
        newly = int(np.count_nonzero(moved & (old < 0)))
        changed = int(np.count_nonzero(moved)) - newly
        stats.append(IterationStats(iteration, newly, changed))
        if newly == 0 and changed == 0:
            break
        counts, total, at_top, best = votes(label)

    # Terminal pass: the tallies above read the final table; break remaining
    # ties and keep the final tally of every article still unlabeled.
    unlabeled = label[open_rows] < 0
    broken = unlabeled & (total >= config.min_votes) & (at_top > 1)
    label[open_rows[broken]] = best[broken]
    set_iteration[broken] = iterations_run
    via_tie[broken] = True
    snapshot[unlabeled] = counts[unlabeled]

    final = label[open_rows]
    status = np.full(n_rows, _STATUS_CODE[STATUS_SEEDED], np.int8)
    status[open_rows] = np.select(
        [final < 0, via_tie],
        [_STATUS_CODE[STATUS_UNCLASSIFIED], _STATUS_CODE[STATUS_TIE_BROKEN]],
        _STATUS_CODE[STATUS_REFERENCE],
    )
    iterations = np.zeros(n_rows, np.int64)
    iterations[open_rows] = np.where(final < 0, 0, set_iteration)
    total_votes = np.zeros(n_rows, np.int64)
    total_votes[open_rows] = snapshot.sum(axis=1)
    # The tally snapshots as CSR over all rows; seeds hold none.
    tally_rows, tally_label = np.nonzero(snapshot)
    indptr = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(open_rows[tally_rows], minlength=n_rows), out=indptr[1:])
    tally = (names, indptr, tally_label.astype(np.int32), snapshot[tally_rows, tally_label])
    label_area = range(len(areas)) if area_mode else category_area
    assignments = AssignmentTable(
        corpus.ids,
        categories,
        category if area_mode else label,
        areas,
        _lookup(label_area, label),
        status,
        iterations,
        total_votes,
        tally=tally,
        row_of=corpus.row_of,
    )
    return ClassificationResult(assignments, iterations_run, tuple(stats))


@dataclass(frozen=True)
class AccuracyReport:
    """Coverage and accuracy of a classification against planted truth."""

    total: int
    classified: int
    coverage: float
    category_accuracy: float | None
    broad_area_accuracy: float | None
    confusion: dict[tuple[str, str], int]

    @property
    def broad_area_error(self) -> float | None:
        if self.broad_area_accuracy is None:
            return None
        return 1.0 - self.broad_area_accuracy


def evaluate_accuracy(result: ClassificationResult, truth, taxonomy: Taxonomy) -> AccuracyReport:
    """Score assignments against a :class:`~refclass.synthetic.GroundTruth`.

    Coverage is the classified fraction; accuracies are over classified
    articles only. Raises :class:`ValidationError` if the result covers an
    article the truth does not.
    """
    table = AssignmentTable.of(result.assignments)
    missing = [a_id for a_id in table.ids if a_id not in truth.field_of]
    if missing:
        raise ValidationError(f"articles missing from ground truth: {missing[:5]}")
    total = len(table.ids)
    classified = 0
    cat_seen = cat_right = 0
    area_seen = area_right = 0
    confusion: dict[tuple[str, str], int] = {}
    area_names = table.areas + (None,)  # code -1 (none) reads the trailing None
    for a_id, category, area in zip(table.ids, table.category.tolist(), table.area.tolist()):
        broad_area = area_names[area]
        if broad_area is None:
            continue
        classified += 1
        true_cat = truth.category_of(a_id)
        true_area = taxonomy.broad_area_of(true_cat)
        if category >= 0:
            cat_seen += 1
            cat_right += table.categories[category] == true_cat
        area_seen += 1
        area_right += broad_area == true_area
        key = (true_area, broad_area)
        confusion[key] = confusion.get(key, 0) + 1
    return AccuracyReport(
        total=total,
        classified=classified,
        coverage=classified / total if total else 0.0,
        category_accuracy=cat_right / cat_seen if cat_seen else None,
        broad_area_accuracy=area_right / area_seen if area_seen else None,
        confusion=dict(sorted(confusion.items())),
    )


def emit_assignments(result: ClassificationResult) -> str:
    """Render the assignment table TSV, rows sorted by article id.

    Columns: article_id, category, broad_area, status, iteration,
    total_votes. Unclassified rows carry empty category and broad_area.
    """
    table = AssignmentTable.of(result.assignments)
    order = np.array(sorted(range(len(table.ids)), key=table.ids.__getitem__), dtype=np.int64)

    def names(values: tuple[str, ...], codes: np.ndarray) -> list[str]:
        return np.array(values + ("",), dtype=object)[codes[order]].tolist()

    rows = zip(
        [table.ids[r] for r in order.tolist()],
        names(table.categories, table.category),
        names(table.areas, table.area),
        names(STATUSES, table.status),
        table.iteration[order].tolist(),
        table.votes[order].tolist(),
    )
    return "\n".join([f"{a}\t{c}\t{b}\t{s}\t{i}\t{v}" for a, c, b, s, i, v in rows]) + "\n"


def read_assignments(source: Iterable[str]) -> AssignmentTable:
    """Parse an assignment TSV into an :class:`AssignmentTable` in file order.

    Reads one row at a time straight from ``source`` and raises the first
    fault in file order. Each distinct category, area and status name is
    kept as one string object. Tally details are not stored: each tally
    holds only its total.
    """
    ids, cats, areas, statuses, iterations, votes = ([], [], [], [], [], [])
    name = {}.setdefault  # one object per distinct category, area and status
    seen: set[str] = set()
    for line_no, raw in enumerate(source, start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ParseError(f"assignment row needs 6 columns, got {len(parts)}", line_no, raw)
        a_id, cat, area, status, iteration_s, votes_s = parts
        a_id, cat, area, status = a_id.strip(), cat.strip(), area.strip(), status.strip()
        iteration_s, votes_s = iteration_s.strip(), votes_s.strip()
        if not a_id:
            raise ParseError("empty article id", line_no, raw)
        if status not in _STATUS_CODE:
            raise ParseError("unknown status", line_no, status)
        if (area == "") != (status == STATUS_UNCLASSIFIED):
            raise ParseError("status/broad_area mismatch", line_no, raw)
        if cat and not area:
            raise ParseError("category without broad_area", line_no, raw)
        if area and area not in BROAD_AREA_SET:
            raise ParseError("unknown broad area", line_no, area)
        try:
            iteration, total = int(iteration_s), int(votes_s)
        except ValueError:
            raise ParseError("non-integer iteration or votes", line_no, raw) from None
        if not (0 <= iteration < 2**63 and 0 <= total < 2**63):
            raise ParseError("iteration and votes must be in [0, 2**63)", line_no, raw)
        if a_id in seen:
            raise ValidationError("duplicate article id", line_no, a_id)
        seen.add(a_id)
        ids.append(a_id)
        cats.append(name(cat, cat))
        areas.append(name(area, area))
        statuses.append(name(status, status))
        iterations.append(iteration)
        votes.append(total)
    del seen  # free it before the columns are coded into arrays
    return _table_of(ids, cats, areas, statuses, iterations, votes)
