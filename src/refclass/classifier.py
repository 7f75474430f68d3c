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
an :class:`Assignment` only when an entry is read. Every table's rows are
its corpus's rows, :func:`read_assignments`' too: an id outside is an error.

Kernel: seed categories are integer codes in sorted order, read per journal
and spread to the corpus rows through their journal codes; labels are those
codes, or broad-area codes in broad-area mode. The label table runs on past
the rows with -1 for every dangling id, so any reference code indexes it and
a dangling reference counts like an unlabeled one. Each iteration is one
pass over fixed blocks of non-seeded articles: a block gathers its
references straight from the corpus's CSR, counts them with one
``np.bincount``, reduces the counts to each article's total, tie flag and
first leader, and decides its new labels at once. The new labels go into
the table only after the pass, so updates stay synchronous. An article whose
label is set keeps that block's nonzero tally cells as its record, replacing
any earlier one, and the terminal pass votes only the articles left
unlabeled. So no array is ever as large as non-seeded articles x seed
labels, and the memory grows neither with the taxonomy nor with the
iterations run. The kernel runs on one thread.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, JournalRecord, _frozen, _IdView, _is_int
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
_EMIT_ROWS = 1 << 11  # assignment rows emit_assignments formats per block


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
    tally: VoteTally


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    newly_classified: int
    changed: int


class AssignmentTable(_IdView):
    """Read-only id -> :class:`Assignment` view over a corpus's rows.

    Row ``r`` is the corpus article ``ids[r]``: the table is an id view of
    the corpus's sorted ``ids``, as ``Corpus.row_of`` is, so it holds no
    dict and no reference to the corpus, whose arrays can be freed.
    ``category[r]`` indexes ``categories`` and ``area[r]`` indexes ``areas``
    (both name tuples sorted; -1 for none), ``status[r]`` indexes
    :data:`STATUSES`, and ``iteration[r]`` and ``votes[r]`` are the
    assignment's iteration and total votes. ``tally`` is ``(labels, indptr,
    label, count)``: the vote counts of row ``r`` are ``count[k]`` for
    ``labels[label[k]]`` over ``k`` in ``indptr[r]:indptr[r + 1]``; without
    it every tally holds only its total. An :class:`Assignment` is built on
    each read; arrays are read-only.
    """

    def __init__(
        self,
        corpus: Corpus,
        categories: tuple[str, ...],
        category: np.ndarray,
        areas: tuple[str, ...],
        area: np.ndarray,
        status: np.ndarray,
        iteration: np.ndarray,
        votes: np.ndarray,
        *,
        tally: tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        super().__init__(corpus.ids, self._assignment)
        self.categories = categories
        self.category = _frozen(category)
        self.areas = areas
        self.area = _frozen(area)
        self.status = _frozen(status)
        self.iteration = _frozen(iteration)
        self.votes = _frozen(votes)
        if tally is None:
            empty = np.zeros(0, np.int32)
            tally = ((), np.zeros(len(self.ids) + 1, np.int64), empty, empty)
        labels, indptr, label, count = tally
        self.tally = (labels, _frozen(indptr), _frozen(label), _frozen(count))

    def _assignment(self, row: int) -> Assignment:
        category, area = int(self.category[row]), int(self.area[row])
        labels, indptr, label, count = self.tally
        lo, hi = indptr[row], indptr[row + 1]
        counts = dict(zip([labels[c] for c in label[lo:hi].tolist()], count[lo:hi].tolist()))
        return Assignment(
            self.ids[row],
            self.categories[category] if category >= 0 else None,
            self.areas[area] if area >= 0 else None,
            STATUSES[self.status[row]],
            int(self.iteration[row]),
            VoteTally(counts, int(self.votes[row])),
        )


def _coded(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted distinct names of a column and each entry's code, -1 for ``""``."""
    names = tuple(sorted(set(column) - {""}))
    code = {name: i for i, name in enumerate(names)}
    code[""] = -1
    return names, np.fromiter(map(code.__getitem__, column), np.int32, count=len(column))


def _require_table(assignments) -> AssignmentTable:
    """``assignments`` if it is an :class:`AssignmentTable`; raises :class:`ConfigError` if not."""
    if not isinstance(assignments, AssignmentTable):
        raise ConfigError(
            f"assignments must be an AssignmentTable, got {type(assignments).__name__}"
        )
    return assignments


def _lookup(values: Sequence[int], codes: np.ndarray) -> np.ndarray:
    """``values[code]`` for every code, -1 where the code is -1."""
    return np.append(np.asarray(values, dtype=np.int32), np.int32(-1))[codes]


def _leaders(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per tally column: total votes, whether the lead is tied, and the first leader."""
    # Ufunc methods, not their wrappers, as in the block loop.
    tied = np.add.reduce(counts == np.maximum.reduce(counts), axis=0) > 1
    return np.add.reduce(counts), tied, counts.argmax(axis=0)


class _Cells:
    """The nonzero tally cells ``(row, label, count)`` of each row's last record.

    Each column is a growable ``int32`` array, in the order the cells were
    added. :meth:`end_pass` drops the cells that a later record of the same
    row replaced, so at most one record per row is kept.
    """

    def __init__(self, n_rows: int):
        self.columns = [np.empty(1 << 10, np.int32) for _ in range(3)]
        self.size = self.mark = 0
        self.fresh = np.zeros(n_rows, bool)  # rows recorded since the mark

    def add(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Add the nonzero cells of ``counts`` (labels x ``rows``) as the records
        of ``rows``, by row then label; returns each row's number of cells."""
        at, label = counts.T.nonzero()
        end = self.size + len(at)
        for k, values in enumerate((rows[at], label, counts[label, at])):
            column = self.columns[k]
            if end > len(column):  # grown one column at a time
                self.columns[k] = np.empty(max(end, len(column) * 3 // 2), np.int32)
                self.columns[k][: self.size] = column[: self.size]
                column = self.columns[k]
            column[self.size : end] = values
        self.size = end
        self.fresh[rows] = True
        return np.bincount(at, minlength=len(rows))

    def end_pass(self) -> None:
        """Drop the cells before the mark of the rows recorded since, and mark the end."""
        size, mark = self.size, self.mark
        keep = ~self.fresh[self.columns[0][:mark]]
        kept = int(np.count_nonzero(keep))
        if kept < mark:
            for column in self.columns:
                column[:kept] = column[:mark][keep]
                column[kept : kept + size - mark] = column[mark:size]
            self.size = kept + size - mark
        self.mark = self.size
        self.fresh[:] = False

    def in_row_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The labels and counts of the kept cells, ordered by row, then label;
        the columns are freed."""
        row, label, count = (column[: self.size] for column in self.columns)
        self.columns = []
        order = np.argsort(row, kind="stable")
        del row
        return label[order], count[order]


@dataclass(frozen=True)
class ClassificationResult:
    """The corpus's :class:`AssignmentTable`, plus how the iteration went."""

    assignments: AssignmentTable
    iterations_run: int
    iteration_stats: tuple[IterationStats, ...]


def _seeds(corpus: Corpus, taxonomy: Taxonomy) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted seed categories and each row's seed category code (-1: not seeded)."""
    taxonomy.check_journals(corpus.journals.values())
    categories, journal_category = _coded(
        [
            j.categories[0] if taxonomy.is_classifier_journal(j) else ""
            for j in corpus.journals.values()
        ]
    )
    return categories, _lookup(journal_category, corpus.journal_codes)


def _seeding(taxonomy: Taxonomy) -> Callable[[JournalRecord], bool]:
    """Whether a journal's rows seed under ``taxonomy``, so that
    :func:`classify` reads none of their references. False, not an error,
    for a journal naming a category missing from the taxonomy, which
    :func:`classify` refuses."""
    return lambda journal: (
        all(name in taxonomy for name in journal.categories)
        and taxonomy.is_classifier_journal(journal)
    )


def _area_codes(names: Sequence[str], taxonomy: Taxonomy) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted broad areas of the categories ``names`` and each one's area code."""
    return _coded([taxonomy.broad_area_of(c) for c in names])


def seed_assignments(corpus: Corpus, taxonomy: Taxonomy) -> AssignmentTable:
    """Iteration-0 table: classifier-journal articles seeded, everything else unclassified."""
    categories, category = _seeds(corpus, taxonomy)
    areas, category_area = _area_codes(categories, taxonomy)
    n = len(corpus.ids)
    status = np.where(category >= 0, _STATUS_CODE[STATUS_SEEDED], _STATUS_CODE[STATUS_UNCLASSIFIED])
    return AssignmentTable(
        corpus,
        categories,
        category,
        areas,
        _lookup(category_area, category),
        status.astype(np.int8),
        np.zeros(n, np.int64),
        np.zeros(n, np.int64),
    )


def classify(
    corpus: Corpus,
    taxonomy: Taxonomy,
    config: ClassifierConfig | None = None,
) -> ClassificationResult:
    """Run the full iterative classification to its fixed point.

    One block generator, run on one thread, serves every iteration and the
    terminal pass. Each iteration votes and decides one block at a time
    against the previous table; the terminal pass revisits only the articles
    still unlabeled. The assignments are an :class:`AssignmentTable` over the
    corpus rows, whose tallies are the cells each article kept at its last
    label change. Raises :class:`ConfigError` for a ``config`` that is not a
    :class:`ClassifierConfig`, and :class:`ValidationError` when a journal
    names a category missing from the taxonomy. A lean corpus (see
    :class:`~refclass.corpus.Corpus`) that lacks the references of a row
    left open under ``taxonomy`` is a :class:`TypeError`.
    """
    if config is None:
        config = ClassifierConfig()
    elif not isinstance(config, ClassifierConfig):
        raise ConfigError(f"config must be a ClassifierConfig, got {type(config).__name__}")
    area_mode = config.mode == MODE_BROAD_AREA

    # Labels only come from seeds. Their codes follow sorted order, so argmax
    # over an article's tally picks the lexicographically smallest leader.
    categories, category = _seeds(corpus, taxonomy)
    areas, category_area = _area_codes(categories, taxonomy)
    names = areas if area_mode else categories
    n_rows = len(corpus.ids)
    # The label of every reference code: a row's label, then -1 per dangling id.
    table = np.full(n_rows + len(corpus.dangling_ids), -1, np.int32)
    label = table[:n_rows]
    label[:] = _lookup(category_area, category) if area_mode else category
    open_rows = np.flatnonzero(label < 0)
    corpus._require_coded(open_rows)
    n_open, width = len(open_rows), max(len(names), 1)
    block = max(_BLOCK_CELLS // width, 1)

    def tallies(rows: np.ndarray):
        """Yield ``(lo, counts)`` per block of ``rows`` under the current ``table``.

        ``counts[c, i]`` is the number of references of ``rows[lo + i]``
        labeled ``c``, read straight from the corpus's CSR. Key row 0 of a
        block catches the unlabeled and dangling (-1) references and is
        dropped. Labels run down the rows, so each reduction over a block's
        articles is elementwise.
        """
        for lo in range(0, len(rows), block):
            part = rows[lo : lo + block]
            n = len(part)
            start = corpus.indptr[part]
            size = corpus.indptr[part + 1] - start
            # The k-th reference of the block is corpus.refs[at[k]]. Array
            # methods, not their wrappers: a block may hold a single article.
            at = (start - size.cumsum() + size).repeat(size)
            at += np.arange(len(at))
            # Key (label + 1) * n + article: (width + 1) * n keys, at most
            # 2 * _BLOCK_CELLS or width + 1, so int32 holds them.
            key = table[corpus.refs[at]]
            del at  # the block's other arrays go too before it is yielded
            key *= n
            key += np.arange(n, 2 * n, dtype=np.int32).repeat(size)
            del start, size
            tally = np.bincount(key, minlength=(width + 1) * n)
            del key
            yield lo, tally[n:].reshape(width, n)

    # Per row, the record of its last label change, or of the terminal pass:
    # iteration, status, total votes, nonzero tally cells (count and cells).
    iterations = np.zeros(n_rows, np.int64)
    status = np.full(n_rows, _STATUS_CODE[STATUS_SEEDED], np.int8)
    total_votes = np.zeros(n_rows, np.int64)
    indptr = np.zeros(n_rows + 1, np.int64)
    cells = _Cells(n_rows)
    tie_broken, reference = _STATUS_CODE[STATUS_TIE_BROKEN], _STATUS_CODE[STATUS_REFERENCE]

    def record(rows, counts, total, tied, iteration):
        """Set ``rows`` at ``iteration`` with tallies ``counts``, replacing earlier records."""
        iterations[rows] = iteration
        status[rows] = np.where(tied, tie_broken, reference)
        total_votes[rows] = total
        indptr[rows + 1] = cells.add(rows, counts)

    lexicographic = config.tie_policy == TIE_LEXICOGRAPHIC
    # The open rows' labels; each pass writes the next table here, and
    # ``label`` takes it after the pass, so every block reads the same table.
    new = np.full(n_open, -1, np.int32)
    stats: list[IterationStats] = []
    iterations_run = 0
    for iteration in range(1, config.max_iterations + 1):
        iterations_run = iteration
        for lo, counts in tallies(open_rows):
            total, tied, best = _leaders(counts)
            won = total >= config.min_votes
            if not lexicographic:
                won &= ~tied
            old = new[lo : lo + len(total)]
            set_now = (won & (best != old)).nonzero()[0]
            np.copyto(old, np.where(won, best, -1))
            if len(set_now):
                rows = open_rows[lo + set_now]
                record(rows, counts[:, set_now], total[set_now], tied[set_now], iteration)
        before = label[open_rows]
        moved = new != before
        newly = int(np.count_nonzero(moved & (before < 0)))
        changed = int(np.count_nonzero(moved)) - newly
        label[open_rows] = new
        del before, moved
        cells.end_pass()
        stats.append(IterationStats(iteration, newly, changed))
        if newly == 0 and changed == 0:
            break

    # Terminal pass over the rows still unlabeled, on the final table: break
    # their remaining ties and keep their final tallies.
    unlabeled = np.flatnonzero(new < 0)
    for lo, counts in tallies(open_rows[unlabeled]):
        total, tied, best = _leaders(counts)
        at = unlabeled[lo : lo + len(total)]
        broken = (total >= config.min_votes) & tied
        new[at[broken]] = best[broken]
        record(open_rows[at], counts, total, broken, iterations_run)
    label[open_rows] = new
    cells.end_pass()
    left = open_rows[new < 0]
    status[left] = _STATUS_CODE[STATUS_UNCLASSIFIED]
    iterations[left] = 0
    np.cumsum(indptr, out=indptr)
    tally = (names, indptr, *cells.in_row_order())
    label_area = range(len(areas)) if area_mode else category_area
    assignments = AssignmentTable(
        corpus,
        categories,
        category if area_mode else label,
        areas,
        _lookup(label_area, label),
        status,
        iterations,
        total_votes,
        tally=tally,
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
    table = _require_table(result.assignments)
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
    """Render the assignment table TSV, one row per corpus article, in id order.

    Columns: article_id, category, broad_area, status, iteration,
    total_votes. Unclassified rows carry empty category and broad_area.
    The text is built :data:`_EMIT_ROWS` rows at a time, so only one block
    of row strings is alive next to the text.
    """
    table = _require_table(result.assignments)
    # Code -1 names the empty string.
    categories, areas, statuses = (
        np.array(names + ("",), dtype=object)
        for names in (table.categories, table.areas, STATUSES)
    )
    blocks = []
    for lo in range(0, len(table.ids), _EMIT_ROWS):
        rows = slice(lo, lo + _EMIT_ROWS)
        block = zip(
            table.ids[rows],
            categories[table.category[rows]].tolist(),
            areas[table.area[rows]].tolist(),
            statuses[table.status[rows]].tolist(),
            table.iteration[rows].tolist(),
            table.votes[rows].tolist(),
        )
        blocks.append("".join([f"{a}\t{c}\t{b}\t{s}\t{i}\t{v}\n" for a, c, b, s, i, v in block]))
    # An empty table is one empty line.
    return "".join(blocks) or "\n"


def _head(head: str, line_no: int, raw: str) -> tuple[str, str, str, int | None]:
    """The stripped category, area and status of the assignment line ``raw``,
    whose head (its columns between id and votes) is ``head``, and its
    iteration, ``None`` where ``int`` cannot read it. Raises the first fault
    of the status and the area."""
    cat, area, status, iteration_s = (field.strip() for field in head.split("\t"))
    if status not in _STATUS_CODE:
        raise ParseError("unknown status", line_no, status)
    if (area == "") != (status == STATUS_UNCLASSIFIED):
        raise ParseError("status/broad_area mismatch", line_no, raw)
    if cat and not area:
        raise ParseError("category without broad_area", line_no, raw)
    if area and area not in BROAD_AREA_SET:
        raise ParseError("unknown broad area", line_no, area)
    try:
        return cat, area, status, int(iteration_s)
    except ValueError:
        return cat, area, status, None


def read_assignments(source: Iterable[str], corpus: Corpus) -> AssignmentTable:
    """Parse an assignment TSV into an :class:`AssignmentTable` over ``corpus``.

    Reads one row at a time straight from ``source`` into the row of its id
    and raises the first fault in file order, a repeated id included; then
    one :class:`ValidationError` counts the ids outside the corpus and names
    the smallest. An article the file does not name is unclassified with 0
    votes. Each tally holds only its total.

    Every line goes through one rule. Blank lines and lines led by ``#`` are
    skipped. A line's head, the raw text between its first and last tab, is
    checked once, on the first line that holds it: its column count, then
    its stripped category, area and status and its iteration
    (:func:`_head`). The stripped id and the stripped votes are checked on
    every line. The faults of one line come in a fixed order: column count,
    empty id, status, area, a non-integer iteration or votes, then either
    outside ``[0, 2**63)``. Each distinct name is kept as one string object.
    A line's id is first tried against the row after the previous line's,
    and bisected in ``corpus.ids`` only when that row is another article's,
    so a file in row order, as ``classify`` writes it, needs no lookup.
    """
    ids = corpus.ids
    n = len(ids)
    name = {}.setdefault  # one object per distinct category, area and status
    head_at: dict[str, int] = {}  # raw head -> its index into `heads`
    heads: list[tuple[str, str, str, int | None]] = []  # category, area, status, iteration
    # Per row its line's head index (-1 until a line names it) and votes.
    row_head, votes = [-1] * n, [0] * n
    row = -1
    strangers: set[str] = set()
    for line_no, raw in enumerate(source, start=1):
        a_id, _, tail = raw.partition("\t")
        head, _, votes_s = tail.rpartition("\t")
        k = head_at.get(head, -1)
        # A known head holds a status, so its line is not blank.
        if (k < 0 and not raw.strip()) or raw[0] == "#":
            continue
        if k < 0 and head.count("\t") != 3:
            columns = raw.count("\t") + 1
            raise ParseError(f"assignment row needs 6 columns, got {columns}", line_no, raw)
        a_id = a_id.strip()
        if not a_id:
            raise ParseError("empty article id", line_no, raw)
        if k < 0:
            cat, area, status, iteration = _head(head, line_no, raw)
            k = head_at[head] = len(heads)
            heads.append((name(cat, cat), name(area, area), name(status, status), iteration))
        iteration = heads[k][3]
        try:
            total = int(votes_s.strip())
        except ValueError:
            total = None
        if iteration is None or total is None:
            raise ParseError("non-integer iteration or votes", line_no, raw)
        if not (0 <= iteration < 2**63 and 0 <= total < 2**63):
            raise ParseError("iteration and votes must be in [0, 2**63)", line_no, raw)
        if row + 1 < n and ids[row + 1] == a_id:
            row += 1
        else:
            found = bisect_left(ids, a_id)
            if found == n or ids[found] != a_id:
                if a_id in strangers:
                    raise ValidationError("duplicate article id", line_no, a_id)
                strangers.add(a_id)
                continue
            row = found
        if row_head[row] >= 0:
            raise ValidationError("duplicate article id", line_no, a_id)
        row_head[row] = k
        votes[row] = total
    if strangers:
        raise ValidationError(
            f"assignments name {len(strangers)} article(s) not in the corpus", token=min(strangers)
        )
    # Every head names some row, so the names that rows use are the heads'.
    # A row no line names (-1) reads each column's trailing entry. With a new
    # head on every line the head dict and list outweigh the text, so they
    # go before the columns are built.
    del head_at
    cats, areas, statuses, iterations = zip(*heads) if heads else ((),) * 4
    del heads
    categories, cat_code = _coded(cats)
    area_names, area_code = _coded(areas)
    status_code = [_STATUS_CODE[s] for s in statuses] + [_STATUS_CODE[STATUS_UNCLASSIFIED]]
    row_head = np.array(row_head, np.intp)
    return AssignmentTable(
        corpus,
        categories,
        _lookup(cat_code, row_head),
        area_names,
        _lookup(area_code, row_head),
        np.array(status_code, np.int8)[row_head],
        np.array([*iterations, 0], np.int64)[row_head],
        np.array(votes, np.int64),
    )


def _check_assignments(assignments: AssignmentTable, taxonomy: Taxonomy) -> None:
    """Raise :class:`ValidationError` for the first row whose category the
    taxonomy lacks or files under another broad area."""
    # Per row, the table's code of its category's taxonomy area; -1 without a
    # category, -2 (no row's) if the taxonomy or the table lacks the name.
    area_code = {area: code for code, area in enumerate(assignments.areas)}
    taxonomy_area = [
        area_code.get(taxonomy.broad_area_of(c), -2) if c in taxonomy else -2
        for c in assignments.categories
    ]
    expected = _lookup(taxonomy_area, assignments.category)
    wrong = np.flatnonzero((assignments.category >= 0) & (expected != assignments.area))
    if len(wrong) == 0:
        return
    row = wrong[0]
    a_id, cat = assignments.ids[row], assignments.categories[assignments.category[row]]
    if cat not in taxonomy:
        raise ValidationError(
            f"assignment of {a_id!r} names a category missing from the taxonomy", token=cat
        )
    filed_under = (assignments.areas + (None,))[assignments.area[row]]
    raise ValidationError(
        f"assignment of {a_id!r} files {cat!r} under {filed_under!r}; "
        f"the taxonomy says {taxonomy.broad_area_of(cat)!r}"
    )
