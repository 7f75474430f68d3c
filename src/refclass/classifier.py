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
that failed to resolve.

Kernel: seed labels are integer codes in sorted order, read per journal
and spread to the corpus rows through their journal codes. The edges come
from the corpus's CSR references of non-seeded articles, as two ``int32``
arrays (article index, referenced row) with dangling references dropped. A
single vote function runs one ``np.bincount`` over those edges to get each
article's tally row, total, maximum, leader count and first leader; every
iteration and the terminal pass call it. Tally
memory is O(non-seeded articles x seed labels). The kernel runs on one
thread, so the output cannot depend on a thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import Corpus
from .errors import ConfigError, ParseError, ValidationError
from .taxonomy import BROAD_AREA_SET, Taxonomy

STATUS_SEEDED = "journal-seeded"
STATUS_REFERENCE = "reference-classified"
STATUS_TIE_BROKEN = "tie-broken"
STATUS_UNCLASSIFIED = "unclassified"
STATUSES = (STATUS_SEEDED, STATUS_REFERENCE, STATUS_TIE_BROKEN, STATUS_UNCLASSIFIED)

TIE_UNTIL_STABLE = "unclassified-until-stable"
TIE_LEXICOGRAPHIC = "lexicographic"
TIE_POLICIES = (TIE_UNTIL_STABLE, TIE_LEXICOGRAPHIC)

MODE_CATEGORY = "category-level"
MODE_BROAD_AREA = "broad-area-level"
MODES = (MODE_CATEGORY, MODE_BROAD_AREA)


@dataclass(frozen=True)
class VoteTally:
    """Vote counts per label (category, or broad area in broad-area mode)."""

    counts: dict[str, int]
    total_votes: int


EMPTY_TALLY = VoteTally({}, 0)


@dataclass(frozen=True)
class ClassifierConfig:
    max_iterations: int = 10
    min_votes: int = 1
    tie_policy: str = TIE_UNTIL_STABLE
    mode: str = MODE_CATEGORY

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.min_votes < 1:
            raise ConfigError("min_votes must be >= 1")
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


@dataclass(frozen=True)
class ClassificationResult:
    assignments: dict[str, Assignment]
    iterations_run: int
    iteration_stats: tuple[IterationStats, ...]


def _seed_categories(corpus: Corpus, taxonomy: Taxonomy) -> list[str | None]:
    """Per journal code: the category its articles are seeded with, or None."""
    return [
        j.categories[0] if taxonomy.is_classifier_journal(j) else None
        for j in corpus.journals.values()
    ]


def seed_assignments(corpus: Corpus, taxonomy: Taxonomy) -> dict[str, Assignment]:
    """Iteration-0 table: classifier-journal articles seeded, everything else unclassified."""
    seeded = [
        None if cat is None else (cat, taxonomy.broad_area_of(cat))
        for cat in _seed_categories(corpus, taxonomy)
    ]
    table: dict[str, Assignment] = {}
    for art_id, code in zip(corpus.ids, corpus.journal_codes.tolist()):
        seed = seeded[code]
        if seed is None:
            table[art_id] = Assignment(art_id, None, None, STATUS_UNCLASSIFIED, 0, EMPTY_TALLY)
        else:
            table[art_id] = Assignment(art_id, *seed, STATUS_SEEDED, 0, EMPTY_TALLY)
    return table


def classify(
    corpus: Corpus,
    taxonomy: Taxonomy,
    config: ClassifierConfig | None = None,
    *,
    threads: int = 1,
) -> ClassificationResult:
    """Run the full iterative classification to its fixed point.

    One vote kernel serves every iteration and the terminal pass. ``threads``
    must be >= 1 but selects nothing: the kernel runs on one thread, so the
    result is the same for every value.
    """
    if config is None:
        config = ClassifierConfig()
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    seeds = seed_assignments(corpus, taxonomy)
    area_mode = config.mode == MODE_BROAD_AREA

    # Labels only come from seeds, so they are per journal. Their codes follow
    # sorted order, so argmax over a row picks the lexicographically smallest
    # leader.
    keys = [
        cat if cat is None or not area_mode else taxonomy.broad_area_of(cat)
        for cat in _seed_categories(corpus, taxonomy)
    ]
    names = sorted({k for k in keys if k is not None})
    code = {name: c for c, name in enumerate(names)}
    journal_label = np.array([code.get(k, -1) for k in keys], dtype=np.int32)
    label = journal_label[corpus.journal_codes]
    open_rows = np.flatnonzero(label < 0)
    open_ids = [corpus.ids[r] for r in open_rows.tolist()]
    n_open, width = len(open_ids), max(len(names), 1)

    # Edges (open article index, referenced row) from the CSR; dangling
    # references drop out.
    open_index = np.full(len(corpus.ids), -1, dtype=np.int32)
    open_index[open_rows] = np.arange(n_open, dtype=np.int32)
    src = open_index[corpus.citer_rows()]
    linked = (src >= 0) & (corpus.refs < len(corpus.ids))
    src, dst = src[linked], corpus.refs[linked]

    def votes(table: np.ndarray):
        """Per open article: tally row, total votes, leader count, first leader."""
        voted = table[dst]
        keep = voted >= 0
        flat = src[keep].astype(np.int64) * width + voted[keep]
        counts = np.bincount(flat, minlength=n_open * width).reshape(n_open, width)
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
    for iteration in range(1, config.max_iterations + 1):
        iterations_run = iteration
        counts, total, at_top, best = votes(label)
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

    # Terminal pass: every tally reads the final table; break remaining ties
    # and keep the final tally of every article still unlabeled.
    counts, total, at_top, best = votes(label)
    unlabeled = label[open_rows] < 0
    broken = unlabeled & (total >= config.min_votes) & (at_top > 1)
    label[open_rows[broken]] = best[broken]
    set_iteration[broken] = iterations_run
    via_tie[broken] = True
    snapshot[unlabeled] = counts[unlabeled]

    nz_row, nz_col = np.nonzero(snapshot)
    nz_count = snapshot[nz_row, nz_col].tolist()
    bounds = np.searchsorted(nz_row, np.arange(n_open + 1)).tolist()
    nz_col = nz_col.tolist()
    final = label[open_rows].tolist()
    set_iteration, via_tie = set_iteration.tolist(), via_tie.tolist()
    assignments = dict(seeds)
    for i, a_id in enumerate(open_ids):
        lo, hi = bounds[i], bounds[i + 1]
        tally_counts = {names[c]: n for c, n in zip(nz_col[lo:hi], nz_count[lo:hi])}
        tally = VoteTally(tally_counts, sum(tally_counts.values()))
        if final[i] < 0:
            assignments[a_id] = Assignment(a_id, None, None, STATUS_UNCLASSIFIED, 0, tally)
            continue
        value = names[final[i]]
        cat, area = (None, value) if area_mode else (value, taxonomy.broad_area_of(value))
        status = STATUS_TIE_BROKEN if via_tie[i] else STATUS_REFERENCE
        assignments[a_id] = Assignment(a_id, cat, area, status, set_iteration[i], tally)
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
    missing = [a_id for a_id in result.assignments if a_id not in truth.field_of]
    if missing:
        raise ValidationError(f"articles missing from ground truth: {missing[:5]}")
    total = len(result.assignments)
    classified = 0
    cat_seen = cat_right = 0
    area_seen = area_right = 0
    confusion: dict[tuple[str, str], int] = {}
    for a_id, a in result.assignments.items():
        if a.broad_area is None:
            continue
        classified += 1
        true_cat = truth.category_of(a_id)
        true_area = taxonomy.broad_area_of(true_cat)
        if a.category is not None:
            cat_seen += 1
            cat_right += a.category == true_cat
        area_seen += 1
        area_right += a.broad_area == true_area
        key = (true_area, a.broad_area)
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
    lines = []
    for a_id in sorted(result.assignments):
        a = result.assignments[a_id]
        votes = a.tally.total_votes if a.tally is not None else 0
        lines.append(
            f"{a_id}\t{a.category or ''}\t{a.broad_area or ''}\t{a.status}\t{a.iteration}\t{votes}"
        )
    return "\n".join(lines) + "\n"


def read_assignments(source: Iterable[str]) -> dict[str, Assignment]:
    """Parse an assignment TSV back into a table (tally details are not stored)."""
    table: dict[str, Assignment] = {}
    for line_no, raw in enumerate(source, start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ParseError(f"assignment row needs 6 columns, got {len(parts)}", line_no, raw)
        a_id, cat, area, status, iteration_s, votes_s = (p.strip() for p in parts)
        if not a_id:
            raise ParseError("empty article id", line_no, raw)
        if status not in STATUSES:
            raise ParseError("unknown status", line_no, status)
        if (area == "") != (status == STATUS_UNCLASSIFIED):
            raise ParseError("status/broad_area mismatch", line_no, raw)
        if cat and not area:
            raise ParseError("category without broad_area", line_no, raw)
        if area and area not in BROAD_AREA_SET:
            raise ParseError("unknown broad area", line_no, area)
        try:
            iteration = int(iteration_s)
            votes = int(votes_s)
        except ValueError:
            raise ParseError("non-integer iteration or votes", line_no, raw) from None
        if a_id in table:
            raise ValidationError("duplicate article id", line_no, a_id)
        table[a_id] = Assignment(
            a_id, cat or None, area or None, status, iteration, VoteTally({}, votes)
        )
    return table
