"""Line-by-line reference reader of assignment files.

The oracle for ``refclass.classifier.read_assignments``: each line is split
into its six columns, stripped and checked in full, with no cache of any
kind, and its id is looked up through ``corpus.row_of``. It returns the same
:class:`AssignmentTable` or raises the same first fault.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from refclass.classifier import _STATUS_CODE, STATUS_UNCLASSIFIED, AssignmentTable, _coded
from refclass.corpus import Corpus
from refclass.errors import ParseError, ValidationError
from refclass.taxonomy import BROAD_AREA_SET


def naive_read_assignments(source: Iterable[str], corpus: Corpus) -> AssignmentTable:
    """The assignment table of ``source`` over ``corpus``, one line at a time."""
    ids = corpus.ids
    n = len(ids)
    # A status stays "" until a line names the row.
    cats, areas, statuses, iterations, votes = [""] * n, [""] * n, [""] * n, [0] * n, [0] * n
    name = {}.setdefault  # one object per distinct category, area and status
    row_of = corpus.row_of.get
    row = -1
    strangers: set[str] = set()
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
        found = row + 1 if row + 1 < n and ids[row + 1] == a_id else row_of(a_id)
        if (a_id in strangers) if found is None else statuses[found]:
            raise ValidationError("duplicate article id", line_no, a_id)
        if found is None:
            strangers.add(a_id)
            continue
        row = found
        cats[row] = name(cat, cat)
        areas[row] = name(area, area)
        statuses[row] = name(status, status)
        iterations[row] = iteration
        votes[row] = total
    if strangers:
        raise ValidationError(
            f"assignments name {len(strangers)} article(s) not in the corpus", token=min(strangers)
        )
    code = {"": _STATUS_CODE[STATUS_UNCLASSIFIED], **_STATUS_CODE}.__getitem__
    status = np.fromiter(map(code, statuses), np.int8, count=n)
    iteration, total_votes = np.array(iterations, np.int64), np.array(votes, np.int64)
    # _coded gives (names, codes), the order the table takes them in.
    return AssignmentTable(corpus, *_coded(cats), *_coded(areas), status, iteration, total_votes)
