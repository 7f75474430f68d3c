"""Subject-category taxonomy: categories, broad areas, classifier-journal test.

The taxonomy file format is TSV with three fixed columns::

    category<TAB>broad_area<TAB>flags

where ``flags`` is empty or the literal ``multidisciplinary``. Lines starting
with ``#`` are comments; blank lines are skipped. Category names are opaque
canonical strings compared byte-wise; only surrounding whitespace is trimmed.
A name holds no tab, ``\n`` or ``\r``, no surrounding whitespace and no
leading ``#``, so load -> emit -> load is the identity, also through a file
read with universal newlines; :class:`Taxonomy` enforces this on every
category, as it does a ``bool`` multidisciplinary flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .corpus import JournalRecord, _check_str, _check_token
from .errors import ParseError, UnknownNameError, ValidationError

#: The 14 canonical broad-area names, in canonical order.
BROAD_AREAS: tuple[str, ...] = (
    "Bioscience",
    "Medicine",
    "Geosciences",
    "Physics",
    "Astronomy",
    "Chemistry",
    "Psychology",
    "Social sciences",
    "Engineering",
    "Mathematics",
    "Computer science",
    "Humanities",
    "Agriculture",
    "Professional fields",
)

BROAD_AREA_SET = frozenset(BROAD_AREAS)

MULTIDISCIPLINARY_FLAG = "multidisciplinary"


@dataclass(frozen=True)
class SubjectCategory:
    """A fine-grained subject category mapped into one broad area."""

    name: str
    broad_area: str
    multidisciplinary: bool = False


class Taxonomy:
    """Immutable mapping from category name to :class:`SubjectCategory`.

    Assignment targets are the non-multidisciplinary categories; only those
    may ever be assigned to an article. The taxonomy is validated on
    construction and never mutated afterwards, so concurrent reads are safe.
    """

    def __init__(self, categories: Iterable[SubjectCategory]):
        cats: dict[str, SubjectCategory] = {}
        for cat in categories:
            _check_token(cat.name, "category name", "\t\n\r")
            # The file reader skips "#" lines.
            if cat.name.startswith("#"):
                raise ValidationError("category name has a leading '#'", token=cat.name)
            if not isinstance(cat.multidisciplinary, bool):
                raise ValidationError(
                    f"multidisciplinary flag of category {cat.name!r} must be a bool, "
                    f"got {cat.multidisciplinary!r}"
                )
            _check_str(cat.broad_area, f"broad area of category {cat.name!r}")
            if cat.broad_area not in BROAD_AREA_SET:
                raise ValidationError(
                    f"unknown broad area for category {cat.name!r}", token=cat.broad_area
                )
            if cat.name in cats:
                raise ValidationError("duplicate category", token=cat.name)
            cats[cat.name] = cat
        if not cats:
            raise ValidationError("taxonomy has no categories")
        if len({c.broad_area for c in cats.values()}) < 2:
            raise ValidationError("degenerate taxonomy: fewer than 2 broad areas in use")
        self._categories: Mapping[str, SubjectCategory] = MappingProxyType(
            dict(sorted(cats.items()))
        )
        self._targets = frozenset(n for n, c in cats.items() if not c.multidisciplinary)

    @property
    def categories(self) -> Mapping[str, SubjectCategory]:
        return self._categories

    @property
    def assignment_targets(self) -> frozenset[str]:
        """Category names that classification may assign (non-multidisciplinary)."""
        return self._targets

    @property
    def areas_in_use(self) -> tuple[str, ...]:
        return tuple(sorted({c.broad_area for c in self._categories.values()}))

    def __contains__(self, name: str) -> bool:
        return name in self._categories

    def __len__(self) -> int:
        return len(self._categories)

    def category(self, name: str) -> SubjectCategory:
        try:
            return self._categories[name]
        except KeyError:
            raise UnknownNameError(f"unknown category: {name!r}") from None

    def broad_area_of(self, name: str) -> str:
        """Return the unique broad area of ``name``; total over loaded categories."""
        return self.category(name).broad_area

    def is_multidisciplinary(self, name: str) -> bool:
        return self.category(name).multidisciplinary

    def is_classifier_journal(self, journal: JournalRecord) -> bool:
        """True iff the journal has exactly one category and it is not multidisciplinary.

        Articles in such journals carry a trustworthy, journal-level subject
        label and seed the classification.
        """
        categories = journal.categories
        return len(categories) == 1 and not self.is_multidisciplinary(categories[0])

    def check_journals(self, journals: Iterable[JournalRecord]) -> None:
        """Raise :class:`ValidationError` listing every ``journal:category``
        pair, sorted, whose category is not in the taxonomy."""
        bad = sorted(f"{j.id}:{name}" for j in journals for name in j.categories if name not in self)
        if bad:
            raise ValidationError("journals reference unknown categories: " + ", ".join(bad))


def load_taxonomy(source: Iterable[str]) -> Taxonomy:
    """Parse a taxonomy from an iterable of text lines (e.g. an open file).

    Raises :class:`ParseError` for malformed lines and
    :class:`ValidationError` for unknown broad areas, duplicates, or
    degenerate taxonomies.
    """
    cats: list[SubjectCategory] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated columns, got {len(parts)}", line_no, line
            )
        name, area, flags = (p.strip() for p in parts)
        if not name:
            raise ParseError("empty category name", line_no, line)
        if name.startswith("#"):
            raise ValidationError("category name has a leading '#'", line_no, name)
        if area not in BROAD_AREA_SET:
            raise ValidationError("unknown broad-area name", line_no, area)
        if flags not in ("", MULTIDISCIPLINARY_FLAG):
            raise ParseError("unknown flag", line_no, flags)
        if name in seen:
            raise ValidationError("duplicate category", line_no, name)
        seen.add(name)
        cats.append(SubjectCategory(name, area, flags == MULTIDISCIPLINARY_FLAG))
    return Taxonomy(cats)


def emit_taxonomy(taxonomy: Taxonomy) -> str:
    """Render the canonical taxonomy file: rows sorted by category name, LF endings."""
    lines = []
    for name in sorted(taxonomy.categories):
        cat = taxonomy.categories[name]
        flag = MULTIDISCIPLINARY_FLAG if cat.multidisciplinary else ""
        lines.append(f"{name}\t{cat.broad_area}\t{flag}")
    return "\n".join(lines) + "\n"
