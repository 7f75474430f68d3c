"""Reference-based subject classification of bibliographic corpora and
field-resolved journal impact indicators.

The package is organized as a small pipeline: :mod:`refclass.taxonomy` and
:mod:`refclass.corpus` define the inputs, :mod:`refclass.classifier` assigns
every article a unique subject category by iterating over reference tallies,
:mod:`refclass.indicators` counts the assignments into one
:class:`~refclass.indicators.CountCube` (:func:`count_cube`), whose methods
give impact, composition, representation and ranking measures, and
:mod:`refclass.report` / :mod:`refclass.cli` emit deterministic TSV tables.
"""

from .classifier import (
    Assignment,
    ClassificationResult,
    ClassifierConfig,
    VoteTally,
    classify,
    evaluate_accuracy,
    seed_assignments,
)
from .corpus import (
    ArticleRecord,
    Corpus,
    JournalRecord,
    ValidationReport,
    build_corpus,
    read_corpus,
    read_corpus_file,
    validate_corpus,
)
from .errors import RefclassError
from .indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    CountCube,
    IndicatorConfig,
    count_cube,
    prestige,
)
from .synthetic import GroundTruth, SyntheticConfig, generate_synthetic
from .taxonomy import BROAD_AREAS, SubjectCategory, Taxonomy, load_taxonomy

__version__ = "0.1.0"

__all__ = [
    "ALL_AREAS",
    "ALL_SOURCES",
    "ArticleRecord",
    "Assignment",
    "BROAD_AREAS",
    "ClassificationResult",
    "ClassifierConfig",
    "Corpus",
    "CountCube",
    "GroundTruth",
    "IndicatorConfig",
    "JournalRecord",
    "RefclassError",
    "SubjectCategory",
    "SyntheticConfig",
    "Taxonomy",
    "ValidationReport",
    "VoteTally",
    "build_corpus",
    "classify",
    "count_cube",
    "evaluate_accuracy",
    "generate_synthetic",
    "load_taxonomy",
    "prestige",
    "read_corpus",
    "read_corpus_file",
    "seed_assignments",
    "validate_corpus",
]
