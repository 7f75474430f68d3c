"""Reference-based subject classification of bibliographic corpora and
field-resolved journal impact indicators.

The package is organized as a small pipeline: :mod:`refclass.taxonomy` and
:mod:`refclass.corpus` define the inputs, :mod:`refclass.classifier` assigns
every article a unique subject category by iterating over reference tallies,
:mod:`refclass.indicators` computes impact, prestige, composition,
representation, and ranking measures on top of the assignments, and
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
    validate_corpus,
)
from .errors import RefclassError
from .indicators import (
    ALL_AREAS,
    ALL_SOURCES,
    IndicatorConfig,
    composition,
    impact_factor,
    mean_impact_factor,
    prestige,
    rank_journals,
    representation,
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
    "composition",
    "evaluate_accuracy",
    "generate_synthetic",
    "impact_factor",
    "load_taxonomy",
    "mean_impact_factor",
    "prestige",
    "rank_journals",
    "read_corpus",
    "representation",
    "seed_assignments",
    "validate_corpus",
]
