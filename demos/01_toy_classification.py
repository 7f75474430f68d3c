"""Walk the classification pipeline on the toy corpus, step by step.

Usage: python3 demos/01_toy_classification.py
"""

from pathlib import Path

from refclass import classify, load_taxonomy, read_corpus, seed_assignments
from refclass.corpus import validate_corpus

DATA = Path(__file__).resolve().parent.parent / "data"

# ---------------------------------------------------------------------------
# Load the taxonomy and the corpus.
#
# The taxonomy maps each fine-grained subject category to one of 14 broad
# areas; categories flagged "multidisciplinary" exist but are never assigned
# to articles.
# ---------------------------------------------------------------------------
with open(DATA / "taxonomy_small.tsv", encoding="utf-8") as fh:
    taxonomy = load_taxonomy(fh)
with open(DATA / "corpus_toy.tsv", encoding="utf-8") as fh:
    corpus = read_corpus(fh)

report = validate_corpus(corpus)
print(f"corpus: {report.articles} articles in {report.journals} journals")
print(f"doc types: {report.doc_type_counts}")
print(f"dangling references: {report.dangling_references}")
print()

# ---------------------------------------------------------------------------
# Iteration 0: seeding.
#
# Articles published in journals with exactly one non-multidisciplinary
# category inherit that category. Everything published in the general
# journal JG starts unclassified.
# ---------------------------------------------------------------------------
seeds = seed_assignments(corpus, taxonomy)
for a_id in sorted(seeds):
    a = seeds[a_id]
    print(f"  seed {a_id}: {a.status:16s} {a.category or '-'}")
print()

# ---------------------------------------------------------------------------
# The full run iterates to a fixed point with synchronous updates, then
# breaks any remaining ties lexicographically. Each labeled reference casts
# one vote for its category; G1 cites two seeded astronomy articles, so the
# tally behind its label is unambiguous.
# ---------------------------------------------------------------------------
result = classify(corpus, taxonomy)
g1 = result.assignments["G1"]
print(f"votes for G1 at iteration {g1.iteration}: {g1.tally.counts} (total {g1.tally.total_votes})")
print()
print(f"converged after {result.iterations_run} iterations")
for s in result.iteration_stats:
    print(f"  iteration {s.iteration}: {s.newly_classified} newly classified, {s.changed} changed")
print()
print(f"{'article':8s} {'category':34s} {'area':14s} {'status':22s} iter votes")
for a_id in sorted(result.assignments):
    a = result.assignments[a_id]
    print(
        f"{a_id:8s} {a.category or '-':34s} {a.broad_area or '-':14s} "
        f"{a.status:22s} {a.iteration:4d} {a.tally.total_votes:5d}"
    )
