"""Run one refclass CLI command in this process with spans around library calls.

    python3 perfbench/tracer.py SPANS.json <refclass arguments...>

The refclass package must be importable (run.py sets ``PYTHONPATH``). The
script wraps each traced function at the name its caller looks it up by,
calls ``refclass.cli.run_cli`` once, and writes the spans, the peak RSS after
each top-level span and a few counts read from the public return values to
SPANS.json. It exits with the command's own exit code.

A traced function that no longer exists is listed under ``absent`` instead
of failing the run, so the tracer survives refactors of the library.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
from time import perf_counter

# (module, attribute, span name). ``cli`` imports the stage functions by name,
# ``report`` imports the indicator functions by name, and ``indicators``
# reaches impact_factor, mean_impact_factor and composition through its own
# module globals; each entry patches one of those lookups.
TARGETS = (
    ("refclass.cli", "generate_synthetic", "synthetic.generate"),
    ("refclass.cli", "emit_corpus", "corpus.emit_corpus"),
    ("refclass.cli", "read_corpus", "corpus.read_corpus"),
    ("refclass.cli", "classify", "classifier.classify"),
    ("refclass.cli", "emit_assignments", "classifier.emit_assignments"),
    ("refclass.cli", "read_assignments", "classifier.read_assignments"),
    ("refclass.cli", "build_report_tables", "report.build_report_tables"),
    ("refclass.cli", "emit_report", "report.emit_report"),
    ("refclass.report", "render_tables", "report.render_tables"),
    ("refclass.report", "summary_row", "indicators.summary_row"),
    ("refclass.report", "composition", "indicators.composition"),
    ("refclass.report", "representation", "indicators.representation"),
    ("refclass.report", "mean_impact_factor", "indicators.mean_impact_factor"),
    ("refclass.report", "rank_journals", "indicators.rank_journals"),
    ("refclass.indicators", "impact_factor", "indicators.impact_factor"),
    ("refclass.indicators", "mean_impact_factor", "indicators.mean_impact_factor"),
    ("refclass.indicators", "composition", "indicators.composition"),
)
ROOT_SPAN = "cli.run_cli"
SEEDED_STATUS = "journal-seeded"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans ``[name, start, end, parent index]`` kept in memory until exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rss_mb: dict[str, float] = {}
        self.undefined = 0
        self.absent: list[str] = []
        self.returned: dict[str, object] = {}
        self._undefined_type: type | None = None

    def install(self) -> None:
        try:
            self._undefined_type = importlib.import_module("refclass.errors").UndefinedValueError
        except (ImportError, AttributeError):
            self.absent.append("refclass.errors.UndefinedValueError")
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._count_undefined(exc)
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            if parent == 0:
                self.rss_mb[name] = _maxrss_mb()

    def _count_undefined(self, exc: Exception) -> None:
        # An exception that propagates through nested wrappers is counted once.
        if self._undefined_type is not None and isinstance(exc, self._undefined_type):
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.undefined += 1

    def _wrap(self, fn, name: str):
        keep = name in ("corpus.read_corpus", "classifier.classify")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if keep:
                self.returned[name] = result
            return result

        return traced


def corpus_counts(corpus) -> dict[str, int]:
    articles = corpus.articles
    return {
        "corpus.articles": len(articles),
        "corpus.references": sum(len(a.references) for a in articles.values()),
        "corpus.dangling_references": int(corpus.dangling_reference_count),
    }


def classifier_counts(corpus, result) -> dict[str, int]:
    articles = corpus.articles
    open_ids = [a_id for a_id, a in result.assignments.items() if a.status != SEEDED_STATUS]
    in_corpus_refs = sum(
        sum(1 for ref in articles[a_id].references if ref in articles) for a_id in open_ids
    )
    return {
        "classifier.iterations": int(result.iterations_run),
        "classifier.open_articles": len(open_ids),
        "classifier.open_classified": sum(
            1 for a_id in open_ids if result.assignments[a_id].broad_area is not None
        ),
        "classifier.open_in_corpus_refs": in_corpus_refs,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <refclass arguments...>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    run_cli = importlib.import_module("refclass.cli").run_cli
    tracer.install()
    code = tracer.span(ROOT_SPAN, run_cli, cli_args)

    counts: dict[str, int] = {}
    corpus = tracer.returned.get("corpus.read_corpus")
    result = tracer.returned.get("classifier.classify")
    try:
        if corpus is not None:
            counts.update(corpus_counts(corpus))
        if corpus is not None and result is not None:
            counts.update(classifier_counts(corpus, result))
    except (AttributeError, KeyError, TypeError) as exc:
        tracer.absent.append(f"counts: {type(exc).__name__}: {exc}")

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "spans": tracer.spans,
                "rss_mb": tracer.rss_mb,
                "undefined_cells": tracer.undefined,
                "counts": counts,
                "absent": tracer.absent,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
