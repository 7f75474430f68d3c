#!/usr/bin/env python3
"""Stage-resolved benchmark of the refclass command-line pipeline.

    python3 perfbench/run.py --workload seeded --seed 20250810 --seconds 12 --trace 0

Each run generates its corpus with ``refclass synth`` from the seed, then runs
``refclass classify`` and ``refclass indicators`` as fresh child processes,
one at a time, the way a user runs them. Every output is checked. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit.

``--trace 0`` times the untraced pipeline and reports the end-to-end
metrics. ``--trace 1`` runs the pipeline once untraced and once under
``tracer.py`` and reports the per-layer metrics. Workload definitions and
the output digests recorded for the default seed are in ``workloads.json``;
``README.md`` maps each layer metric to the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
RUN_LIMIT_S = 165.0
MAX_BROAD_AREA_ERROR = 0.01
# What the installed ``refclass`` console script runs.
CLI = [sys.executable, "-c", "from refclass.cli import main; main()"]
SYNTH_FILES = ("corpus.tsv", "taxonomy.tsv", "truth.tsv")
ASSIGNMENTS = "assignments.tsv"
REPORT_FILES = (
    "composition.tsv",
    "field_if.tsv",
    "manifest.tsv",
    "prestige.tsv",
    "ranking.tsv",
    "representation.tsv",
    "summary.tsv",
)

END_TO_END = {
    "pipeline_s": "s",
    "articles_per_s": "articles/s",
    "classify_s": "s",
    "indicators_s": "s",
    "setup_s": "s",
    "classify_peak_rss_mb": "MB",
    "indicators_peak_rss_mb": "MB",
}

# Span names recorded by tracer.py. Times are summed over the commands of
# one pipeline (read_corpus runs in both classify and indicators); RSS is
# the child's ru_maxrss right after the top-level span, largest over commands.
TIMED_SPANS = (
    "synthetic.generate",
    "corpus.emit_corpus",
    "corpus.read_corpus",
    "classifier.classify",
    "classifier.emit_assignments",
    "classifier.read_assignments",
    "report.build_report_tables",
    "report.render_tables",
    "report.emit_report",
    "indicators.summary_row",
    "indicators.composition",
    "indicators.representation",
    "indicators.rank_journals",
    "indicators.mean_impact_factor",
    "indicators.impact_factor",
)
SELF_SPANS = (
    "cli.run_cli",
    "report.build_report_tables",
    "report.emit_report",
    "indicators.summary_row",
    "indicators.composition",
    "indicators.representation",
    "indicators.rank_journals",
    "indicators.mean_impact_factor",
)
CALL_SPANS = ("indicators.impact_factor", "indicators.mean_impact_factor")
RSS_SPANS = (
    "synthetic.generate",
    "corpus.emit_corpus",
    "corpus.read_corpus",
    "classifier.classify",
    "classifier.emit_assignments",
    "classifier.read_assignments",
    "report.build_report_tables",
    "report.emit_report",
)
COMMANDS = ("synth", "classify", "indicators")

PER_LAYER = {
    "cli.import_s": "s",
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{f"{name}_self_s": "s" for name in SELF_SPANS},
    **{f"{name}_calls": "count" for name in CALL_SPANS},
    **{f"{name}_rss_mb": "MB" for name in RSS_SPANS},
    "corpus.articles": "count",
    "corpus.references": "count",
    "corpus.dangling_references": "count",
    "classifier.iterations": "count",
    "classifier.open_articles": "count",
    "classifier.refs_scanned": "count",
    "classifier.s_per_sweep": "s",
    "classifier.classified_frac": "fraction",
    "indicators.undefined_cells": "count",
    "report.bytes_written": "bytes",
    "tracing.overhead_s": "s",
    **{f"tracing.{cmd}_unaccounted_s": "s" for cmd in COMMANDS},
    "error_rate": "fraction",
}


class RunFailed(Exception):
    """A command failed; the run stops and reports ``correct: false``."""


class Child(NamedTuple):
    wall_s: float
    rss_mb: float


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def broad_area_error(truth: Path, assignments: Path) -> float | None:
    """Error over classified articles, as ``evaluate_accuracy`` defines it.

    Returns None when nothing is classified or an assigned article is
    missing from the planted truth.
    """
    area_of = {}
    with truth.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                a_id, _field, _category, area = line.rstrip("\n").split("\t")
                area_of[a_id] = area
    seen = wrong = 0
    with assignments.open(encoding="utf-8") as fh:
        for line in fh:
            a_id, _category, area = line.split("\t", 3)[:3]
            if a_id not in area_of:
                return None
            if area:
                seen += 1
                wrong += area != area_of[a_id]
    return wrong / seen if seen else None


def corpus_shape(path: Path) -> tuple[int, list[str]]:
    """Article count and journal ids of an emitted corpus file."""
    articles = 0
    journals = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("A\t"):
                articles += 1
            elif line.startswith("J\t"):
                journals.append(line.split("\t", 2)[1])
    return articles, journals


class BenchRun:
    """Operations and checks of one run, and the output digests of this checkout.

    Every command and every output check counts as one attempted operation.
    Digests are kept in ``.perfbench_work`` so that outputs are compared
    across all runs made from one checkout, not only within a run.
    """

    def __init__(self, name: str, seed: int, key: str, expected: dict[str, str], deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out_dir = self.work / "report"
        self._store = WORK / "digests.json"
        self._stored = json.loads(self._store.read_text()) if self._store.is_file() else {}
        self._seen = self._stored.setdefault(key, {})
        self._expected = expected
        self.env = dict(os.environ)
        self.env.pop("REFCLASS_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def path(self, name: str) -> Path:
        return self.work / name

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def spawn(self, label: str, argv: list[str]) -> Child:
        """Run one child to completion; wall time and peak RSS from ``os.wait4``."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            self.check(f"{label}: start", False, f"the {RUN_LIMIT_S:.0f} s run limit is used up")
            raise RunFailed(label)
        err_path = self.path(f"{label}.stderr")
        with open(self.path(f"{label}.stdout"), "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        ok = self.check(f"{label}: exit code 0", proc.returncode == 0, f"exit {proc.returncode}")
        ok = self.check(f"{label}: empty stderr", not stderr, stderr.strip()[:500]) and ok
        if not ok:
            raise RunFailed(label)
        return Child(wall, usage.ru_maxrss / 1024.0)

    def check_files(self, label: str, files: dict[str, Path]) -> None:
        for name, path in files.items():
            digest = sha256(path)
            first = self._seen.setdefault(name, digest)
            self.check(f"{label}: {name} identical across runs", digest == first, f"{digest} != {first}")
            if self._expected:
                self.check(
                    f"{label}: {name} matches the recorded digest",
                    self._expected.get(name) == digest,
                    f"got {digest}",
                )

    def save_digests(self) -> None:
        self._store.write_text(json.dumps(self._stored, indent=1, sort_keys=True))


class Pipeline:
    """The three CLI commands of one workload, with their output checks."""

    def __init__(self, bench: BenchRun, spec: dict, synth: dict):
        self.s = bench
        self.spec = spec
        bench.path("synth.json").write_text(json.dumps(synth))
        self.journals: list[str] = []
        self.articles = 0

    def synth(self, label: str, prefix: list[str]) -> Child:
        s = self.s
        child = s.spawn(label, prefix + [
            "synth",
            "--config", str(s.path("synth.json")),
            "--seed", str(s.seed),
            "--out-corpus", str(s.path("corpus.tsv")),
            "--out-truth", str(s.path("truth.tsv")),
            "--out-taxonomy", str(s.path("taxonomy.tsv")),
        ])
        s.check_files(label, {name: s.path(name) for name in SYNTH_FILES})
        self.articles, all_journals = corpus_shape(s.path("corpus.tsv"))
        wanted = self.spec["journals"]
        self.journals = all_journals if wanted == "all" else list(wanted)
        return child

    def classify(self, label: str, prefix: list[str]) -> Child:
        s = self.s
        child = s.spawn(label, prefix + [
            "classify",
            "--corpus", str(s.path("corpus.tsv")),
            "--taxonomy", str(s.path("taxonomy.tsv")),
            "--out", str(s.path(ASSIGNMENTS)),
        ])
        s.check_files(label, {ASSIGNMENTS: s.path(ASSIGNMENTS)})
        error = broad_area_error(s.path("truth.tsv"), s.path(ASSIGNMENTS))
        s.check(
            f"{label}: broad-area error <= {MAX_BROAD_AREA_ERROR}",
            error is not None and error <= MAX_BROAD_AREA_ERROR,
            f"error {error}",
        )
        return child

    def indicators(self, label: str, prefix: list[str]) -> Child:
        s = self.s
        shutil.rmtree(s.out_dir, ignore_errors=True)
        child = s.spawn(label, prefix + [
            "indicators",
            "--corpus", str(s.path("corpus.tsv")),
            "--taxonomy", str(s.path("taxonomy.tsv")),
            "--assignments", str(s.path(ASSIGNMENTS)),
            *WORKLOADS["indicator_args"],
            "--journals", ",".join(self.journals),
            "--out-dir", str(s.out_dir),
        ])
        present = tuple(sorted(p.name for p in s.out_dir.iterdir()))
        s.check(f"{label}: report directory holds the tables", present == REPORT_FILES, str(present))
        s.check_files(label, {name: s.out_dir / name for name in REPORT_FILES if name in present})
        return child


def repeat(bench: BenchRun, measure, seconds: float) -> list[Child]:
    """Call ``measure(n)`` for n = 1, 2, ... until ``seconds`` have passed (at least once)."""
    samples: list[Child] = []
    start = perf_counter()
    while True:
        sample_start = perf_counter()
        samples.append(measure(len(samples) + 1))
        now = perf_counter()
        if now - start >= seconds or bench.deadline - now < 1.5 * (now - sample_start):
            return samples


def timed_run(bench: BenchRun, pipe: Pipeline, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over the set-ups and the children of one run.

    Half of ``seconds`` goes to repeated classify children, then half to
    repeated indicators children on the (byte-identical) assignments, so the
    shorter command gets more samples; ``pipeline_s`` adds the two medians.
    """
    setups = [pipe.synth(f"synth-{k}", CLI).wall_s for k in range(1, SETUP_REPEATS + 1)]
    classify = repeat(bench, lambda n: pipe.classify(f"classify-{n}", CLI), seconds / 2)
    indicators = repeat(bench, lambda n: pipe.indicators(f"indicators-{n}", CLI), seconds / 2)
    classify_s = statistics.median(c.wall_s for c in classify)
    indicators_s = statistics.median(i.wall_s for i in indicators)
    return {
        "pipeline_s": classify_s + indicators_s,
        "articles_per_s": pipe.articles / (classify_s + indicators_s),
        "classify_s": classify_s,
        "indicators_s": indicators_s,
        "setup_s": statistics.median(setups),
        "classify_peak_rss_mb": statistics.median(c.rss_mb for c in classify),
        "indicators_peak_rss_mb": statistics.median(i.rss_mb for i in indicators),
    }


def span_summary(traces: dict[str, dict]):
    """Total time, self time and call count per span name, summed over commands."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    roots: dict[str, float] = {}
    for cmd, trace in traces.items():
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        for k, (name, start, end, parent) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered[k])
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                roots[cmd] = end - start
    return total, self_time, calls, roots


def traced_run(bench: BenchRun, pipe: Pipeline) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one untraced and one traced pipeline; returns (metrics, absent)."""
    tracer = [sys.executable, str(HERE / "tracer.py")]
    untraced = {
        "synth": pipe.synth("synth", CLI),
        "classify": pipe.classify("classify", CLI),
        "indicators": pipe.indicators("indicators", CLI),
    }
    traced = {}
    traces = {}
    for cmd in COMMANDS:
        spans_path = bench.path(f"{cmd}.spans.json")
        traced[cmd] = getattr(pipe, cmd)(f"traced-{cmd}", tracer + [str(spans_path)])
        traces[cmd] = json.loads(spans_path.read_text())
    import_s = statistics.median(
        bench.spawn(f"import-{k}", [sys.executable, "-c", "import refclass.cli"]).wall_s
        for k in range(1, IMPORT_REPEATS + 1)
    )

    total, self_time, calls, roots = span_summary(traces)
    counts: dict[str, int] = {}
    rss: dict[str, float] = {}
    absent = {name for trace in traces.values() for name in trace["absent"]}
    for trace in traces.values():
        counts.update(trace["counts"])
        for name, mb in trace["rss_mb"].items():
            rss[name] = max(mb, rss.get(name, 0.0))
    absent.update(name for name in TIMED_SPANS + SELF_SPANS if name not in total)
    absent.update(
        name
        for name in ("corpus.articles", "classifier.iterations", "classifier.open_articles")
        if name not in counts
    )

    m: dict[str, float] = {"cli.import_s": import_s}
    m.update({f"{name}_s": total.get(name, 0.0) for name in TIMED_SPANS})
    m.update({f"{name}_self_s": self_time.get(name, 0.0) for name in SELF_SPANS})
    m.update({f"{name}_calls": calls.get(name, 0) for name in CALL_SPANS})
    m.update({f"{name}_rss_mb": rss.get(name, 0.0) for name in RSS_SPANS})
    for name in ("corpus.articles", "corpus.references", "corpus.dangling_references",
                 "classifier.iterations", "classifier.open_articles"):
        m[name] = counts.get(name, 0)
    sweeps = counts.get("classifier.iterations", 0) + 1
    open_articles = counts.get("classifier.open_articles", 0)
    m["classifier.refs_scanned"] = counts.get("classifier.open_in_corpus_refs", 0) * sweeps
    m["classifier.s_per_sweep"] = m["classifier.classify_s"] / sweeps
    m["classifier.classified_frac"] = (
        counts.get("classifier.open_classified", 0) / open_articles if open_articles else 0.0
    )
    m["indicators.undefined_cells"] = sum(t["undefined_cells"] for t in traces.values())
    m["report.bytes_written"] = sum(p.stat().st_size for p in bench.out_dir.iterdir())
    m["tracing.overhead_s"] = (
        traced["classify"].wall_s + traced["indicators"].wall_s
        - untraced["classify"].wall_s - untraced["indicators"].wall_s
    )
    # The self times along a command's span tree add up to its root span, so
    # this is what import plus the traced spans leave of the untraced child.
    for cmd in COMMANDS:
        m[f"tracing.{cmd}_unaccounted_s"] = untraced[cmd].wall_s - import_s - roots.get(cmd, 0.0)
    return m, sorted(absent)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["workloads"]))
    parser.add_argument("--seed", type=int, default=WORKLOADS["default_seed"])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the corpus for the self-check; recorded digests are not compared",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "refclass" / "cli.py").is_file():
        print(f"error: refclass sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS["workloads"][args.workload]
    synth = dict(spec["synth"])
    if args.tiny:
        synth["articles_per_journal_year"] = WORKLOADS["tiny_articles_per_journal_year"]
    # Outputs are compared across runs only when every input of the run matches.
    inputs = json.dumps([synth, spec["journals"], WORKLOADS["indicator_args"]], sort_keys=True)
    fingerprint = hashlib.sha256(inputs.encode()).hexdigest()[:16]
    recorded = args.seed == WORKLOADS["default_seed"] and not args.tiny
    bench = BenchRun(
        name=f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}",
        seed=args.seed,
        key=f"{args.workload}/{args.seed}/{fingerprint}",
        expected=spec["digests"] if recorded else {},
        deadline=perf_counter() + RUN_LIMIT_S,
    )
    pipe = Pipeline(bench, spec, synth)
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics: dict[str, float] = {}
    absent: list[str] = []
    try:
        if args.trace:
            metrics, absent = traced_run(bench, pipe)
        else:
            metrics = timed_run(bench, pipe, args.seconds)
    except RunFailed:
        pass
    finally:
        bench.save_digests()
        shutil.rmtree(bench.work, ignore_errors=True)
    metrics["error_rate"] = bench.failed / bench.attempted
    correct = bench.failed == 0
    for name in absent:
        print(f"absent {name}")
    for name, value in metrics.items():
        unit = PER_LAYER.get(name) or END_TO_END[name]
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in catalogue.items()
            if name in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
