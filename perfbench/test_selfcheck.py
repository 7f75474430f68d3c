"""Self-check of the benchmark harness at a tiny synthetic size.

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs every workload once with tracing off and once with tracing on, using
``run.py --tiny``, and checks that every metric named in ``BENCHMARK.json``
is reported with its unit and that every output check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS["workloads"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS["workloads"]))
def test_tiny_run_reports_every_metric_and_passes_every_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert not any(line.startswith("absent ") for line in lines)
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
        assert result["metrics"]["indicators.impact_factor_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "seeded", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_traced_functions_are_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(tracer, "TARGETS", (
        ("refclass.classifier", "no_such_function", "classifier.gone"),
        ("refclass.no_such_module", "f", "gone.f"),
    ))
    t = tracer.Tracer()
    t.install()
    assert "refclass.classifier.no_such_function" in t.absent
    assert "refclass.no_such_module.f" in t.absent


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.run_cli", 0.0, 10.0, None],
        ["corpus.read_corpus", 1.0, 4.0, 0],
        ["report.build_report_tables", 4.0, 9.0, 0],
        ["indicators.impact_factor", 5.0, 7.0, 2],
    ]
    total, self_time, calls, roots = run.span_summary({"indicators": {"spans": spans}})
    assert roots == {"indicators": 10.0}
    assert self_time["cli.run_cli"] == 2.0
    assert self_time["report.build_report_tables"] == 3.0
    assert total["indicators.impact_factor"] == 2.0
    assert sum(self_time.values()) == roots["indicators"]
    assert calls["indicators.impact_factor"] == 1
