"""The README's library quick start runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)  # the block opens data/ relative to the repository root
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0
