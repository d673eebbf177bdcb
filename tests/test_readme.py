"""The README's library tour runs as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    """The first ```python block under the ``## Library tour`` heading,
    preceded by blank lines so a traceback gives README line numbers."""
    text = README.read_text(encoding="utf-8")
    fence = "```python\n"
    start = text.index(fence, text.index("\n## Library tour\n")) + len(fence)
    return "\n" * text.count("\n", 0, start) + text[start:text.index("```", start)]


def test_library_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_tour(), str(README), "exec"), {"__name__": "readme_tour"})
    lines = (tmp_path / "levels.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "v,energy_cm1"
    assert len(lines) == 4
