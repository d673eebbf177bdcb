"""The NaRb model has one definition: the bundled INI.

A golden test pins the CSV bytes the bundled defaults produce, so a
change to how the model is built cannot move a number unnoticed, and a
source scan checks that no module repeats a bundled measured value as a
literal.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import pytest

import magictrap
from magictrap.cli import main
from magictrap.config import load_config

GOLDEN = {
    "alpha-scan": (
        ["--override", "scan.points=201"],
        "35e38bf00cda6342b5e465629511c845c7d012bbfa28c0b483d4b0ff97046d76",
    ),
    "magic-find": (
        [],
        "844d1701567929394fb810429e6af5dc7a0fedc401e0002acb40d88d4df0e244",
    ),
    "solve-rovib": (
        ["--override", "grid.points=300", "--override", "scan.j_values=0,1",
         "--override", "scan.max_levels=3"],
        "77f1e98bc604e9f7cdbb6ea624190bce5bffbdd930ac836d3b3f428eeb007351",
    ),
}


@pytest.mark.parametrize("subcommand", sorted(GOLDEN))
def test_bundled_defaults_csv_is_golden(subcommand, tmp_path):
    overrides, digest = GOLDEN[subcommand]
    assert main([subcommand, "--out", str(tmp_path), *overrides]) == 0
    csv = tmp_path / f"{subcommand.replace('-', '_')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def _bundled_values() -> dict[str, float]:
    """Measured bundled values that only the INI may hold."""
    cfg = load_config()
    values = {
        f"molecule.{key}": value
        for key, value in cfg.sections["molecule"].items()
        if isinstance(value, float) and key not in ("spin_na", "spin_rb")
    }
    for key in ("b_field_gauss", "intensity_w_cm2"):
        values[f"fields.{key}"] = cfg.get("fields", key)
    return values


def _numeric_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
                and isinstance(node.value, (int, float))):
            yield node.lineno, abs(node.value)


def test_no_module_repeats_a_bundled_value():
    values = _bundled_values()
    assert len(values) == 15
    repeats = [
        f"{path.name}:{lineno} repeats {key} = {value!r}"
        for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
        for lineno, literal in _numeric_literals(path)
        for key, value in values.items()
        if literal == abs(value)
    ]
    assert not repeats, "\n".join(repeats)
