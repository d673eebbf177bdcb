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

# case -> (argv: subcommand and overrides, SHA-256 of the CSV it writes)
GOLDEN = {
    "alpha-scan": (
        ["alpha-scan", "--override", "scan.points=201"],
        "35e38bf00cda6342b5e465629511c845c7d012bbfa28c0b483d4b0ff97046d76",
    ),
    "hyperfine-scan": (
        ["hyperfine-scan", "--override", "scan.points=16"],
        "20966d4eabe61e0f9d18556c2d42e088b5feb15becda13def117ec3a269e59fa",
    ),
    "hyperfine-scan-stark": (
        ["hyperfine-scan", "--override", "fields.e_field_kv_cm=0.5",
         "--override", "fields.e_theta_deg=20", "--override", "scan.points=32"],
        "4d4506f9c1f8ea903144d12088bec9f03edad0b552e0af8e98b2ed088d022381",
    ),
    "imag-scan": (
        ["imag-scan", "--override", "grid.points=300", "--override", "scan.j_values=0,1",
         "--override", "scan.max_levels=3", "--override", "scan.points=64"],
        "9c55d0a022dca6c0a68ef2840dbca612b72698932d275b67a4a61659ae5d9944",
    ),
    "magic-find": (
        ["magic-find"],
        "844d1701567929394fb810429e6af5dc7a0fedc401e0002acb40d88d4df0e244",
    ),
    "magic-find-angle": (
        ["magic-find", "--override", "magic.kind=angle", "--override", "magic.method=eigen",
         "--override", "fields.e_field_kv_cm=0.5",
         "--override", "magic.j_a=1", "--override", "magic.rank_a=0",
         "--override", "magic.j_b=0", "--override", "magic.rank_b=0"],
        "e2dcac94a246a7baa0158a298b6c6220c02bbf349ea7db21fe3ed40a8352cdb9",
    ),
    "solve-rovib": (
        ["solve-rovib", "--override", "grid.points=300", "--override", "scan.j_values=0,1",
         "--override", "scan.max_levels=3"],
        "77f1e98bc604e9f7cdbb6ea624190bce5bffbdd930ac836d3b3f428eeb007351",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bundled_defaults_csv_is_golden(case, tmp_path):
    argv, digest = GOLDEN[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    csv = tmp_path / f"{argv[0].replace('-', '_')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def _bundled_values() -> dict[str, float]:
    """Measured bundled values that only the INI may hold."""
    cfg = load_config()
    values = {
        f"molecule.{key}": value
        for key, value in cfg.sections["molecule"].items()
        if isinstance(value, float)
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
    assert len(values) == 17
    repeats = [
        f"{path.name}:{lineno} repeats {key} = {value!r}"
        for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
        for lineno, literal in _numeric_literals(path)
        for key, value in values.items()
        if literal == abs(value)
    ]
    assert not repeats, "\n".join(repeats)
