"""Unit-conversion contracts.

Expected numbers here are frozen from independent arithmetic: the
adopted polarizability factor, the exact speed of light in cm-1 <-> GHz,
and 1e7 / wavenumber for wavelengths.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

import magictrap
from magictrap import (
    Unit,
    UnitError,
    convert,
)
from magictrap.units import (
    AU_POL_TO_MHZ_PER_WCM2,
    CM1_TO_GHZ,
    DEBYE_TO_EA0,
    HARTREE_TO_CM1,
    HARTREE_TO_GHZ,
)

from oracles import wavelength_nm


def test_polarizability_factor_is_adopted_value():
    assert AU_POL_TO_MHZ_PER_WCM2 == 4.68645e-8


def test_polarizability_unit_round_trip():
    assert convert(1.0, Unit.AU_POL, Unit.MHZ_PER_WCM2) == pytest.approx(
        4.68645e-8, rel=1e-12)
    assert convert(1.0, Unit.AU_POL, Unit.HZ_PER_WCM2) == pytest.approx(
        4.68645e-2, rel=1e-12)
    back = convert(convert(123.456, Unit.AU_POL, Unit.HZ_PER_WCM2),
                   Unit.HZ_PER_WCM2, Unit.AU_POL)
    assert back == pytest.approx(123.456, rel=1e-12)


def test_wavenumber_to_ghz_is_exact_speed_of_light():
    assert convert(1.0, Unit.WAVENUMBER, Unit.GHZ) == pytest.approx(
        29.9792458, rel=1e-12)
    assert CM1_TO_GHZ == pytest.approx(29.9792458, rel=1e-15)
    # consistency of the two Hartree-based energy scales
    assert HARTREE_TO_GHZ / HARTREE_TO_CM1 == pytest.approx(
        29.9792458, rel=1e-12)


def test_transition_wavelength_matches_band():
    lam = wavelength_nm(11306.4)
    assert lam == pytest.approx(884.4548220476898, rel=1e-12)
    assert round(lam) == 884
    # reciprocal map round trip
    assert 1e7 / lam == pytest.approx(11306.4, rel=1e-12)


def test_wavelength_rejects_nonpositive_energy():
    with pytest.raises(ValueError):
        wavelength_nm(0.0)
    with pytest.raises(ValueError):
        wavelength_nm(-5.0, Unit.GHZ)


def test_cross_dimension_conversion_raises():
    with pytest.raises(UnitError) as err:
        convert(1.0, Unit.GHZ, Unit.BOHR)
    assert "GHZ" in str(err.value) and "BOHR" in str(err.value)
    with pytest.raises(UnitError):
        convert(1.0, Unit.AU_POL, Unit.HARTREE)


def test_convert_requires_unit_members():
    with pytest.raises(ValueError):
        convert(1.0, "GHz", Unit.GHZ)


def test_magnetic_and_electric_field_scales():
    assert convert(1.0, Unit.TESLA, Unit.GAUSS) == pytest.approx(1e4, rel=1e-15)
    assert convert(1.0, Unit.KV_PER_CM, Unit.V_PER_M) == pytest.approx(
        1e5, rel=1e-15)
    assert convert(1.0, Unit.KW_PER_CM2, Unit.W_PER_CM2) == pytest.approx(
        1e3, rel=1e-15)


def test_dipole_and_angle_scales():
    assert DEBYE_TO_EA0 == pytest.approx(0.3934303, rel=1e-6)
    assert convert(180.0, Unit.DEGREE, Unit.RADIAN) == pytest.approx(
        math.pi, rel=1e-15)


def test_energy_chain_closes():
    # cm-1 -> Hartree -> MHz -> GHz -> cm-1
    x = convert(11306.4, Unit.WAVENUMBER, Unit.HARTREE)
    x = convert(x, Unit.HARTREE, Unit.MHZ)
    x = convert(x, Unit.MHZ, Unit.GHZ)
    x = convert(x, Unit.GHZ, Unit.WAVENUMBER)
    assert x == pytest.approx(11306.4, rel=1e-12)


def _imports(path: Path):
    """(line, dotted name, innermost enclosing function or None at module
    level) of each import in ``path``; an import inside a function runs
    only when the function does."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {id(node): fn.name for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            yield node.lineno, name, owner.get(id(node))


SOURCES = sorted(Path(magictrap.__file__).parent.glob("*.py"))


def test_no_module_takes_constants_from_scipy():
    """The CODATA inputs are literals in ``units``: the output must not
    depend on the installed scipy's constants table."""
    found = [f"{path.name}:{line} {name}" for path in SOURCES
             for line, name, _ in _imports(path)
             if name == "scipy.constants" or name.startswith("scipy.constants.")]
    assert not found, found


def test_no_module_imports_scipy_at_import_time():
    """scipy is imported only inside the functions that use it."""
    found = [f"{path.name}:{line} {name}" for path in SOURCES
             for line, name, fn in _imports(path)
             if fn is None and (name == "scipy" or name.startswith("scipy."))]
    assert not found, found


def test_the_one_scipy_import_is_the_assignment_fallback():
    """The one scipy import in the package is scipy.optimize's assignment
    solver, inside ``hyperfine._match``, which falls back on it for tied
    or colliding overlaps."""
    found = [(path.name, fn, name) for path in SOURCES
             for _, name, fn in _imports(path) if name.split(".")[0] == "scipy"]
    assert found == [("hyperfine.py", "_match", "scipy.optimize.linear_sum_assignment")]


def _loaded_scipy_modules(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_importing_the_cli_loads_no_scipy():
    assert _loaded_scipy_modules("import magictrap.cli") == []


def test_searches_and_alpha_scan_load_neither_scipy_optimize_nor_linalg(tmp_path):
    code = (
        "import contextlib, io\n"
        "from magictrap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for sub in ('alpha-scan', 'magic-find', 'calibrate'):\n"
        f"        assert main([sub, '--out', {str(tmp_path)!r}]) == 0\n"
    )
    loaded = _loaded_scipy_modules(code)
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.linalg"))], loaded


def test_radial_subcommands_load_no_scipy(tmp_path):
    """The DVR solves run on numpy alone."""
    code = (
        "import contextlib, io\n"
        "from magictrap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for sub in ('solve-rovib', 'imag-scan'):\n"
        f"        assert main([sub, '--out', {str(tmp_path)!r},\n"
        "                     '--override', 'grid.points=300']) == 0\n"
    )
    assert _loaded_scipy_modules(code) == []
