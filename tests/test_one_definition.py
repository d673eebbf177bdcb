"""The NaRb model has one definition: the bundled INI.

A golden test pins the CSV bytes the bundled defaults produce, so a
change to how the model is built cannot move a number unnoticed, and a
source scan checks that no module repeats a bundled measured value as a
literal.  The package's public API has one definition too: its layers'
``__all__`` lists.  One function writes the output files, one maps
a rotational state (J, M) to its index in the hyperfine basis, and one
table says where the closed-form polarizability has its branch poles,
and one entry, ``rovib_basis``, solves a radial model.
Six process-global memos are kept, each for the saving it names.
"""

from __future__ import annotations

import ast
import hashlib
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import magictrap
from magictrap import (angular, errors, hyperfine, magic, narb, polarizability,
                       potentials, radial, units)
from magictrap.cli import main
from magictrap.config import load_config

# case -> (argv: subcommand and overrides, SHA-256 of the CSV it writes).
# The digests hold at 2, 3 and 4 BLAS threads.  Their eigensolves, all
# through radial._eigh, round as the BLAS thread count and the OpenBLAS
# kernel family make them: with OPENBLAS_NUM_THREADS=1 the "imag-scan"
# case gets other bytes (0c1306c0... against 1e084e03...).
# "imag-scan" is pinned on RovibBasis.levels solving each J in a certified
# leading block of the contracted basis; the whole K x K solve gave
# 61d61d35..., 4 of its 128 Im alpha cells apart, each by <= 1.4e-12 of itself.
GOLDEN = {
    "alpha-scan": (
        ["alpha-scan", "--override", "scan.points=201"],
        "35e38bf00cda6342b5e465629511c845c7d012bbfa28c0b483d4b0ff97046d76",
    ),
    "alpha-scan-90": (
        ["alpha-scan", "--override", "fields.theta_p_deg=90", "--override", "scan.points=4001",
         "--override", "scan.j_values=0,1,2,3,4,5", "--override", "scan.start_ghz=-20",
         "--override", "scan.stop_ghz=20"],
        "2309bd70e2638e94323b664759d23e8072fafd63c4e87e2e7d5aa176f1c38226",
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
        "1e084e03463749fcab227515915d4d540d9a75d17e57fa2f9aa9fb5b14f19538",
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
        "dfcf5294dd6bf162c1f1b0bb169fa6b0f5e9728ac62427aed7726f5698c6ec22",
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


# the goldens that solve radial models; the tests below rerun them on the
# other eigh and heap paths and compare with the default path's bytes, so
# their digests are pinned once, above
RADIAL = ("solve-rovib", "imag-scan")


def _radial_csv(case: str, out: Path) -> bytes:
    """The CSV that golden ``case``'s argv writes, its bases solved afresh."""
    narb._bases.cache_clear()
    argv = GOLDEN[case][0]
    assert main([*argv, "--out", str(out)]) == 0
    return (out / f"{argv[0].replace('-', '_')}.csv").read_bytes()


@pytest.mark.parametrize("path", ["dsyevd in place", "np.linalg.eigh"])
def test_radial_goldens_hold_on_both_eigh_paths(path, tmp_path, monkeypatch, caplog):
    """solve-rovib and imag-scan write the default path's bytes with the
    four dense eighs run in place through numpy's dsyevd and through
    np.linalg.eigh, the path where numpy ships no such symbol; one debug
    line per dense solve names the path."""
    if path == "dsyevd in place" and radial._lapack_dsyevd() is None:
        pytest.skip("numpy ships no ILP64 dsyevd")
    default = {case: _radial_csv(case, tmp_path) for case in RADIAL}
    if path == "np.linalg.eigh":
        monkeypatch.setattr(radial, "_lapack_dsyevd", lambda: None)
    for case in RADIAL:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="magictrap.radial"):
            assert _radial_csv(case, tmp_path) == default[case], case
        assert caplog.text.count(f" by {path} in ") == 4, case


@pytest.mark.parametrize("trim", ["malloc_trim", "no trim"])
def test_radial_goldens_hold_with_and_without_the_heap_trim(trim, tmp_path, monkeypatch,
                                                           caplog):
    """solve-rovib and imag-scan write the default path's bytes whether the
    dense solves hand freed heap back to the OS or, where the C library has
    no malloc_trim, keep it; each dense solve's debug line names the
    process's peak RSS so far."""
    if (real := radial._malloc_trim()) is None and trim == "malloc_trim":
        pytest.skip("the C library has no malloc_trim")
    default = {case: _radial_csv(case, tmp_path) for case in RADIAL}
    trimmed = []
    if trim == "no trim":
        monkeypatch.setattr(radial, "_malloc_trim", lambda: None)
    else:
        monkeypatch.setattr(radial, "_malloc_trim",
                            lambda: lambda pad: trimmed.append(pad) or real(pad))
    for case in RADIAL:
        caplog.clear()
        trimmed.clear()
        with caplog.at_level(logging.DEBUG, logger="magictrap.radial"):
            assert _radial_csv(case, tmp_path) == default[case], case
        assert bool(trimmed) == (trim == "malloc_trim"), case
        assert len(re.findall(r"dense eigh n=\d+ by .* in \S+ s, peak RSS (\S+ MB|unknown)$",
                              caplog.text, re.MULTILINE)) == 4, case


def test_the_np_linalg_eigh_path_trims_around_each_dense_eigh(tmp_path, monkeypatch):
    """Where numpy ships no ILP64 dsyevd, each dense solve's np.linalg.eigh
    is trimmed before it allocates and after it frees, as the in-place
    path is, and solve-rovib and imag-scan write the default path's bytes.
    The trace brackets each ``overwrite=True`` call of the seam, a dense
    solve; the block solves' np.linalg.eigh runs outside any bracket."""
    if (real_trim := radial._malloc_trim()) is None:
        pytest.skip("the C library has no malloc_trim")
    default = {case: _radial_csv(case, tmp_path) for case in RADIAL}
    real_eigh, real_seam, events = np.linalg.eigh, radial._eigh, []

    def seam(h, overwrite=False):
        events.append("(" * overwrite)
        solved = real_seam(h, overwrite)
        events.append(")" * overwrite)
        return solved

    monkeypatch.setattr(radial, "_lapack_dsyevd", lambda: None)
    monkeypatch.setattr(radial, "_malloc_trim",
                        lambda: lambda pad: events.append("T") or real_trim(pad))
    monkeypatch.setattr(radial, "_eigh", seam)
    monkeypatch.setattr(np.linalg, "eigh", lambda h: events.append("E") or real_eigh(h))
    for case in RADIAL:
        events.clear()
        assert _radial_csv(case, tmp_path) == default[case], case
        trace = "".join(events)
        assert trace.count("(") == trace.count("(TET)") == 4, (case, trace)


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


# calls that write a file whatever their arguments; ``open`` writes in a
# mode with any of "wax+"
WRITERS = frozenset({"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"})


def _owners(tree: ast.AST) -> dict[int, str]:
    """The innermost enclosing function's name of each node in ``tree``, by id."""
    return {id(node): fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)}


def _file_writes(path: Path):
    """(line, enclosing function) of each call in ``path`` that can write a
    file; an ``open`` whose mode is no literal counts as one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            # open(file, mode) and os.open(file, flags), or path.open(mode)
            at = 1 if isinstance(func, ast.Name) or getattr(func.value, "id", None) == "os" else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                          and set("wax+").isdisjoint(mode.value))
        else:
            writes = name in WRITERS
        if writes:
            yield node.lineno, owner.get(id(node))


def test_one_function_writes_output_files():
    """Both output files go through ``config._write_output``, which replaces
    a file instead of truncating it."""
    writes = [(path.name, fn, line)
              for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
              for line, fn in _file_writes(path)]
    assert [(name, fn) for name, fn, _ in writes] == [("config.py", "_write_output")], writes


def _rot_index_lookups(path: Path):
    """(line, enclosing function) of each ``.index`` call in ``path`` on
    ``rot_states`` or on a name bound to it: a (J, M) -> index lookup."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and "rot_states" in ast.unparse(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "index"):
            on = node.func.value
            if "rot_states" in ast.unparse(on) or getattr(on, "id", None) in aliases:
                yield node.lineno, owner.get(id(node))


def test_one_function_maps_a_rotational_state_to_its_index():
    """Eigenstates carry their dominant (J, M) as an index into
    ``basis.rot_states``; only ``hyperfine._rot_index`` turns a (J, M)
    into that index, so the scan, the search and ``select`` agree."""
    lookups = [(path.name, fn, line)
               for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
               for line, fn in _rot_index_lookups(path)]
    assert [(name, fn) for name, fn, _ in lookups] == [("hyperfine.py", "_rot_index")], lookups


def _offset_calls(path: Path):
    """(line, enclosing function) of each call in ``path`` to
    ``resonance_offsets``, by bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "resonance_offsets":
                yield node.lineno, owner.get(id(node))


def test_one_table_decides_the_branch_poles():
    """Only ``polarizability._branches`` turns branch offsets into poles, so
    the closed forms and the detuning search's pole guard agree on where
    alpha is singular; ``validity_notes`` reads the offsets only to size
    the validity window."""
    calls = sorted({(path.name, fn)
                    for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
                    for _, fn in _offset_calls(path)})
    assert calls == [("polarizability.py", "_branches"),
                     ("polarizability.py", "validity_notes")], calls


# the process-global memos, each kept for a measured saving
MEMOS = ["cli._parser", "config._bundled_sections", "hyperfine._basis", "narb._bases",
         "radial._lapack_dsyevd", "radial._malloc_trim"]


def _memos(path: Path):
    """(name, docstring) of each function in ``path`` decorated with
    ``functools.lru_cache`` or ``functools.cache``, called or not, by bare
    name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("lru_cache", "cache"):
                    yield node.name, ast.get_docstring(node) or ""


def test_each_memo_is_listed_with_its_key_and_saving():
    """A memo is process-global state; one joins ``MEMOS`` only with a
    docstring that names its key and the saving measured for it."""
    memos = {f"{path.stem}.{name}": doc
             for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
             for name, doc in _memos(path)}
    assert sorted(memos) == MEMOS
    for name, doc in memos.items():
        assert "Keyed on" in doc and "saves" in doc, name


LAYERS = (units, angular, errors, potentials, radial, polarizability, hyperfine, magic)

# every name the package exported before it took its layers' lists, less
# the routes only the tests run (now in tests/oracles.py) and the deleted
# tabulated-curve input
EXPORTS = """
__version__ Unit convert MAGIC_ANGLE_DEG AngularFactors
ResonanceOffsets angular_factors resonance_offsets rot_tensor_element wigner3j
MorseCurve DipoleFunction CoupledModel calibrate_morse
RadialGrid RovibBasis dvr_kinetic rovib_basis
radial_matrix_element linewidth Background
ResonantLine PolarizabilitySpec alpha_analytic
validity_notes line_strength alpha_imag
MolecularConstants FieldConfiguration HyperfineBasis TERMS
build_basis build_hamiltonian MagicSolution find_magic_detuning
find_magic_angle calibrate_gamma MagicTrapError UnitError
GridError ConfigError PoleProximityError NoRootError CalibrationError
""".split()


def test_package_exports_its_layers_lists():
    assert len(EXPORTS) == 44
    names = magictrap.__all__
    assert names == ["__version__", *(n for layer in LAYERS for n in layer.__all__)]
    assert len(set(names)) == len(names)
    assert set(EXPORTS) <= set(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(magictrap, name) is getattr(layer, name), name
    assert not {"config", "narb", "cli"} & set(names)


def _read_names(src: Path) -> set[str]:
    """Every name the modules of ``src`` other than ``__init__.py`` read:
    bare names and attributes loaded, and names imported from a module."""
    names = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_callable_is_used_in_the_package():
    """Each function and class a layer exports is used by the package
    itself, on a subcommand's path or by a name that is; a route only the
    tests run lives in ``tests/oracles.py``.  Exported constants, such as
    ``MAGIC_ANGLE_DEG``, are published numbers and need no reader."""
    read = _read_names(Path(magictrap.__file__).parent)
    unread = [f"{layer.__name__}.{name}" for layer in LAYERS for name in layer.__all__
              if callable(getattr(layer, name)) and name not in read]
    assert not unread, unread


def _eigensolver_calls(path: Path):
    """(line, outermost enclosing function) of each call in ``path`` to a
    function named ``eigh`` or ``dsyevd``, by bare name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # ast.walk goes breadth first, so the outermost function is written last
    owner = {id(node): fn.name for fn in reversed(list(ast.walk(tree)))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("eigh", "dsyevd"):
                yield node.lineno, owner.get(id(node))


def test_one_seam_runs_every_eigensolve():
    """Every eigensolve goes through ``radial._eigh``: no other function
    calls an ``eigh`` (numpy's, scipy's or any other) or LAPACK's
    ``dsyevd``, so a spy on the seam sees each one."""
    calls = sorted({(path.name, fn)
                    for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
                    for _, fn in _eigensolver_calls(path)})
    assert calls == [("radial.py", "_eigh")], calls


def test_hyperfine_kernels_run_only_in_hyperfine():
    """The hyperfine pipeline, ``hyperfine._angle_solver``, is the one path
    from fields to eigenpairs, labels and alpha: no module of the package
    other than ``hyperfine`` calls its kernels, so the scan and the search
    cannot fork."""
    kernels = {"_eigensolve", "_spin_trace", "_light_block", "_static_hamiltonian"}
    calls = sorted((path.name, name)
                   for path in sorted(Path(magictrap.__file__).parent.glob("*.py"))
                   if path.name != "hyperfine.py"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call)
                   for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
                   if name in kernels)
    assert calls == [], calls


def test_one_dense_per_j_solve():
    """One entry solves a radial model: ``rovib_basis``, whose levels at its
    reference J are the one-J solve.  It alone calls the dense solve, and no
    per-J solve function stands beside it."""
    tree = ast.parse(Path(radial.__file__).read_text(encoding="utf-8"))
    owners = _owners(tree)
    callers = {owners.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_dense_basis"}
    assert callers == {"rovib_basis"}
    assert not {"solve_single", "solve_coupled"} & set(vars(radial))
