"""End-to-end command-line runs, formatting, and exit codes."""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magictrap import cli, radial
from magictrap.cli import emit_csv, main
from magictrap.config import SCHEMA, load_config
from magictrap.errors import ConfigError
from magictrap.hyperfine import (
    build_basis,
    build_hamiltonian,
    diagonalize,
    eigenstate_polarizability,
    track_states,
)

SMALL_CONFIG = """\
[molecule]
b_v_cm1 = 0.06970
b_vprime_cm1 = 0.06988
transition_cm1 = 11306.4
gamma_hz = 6372.115303897459
alpha_par_hz_wcm2 = 57.904
alpha_perp_hz_wcm2 = 19.079
eqq_na_mhz = 0.132
eqq_rb_mhz = -2.984
spin_na = 1.5
spin_rb = 1.5
g_na = 1.4784
g_rb = 1.8341
d0_debye = 3.2
mass_na_amu = 22.98976928
mass_rb_amu = 86.909180527
quadrupole_denominator = standard

[grid]
r_min_bohr = 4.5
r_max_bohr = 20.0
points = 700

[fields]
b_field_gauss = 335.6
e_field_kv_cm = 0.0
e_theta_deg = 0.0
theta_p_deg = 0.0
intensity_w_cm2 = 2000.0
terms = rotation,quadrupole,zeeman,stark,polarization

[scan]
start_ghz = 20.0
stop_ghz = 120.0
start_deg = 0.0
stop_deg = 90.0
points = 9
j_values = 0,1
m = 0
max_levels = 4

[magic]
kind = detuning
j_a = 0
m_a = 0
j_b = 1
m_b = 0
method = auto
bracket_lo_ghz = 60.0
bracket_hi_ghz = 140.0
bracket_lo_deg = 40.0
bracket_hi_deg = 70.0
target_ghz = 103.0
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(SMALL_CONFIG)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---- formatting ------------------------------------------------------


def fmt12(value: float) -> str:
    """12-significant-digit scientific notation with a bare exponent.

    The one-cell-at-a-time formatter the CSV writer replaced, kept as
    the oracle of its column formatting.
    """
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    mantissa, exponent = f"{value:.11e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def test_fmt12_known_strings():
    assert fmt12(1.0 / 3.0) == "3.33333333333e-1"
    assert fmt12(0.0) == "0.00000000000e0"
    assert fmt12(-12345.678) == "-1.23456780000e4"
    assert fmt12(1e-7) == "1.00000000000e-7"
    assert fmt12(float("nan")) == "nan"
    assert fmt12(float("inf")) == "inf"
    assert fmt12(float("-inf")) == "-inf"
    assert fmt12(9.9999999999995e4) == "1.00000000000e5"
    values = [1.0 / 3.0, 0.0, -12345.678, 1e-7, math.nan, math.inf, -math.inf]
    assert cli._column_cells(np.array(values)) == list(map(fmt12, values))


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072e-308)
@example(-1.5e-310)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(1e300)
@example(-1e-300)
@example(9.9999999999995e4)
@example(-9.99999999999951e-100)
@example(9.99999999999951e99)
def test_column_formatting_matches_fmt12(value):
    """One value alone and amid others formats as fmt12 formats it."""
    column = np.array([value, 1.0, value, -2.5e-12])
    assert cli._column_cells(column) == list(map(fmt12, column.tolist()))
    assert cli._column_cells([value]) == [fmt12(value)]


def old_cell(value) -> str:
    """The per-cell type dispatch the column writer replaced."""
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt12(float(value))
    return str(value)


def test_column_kinds_keep_their_types():
    assert cli._column_cells(np.array([3, -1, 0])) == ["3", "-1", "0"]
    assert cli._column_cells(np.array([True, False])) == ["1", "0"]
    assert cli._column_cells(["X", "Ab"]) == ["X", "Ab"]
    for mixed_row in ([2, 2.0, "X", True], [np.int64(-1), np.float64(0.5), "Ab", False]):
        assert [cli._column_cells([v])[0] for v in mixed_row] == \
            list(map(old_cell, mixed_row))


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["a", "b"], [[], []], path)
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row width 3 != header width 2"):
        emit_csv(["a", "b"], [[1], [2], [3]], tmp_path / "x.csv")


def test_emit_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="column lengths differ"):
        emit_csv(["a", "b"], [[1, 2], [3.0]], tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_emit_csv_rejects_separator_cells(tmp_path):
    with pytest.raises(ValueError, match="needs quoting"):
        emit_csv(["a"], [["x,y"]], tmp_path / "x.csv")


# ---- subcommands end to end -----------------------------------------


def test_solve_rovib(small_config, tmp_path, capsys):
    assert main(["solve-rovib", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "solve_rovib.csv")
    assert header == ["state", "v", "j", "energy_cm1", "b_rot_cm1",
                      "frac_a", "frac_b"]
    assert (tmp_path / "effective-config.ini").exists()
    x_rows = [r for r in rows if r[0] == "X"]
    ab_rows = [r for r in rows if r[0] == "Ab"]
    assert len(x_rows) == 8 and len(ab_rows) == 8
    for r in x_rows:
        assert float(r[5]) == 1.0 and float(r[6]) == 0.0
    for r in ab_rows:
        assert float(r[5]) + float(r[6]) == pytest.approx(1.0, abs=1e-9)
    out = capsys.readouterr().out
    assert "solved 16 levels" in out


def test_alpha_scan(small_config, tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="magictrap.cli"):
        assert main(["alpha-scan", "--config", str(small_config),
                     "--out", str(tmp_path)]) == 0
    # the window starts 20 GHz above the line, inside the J=1 branch
    # structure, and the note says so through logging
    assert [r.getMessage() for r in caplog.records if r.name == "magictrap.cli"] == [
        "note: detuning inside the rotational branch structure (some scan points)"]
    header, rows = read_rows(tmp_path / "alpha_scan.csv")
    assert header == ["detuning_ghz", "j", "m", "alpha_au"]
    assert len(rows) == 18  # 2 J values x 9 detunings
    deltas = sorted({float(r[0]) for r in rows})
    assert deltas[0] == 20.0 and deltas[-1] == 120.0
    assert all(math.isfinite(float(r[3])) for r in rows)


def test_imag_scan(small_config, tmp_path):
    assert main(["imag-scan", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "imag_scan.csv")
    assert header == ["detuning_ghz", "j", "m", "im_alpha_au"]
    assert len(rows) == 18
    # below the lowest line the imaginary part is strictly dissipative
    assert all(float(r[3]) <= 0.0 or abs(float(r[3])) < 1e-9 for r in rows)


def test_hyperfine_scan(small_config, tmp_path):
    assert main(["hyperfine-scan", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "hyperfine_scan.csv")
    assert header == ["theta_deg", "curve", "j", "m", "energy_mhz",
                      "alpha_hz_wcm2"]
    assert len(rows) == 9 * 64
    by_theta = {}
    for r in rows:
        by_theta.setdefault(float(r[0]), set()).add(int(r[1]))
    # every angle carries all 64 tracked curves exactly once
    assert all(curves == set(range(64)) for curves in by_theta.values())


def test_magic_find_detuning(small_config, tmp_path):
    assert main(["magic-find", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "magic_find.csv")
    assert header[:3] == ["kind", "j_a", "m_a"]
    assert len(rows) == 1
    assert rows[0][0] == "detuning"
    assert float(rows[0][7]) == pytest.approx(103.0, abs=1e-6)


def test_magic_find_angle(small_config, tmp_path):
    assert main(["magic-find", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "magic.kind=angle",
                 "--override", "magic.rank_a=0",
                 "--override", "magic.rank_b=0"]) == 0
    header, rows = read_rows(tmp_path / "magic_find.csv")
    assert rows[0][0] == "angle"
    assert 40.0 < float(rows[0][7]) < 70.0
    assert int(rows[0][3]) == 0 and int(rows[0][6]) == 0


def test_magic_find_angle_uses_configured_spins(small_config, tmp_path):
    """The eigen angle search and the hyperfine scan size their basis
    from the [molecule] spins."""
    found = {}
    for spin, curves in (("1.5", 64), ("2.5", 96)):
        out = tmp_path / spin
        assert main(["magic-find", "--config", str(small_config),
                     "--out", str(out),
                     "--override", "magic.kind=angle",
                     "--override", "magic.method=eigen",
                     "--override", "fields.e_field_kv_cm=0.1",
                     "--override", "magic.j_a=1",
                     "--override", "magic.j_b=0",
                     "--override", "magic.rank_a=0",
                     "--override", "magic.rank_b=0",
                     "--override", f"molecule.spin_na={spin}"]) == 0
        found[spin] = float(read_rows(out / "magic_find.csv")[1][0][7])
        assert main(["hyperfine-scan", "--config", str(small_config),
                     "--out", str(out), "--override", "scan.points=4",
                     "--override", f"molecule.spin_na={spin}"]) == 0
        _, rows = read_rows(out / "hyperfine_scan.csv")
        assert len(rows) == 4 * curves
        assert {int(r[1]) for r in rows} == set(range(curves))
    # 54.583178 and 54.581925 degrees
    assert abs(found["2.5"] - found["1.5"]) > 1e-4


@pytest.mark.parametrize("subcommand", ["magic-find", "calibrate"])
def test_m_b_differing_from_m_a_exits_2(subcommand, small_config, tmp_path,
                                        capsys):
    assert main([subcommand, "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "magic.m_b=1"]) == 2
    err = capsys.readouterr().err
    assert "m_b" in err and "m_a" in err
    assert not (tmp_path / (subcommand.replace("-", "_") + ".csv")).exists()


@pytest.mark.parametrize("subcommand, overrides", [
    ("magic-find", ["magic.j_a=1"]),
    ("calibrate", ["magic.j_a=1"]),
    ("magic-find", ["magic.kind=angle", "magic.j_a=1", "magic.m_b=0",
                    "magic.rank_a=0", "magic.rank_b=0"]),
    ("magic-find", ["magic.kind=angle", "magic.j_a=1", "magic.rank_b=0"]),
])
def test_the_same_state_twice_exits_2(subcommand, overrides, small_config,
                                      tmp_path, capsys):
    """A search between a state and itself has an objective that is 0
    everywhere: a configuration error naming the keys, not a failed search."""
    argv = [subcommand, "--config", str(small_config), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "[magic] j_a" in err and "j_b" in err
    assert not list(tmp_path.glob("*.csv"))


def test_calibrate(small_config, tmp_path):
    assert main(["calibrate", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "molecule.gamma_hz=1000.0"]) == 0
    header, rows = read_rows(tmp_path / "calibrate.csv")
    assert header == ["j_a", "j_b", "m", "target_ghz", "gamma_hz",
                      "crossing_ghz", "residual_au"]
    assert float(rows[0][4]) == pytest.approx(6372.115303897459, rel=1e-9)
    assert float(rows[0][5]) == pytest.approx(103.0, abs=1e-6)


def test_hyperfine_columns_match_the_row_assembly():
    """The gathered columns equal the old per-angle, per-curve rows.

    At 1e5 W/cm^2 the light shift mixes M, so tracked curves change
    their dominant (J, M) label along the scan.
    """
    cfg = load_config(None, ["fields.intensity_w_cm2=100000", "scan.points=16"])
    _, columns, _ = cli._cmd_hyperfine_scan(cfg)
    # the per-row assembly the columnar scan replaced
    fields = cfg.field_configuration()
    basis = build_basis(1, fields.constants)
    thetas = np.linspace(0.0, 90.0, 16)
    at = replace(fields, theta_p=np.radians(thetas))
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, at, cfg.terms()), basis), at)
    order = np.arange(basis.dim)
    rows, labels = [], []
    for k, theta_deg in enumerate(thetas.tolist()):
        if k:
            order = track_states(sol[k - 1], sol[k])[order]
        at_k = sol[k]
        labels.append([at_k.labels[i] for i in order])
        rows.extend([theta_deg, curve, *at_k.labels[i], at_k.energies[i],
                     at_k.polarizabilities[i]] for curve, i in enumerate(order))
    assert any(a != b for a, b in zip(labels[0], labels[-1]))
    assert len(columns) == 6
    for col, expected in zip(columns, zip(*rows)):
        assert np.array_equal(col, expected)
        assert cli._column_cells(col) == list(map(old_cell, expected))


@pytest.mark.parametrize("subcommand", ["solve-rovib", "imag-scan"])
def test_one_dense_solve_per_model(subcommand, small_config, tmp_path, monkeypatch):
    """The ground curve (n = 700) and the coupled pair (2n) are each
    diagonalized once; every J, the J=0 ground level and the J'=1 line
    that pins the shift included, comes from those two bases."""
    sizes = []

    def counting(h, *args):
        sizes.append(h.shape[0])
        return dense(h, *args)

    dense = radial._lowest_eigenpairs
    monkeypatch.setattr(radial, "_lowest_eigenpairs", counting)
    assert main([subcommand, "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    assert sorted(sizes) == [700, 1400]


def test_console_entry_point(small_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "magictrap.cli", "alpha-scan",
         "--config", str(small_config), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "alpha_scan.csv").exists()
    assert "wrote" in proc.stdout
    # with logging unconfigured a validity note still reaches stderr as is
    assert proc.stderr == ("note: detuning inside the rotational branch structure "
                           "(some scan points)\n")


# ---- determinism -----------------------------------------------------


@pytest.mark.parametrize("subcommand", ["solve-rovib", "alpha-scan", "imag-scan",
                                        "hyperfine-scan", "magic-find", "calibrate"])
def test_reruns_are_byte_identical(subcommand, small_config, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main([subcommand, "--config", str(small_config),
                 "--out", str(d1)]) == 0
    assert main([subcommand, "--config", str(small_config),
                 "--out", str(d2)]) == 0
    name = subcommand.replace("-", "_") + ".csv"
    assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "effective-config.ini").read_bytes() == \
        (d2 / "effective-config.ini").read_bytes()


def test_effective_config_round_trips(small_config, tmp_path):
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
    original = load_config(small_config)
    reloaded = load_config(tmp_path / "effective-config.ini")
    assert reloaded.sections == original.sections


# ---- exit codes ------------------------------------------------------


def test_missing_required_key_exits_2(small_config, tmp_path, capsys):
    pruned = tmp_path / "pruned.ini"
    pruned.write_text("\n".join(
        line for line in SMALL_CONFIG.splitlines()
        if not line.startswith("b_v_cm1")
    ))
    assert main(["solve-rovib", "--config", str(pruned),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "b_v_cm1" in err and "[molecule]" in err


def test_missing_max_levels_exits_2(small_config, tmp_path, capsys):
    pruned = tmp_path / "pruned.ini"
    pruned.write_text(SMALL_CONFIG.replace("max_levels = 4\n", ""))
    assert main(["solve-rovib", "--config", str(pruned),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "max_levels" in err and "[scan]" in err


def test_unknown_key_exits_2(small_config, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG.replace("[scan]", "[scan]\nfrobnicate = 3"))
    assert main(["alpha-scan", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_malformed_override_exits_2(small_config, tmp_path, capsys):
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "scan.points"]) == 2
    assert "section.key=value" in capsys.readouterr().err
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "scan.points=many"]) == 2
    assert "many" in capsys.readouterr().err


def test_no_bound_level_to_pin_the_line_exits_3(small_config, tmp_path, capsys):
    """A 1 amu sodium puts the b-state minimum beyond r_max, so no coupled
    J'=1 level is bound on the grid to pin the transition energy to."""
    assert main(["solve-rovib", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "molecule.mass_na_amu=1"]) == 3
    assert "no bound" in capsys.readouterr().err
    assert not (tmp_path / "solve_rovib.csv").exists()


@pytest.mark.parametrize("subcommand", ["alpha-scan", "imag-scan"])
def test_m_beyond_j_exits_2(subcommand, small_config, tmp_path, capsys, monkeypatch):
    """M = 1 has no J = 0 state: both scans refuse it rather than write
    a value for it, naming the key before any dense radial solve."""
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return dense(*args)

    dense = radial._lowest_eigenpairs
    monkeypatch.setattr(radial, "_lowest_eigenpairs", counting)
    assert main([subcommand, "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "grid.points=300", "--override", "scan.j_values=0",
                 "--override", "scan.m=1"]) == 2
    err = capsys.readouterr().err
    assert "[scan] m" in err and "m must be an integer with |m| <= j" in err
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


def test_rootless_bracket_exits_3(small_config, tmp_path, capsys):
    assert main(["magic-find", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "magic.bracket_lo_ghz=150",
                 "--override", "magic.bracket_hi_ghz=300"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_output_path_collision_exits_4(small_config, tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(blocker)]) == 4
    assert "i/o error" in capsys.readouterr().err


# ---- the configuration contract --------------------------------------


@pytest.mark.parametrize("subcommand, overrides, key", [
    ("alpha-scan", ["scan.points=0"], "[scan] points"),
    ("hyperfine-scan", ["scan.points=0"], "[scan] points"),
    ("imag-scan", ["scan.points=0"], "[scan] points"),
    ("solve-rovib", ["scan.max_levels=-1"], "[scan] max_levels"),
    ("solve-rovib", ["molecule.b_vprime_cm1=0"], "[molecule] b_vprime_cm1"),
    ("alpha-scan", ["molecule.transition_cm1=0"], "[molecule] transition_cm1"),
    ("solve-rovib", ["molecule.mass_na_amu=0", "molecule.mass_rb_amu=0"],
     "[molecule] mass_na_amu"),
    ("alpha-scan", ["molecule.b_v_cm1=nan"], "[molecule] b_v_cm1"),
    ("solve-rovib", ["grid.points=2"], "[grid] points"),
    ("solve-rovib", ["grid.r_max_bohr=1"], "[grid] r_max_bohr"),
])
def test_out_of_range_value_exits_2_naming_its_key(subcommand, overrides, key,
                                                   tmp_path, capsys):
    argv = [subcommand, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, accepted, rejected", [
    ("molecule.b_v_cm1", "1e-3", ["0", "-1", "inf"]),
    ("molecule.gamma_hz", "0", ["-1", "nan"]),
    ("molecule.eqq_rb_mhz", "-3", ["-inf"]),
    ("molecule.spin_na", "2.5", ["0", "1.2", "-1.5"]),
    ("molecule.quadrupole_denominator", "literal", ["i(i-1)"]),
    ("grid.r_min_bohr", "0.5", ["0"]),
    ("grid.points", "8", ["0", "7", "8.0"]),
    ("fields.e_field_kv_cm", "0", ["-0.5"]),
    ("fields.theta_p_deg", "-30", ["nan"]),
    ("fields.terms", "rotation,stark", ["", "rotation,spin"]),
    ("scan.j_values", "0,3", ["0,-1", "0,x"]),
    ("scan.m", "-2", ["1.5"]),
    ("scan.max_levels", "1", ["0"]),
    ("magic.kind", "angle", ["Angle"]),
    ("magic.rank_a", "0", ["-1"]),
    ("magic.method", "eigen", ["secant"]),
])
def test_schema_is_each_keys_range(key, accepted, rejected):
    section, name = key.split(".")
    load_config(overrides=[f"{key}={accepted}"])
    for value in rejected:
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {name} =")):
            load_config(overrides=[f"{key}={value}"])


HEADERS = {
    "solve-rovib": "state,v,j,energy_cm1,b_rot_cm1,frac_a,frac_b",
    "alpha-scan": "detuning_ghz,j,m,alpha_au",
    "imag-scan": "detuning_ghz,j,m,im_alpha_au",
    "hyperfine-scan": "theta_deg,curve,j,m,energy_mhz,alpha_hz_wcm2",
    "magic-find": "kind,j_a,m_a,rank_a,j_b,m_b,rank_b,location,residual,"
                  "bracket_lo,bracket_hi",
    "calibrate": "j_a,j_b,m,target_ghz,gamma_hz,crossing_ghz,residual_au",
}
# small enough for about 0.1 s a run; a drawn size never exceeds these,
# since grid.points costs n^2 memory
REDUCED = {"grid.points": "300", "scan.points": "16", "scan.j_values": "0,1"}
VARIANTS = [(name, []) for name in HEADERS] + [
    ("magic-find", ["magic.kind=angle", "magic.rank_a=0", "magic.rank_b=0"])]


def _drawn_values(name: str, value) -> list[str]:
    """Fixed values to draw for one key, by the type of its bundled value."""
    if name in REDUCED:
        value = REDUCED[name]
        if name == "scan.j_values":
            return ["", "bogus", "0", "1", value]
        return ["-1", "0", "1", "2", value]
    if isinstance(value, float):
        return ["0", "-1", "1", repr(value), "nan", "inf", "-inf"]
    if isinstance(value, tuple):
        return ["", "bogus", ",".join(map(str, value))]
    if isinstance(value, str):
        return ["bogus", value]
    return ["-1", "0", "1", "2"] + ([] if value is None else [str(value)])


BUNDLED = load_config()
DRAWS = [(f"{section}.{key}", text)
         for section, keys in SCHEMA.items() for key in keys
         for text in _drawn_values(f"{section}.{key}",
                                   BUNDLED.get(section, key, None))]


def _rejected(name: str, text: str) -> bool:
    section, key = name.split(".")
    try:
        SCHEMA[section][key](text)
    except ValueError:
        return True
    return False


@settings(derandomize=True, deadline=None, max_examples=100)
@given(variant=st.sampled_from(VARIANTS),
       drawn=st.lists(st.sampled_from(DRAWS), max_size=3,
                      unique_by=lambda item: item[0]))
def test_exit_codes_hold_for_drawn_configs(variant, drawn):
    """A rejected value exits 2 naming its key; anything else exits 0, 2,
    3 or 4, and exit 0 writes the subcommand's header."""
    subcommand, extra = variant
    argv = [subcommand]
    for item in [f"{k}={v}" for k, v in REDUCED.items()] + extra + \
            [f"{k}={v}" for k, v in drawn]:
        argv += ["--override", item]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + ["--out", out])
        csv_path = Path(out) / (subcommand.replace("-", "_") + ".csv")
        header = csv_path.read_text().split("\n")[0] if code == 0 else None
    message = err.getvalue()
    assert "Traceback" not in message
    rejected = [name for name, text in drawn if _rejected(name, text)]
    if rejected:
        assert code == 2, message
        assert any("[{}] {} =".format(*name.split(".")) in message
                   for name in rejected), message
    else:
        assert code in (0, 2, 3, 4), message
        if code == 0:
            assert header == HEADERS[subcommand]
