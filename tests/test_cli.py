"""End-to-end command-line runs, formatting, and exit codes."""

from __future__ import annotations

import csv
import math
import subprocess
import sys

import pytest

from magictrap.cli import emit_csv, fmt12, main
from magictrap.config import load_config

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


def test_fmt12_known_strings():
    assert fmt12(1.0 / 3.0) == "3.33333333333e-1"
    assert fmt12(0.0) == "0.00000000000e0"
    assert fmt12(-12345.678) == "-1.23456780000e4"
    assert fmt12(1e-7) == "1.00000000000e-7"
    assert fmt12(float("nan")) == "nan"
    assert fmt12(float("inf")) == "inf"
    assert fmt12(float("-inf")) == "-inf"


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["a", "b"], [], path)
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row width 3 != header width 2"):
        emit_csv(["a", "b"], [[1, 2, 3]], tmp_path / "x.csv")


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


def test_alpha_scan(small_config, tmp_path):
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(tmp_path)]) == 0
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
    """The eigen angle search sizes its basis from the [molecule] spins."""
    found = {}
    for spin in ("1.5", "2.5"):
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


def test_calibrate(small_config, tmp_path):
    assert main(["calibrate", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "molecule.gamma_hz=1000.0"]) == 0
    header, rows = read_rows(tmp_path / "calibrate.csv")
    assert header == ["j_a", "j_b", "m", "target_ghz", "gamma_hz",
                      "crossing_ghz", "residual_au"]
    assert float(rows[0][4]) == pytest.approx(6372.115303897459, rel=1e-9)
    assert float(rows[0][5]) == pytest.approx(103.0, abs=1e-6)


def test_console_entry_point(small_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "magictrap.cli", "alpha-scan",
         "--config", str(small_config), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "alpha_scan.csv").exists()
    assert "wrote" in proc.stdout


# ---- determinism -----------------------------------------------------


@pytest.mark.parametrize("subcommand", ["alpha-scan", "hyperfine-scan"])
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
