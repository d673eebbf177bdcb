"""End-to-end command-line runs, formatting, and exit codes."""

from __future__ import annotations

import builtins
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

from magictrap import cli, config, csvtable, magic, narb, radial
from magictrap.cli import emit_csv, main
from magictrap.config import SCHEMA, bundled_defaults_path, load_config
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


def old_cell(value) -> str:
    """The per-cell type dispatch the column writer replaced."""
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt12(float(value))
    return str(value)


def oracle_csv(headers, columns) -> bytes:
    """The table as the per-cell oracle writes it."""
    cells = [list(map(old_cell, np.asarray(col).tolist())) for col in columns]
    lines = [",".join(headers), *map(",".join, zip(*cells))]
    return ("\n".join(lines) + "\n").encode()


def written_csv(headers, columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        emit_csv(headers, columns, path)
        return path.read_bytes()


def bulk_cells(values) -> list[str]:
    """Float cells as the table writer's numpy pass lays them out."""
    cells, keep = csvtable._float_cells(np.array(values, dtype=float), cli._column_cells)
    return [bytes(row[kept]).decode() for row, kept in zip(cells, keep)]


@pytest.fixture
def per_cell_floats(monkeypatch):
    """The cells of each float column handed to the per-cell formatter."""
    calls = []

    def spy(column):
        if np.asarray(column).dtype.kind == "f":
            calls.append(np.asarray(column).tolist())
        return per_cell(column)

    per_cell = cli._column_cells
    monkeypatch.setattr(cli, "_column_cells", spy)
    return calls


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
    assert bulk_cells(values) == list(map(fmt12, values))


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
    """One value alone and amid others formats as fmt12 formats it, cell
    by cell and in the table writer's numpy pass."""
    column = np.array([value, 1.0, value, -2.5e-12])
    assert cli._column_cells(column) == list(map(fmt12, column.tolist()))
    assert cli._column_cells([value]) == [fmt12(value)]
    assert bulk_cells(column) == list(map(fmt12, column.tolist()))


# floats the numpy pass cannot round beyond doubt: ties at the twelfth
# digit, zeros, subnormals, non-finite values and |x| outside (1e-280, 1e280)
FALLBACK_FLOATS = [100000000000.5, 999999999999.5, -1.000000000005e-7, 0.0, -0.0, 5e-324, -1.5e-310,
                   math.nan, math.inf, -math.inf, 1e280, -1e280, 1e-280, -1e-280,
                   float(np.nextafter(1e280, math.inf)), float(np.nextafter(1e-280, 0.0))]
# floats it rounds itself, next to the edges of its range and of a decade
EDGE_FLOATS = [9.9999999999995e4, float(np.nextafter(1e280, 0.0)),
               float(np.nextafter(1e-280, 1.0)),
               *(float(np.nextafter(10.0**k, side)) for k in range(-30, 31)
                 for side in (-math.inf, math.inf))]


def test_named_floats_match_fmt12_and_take_their_path(per_cell_floats):
    values = FALLBACK_FLOATS + EDGE_FLOATS
    assert bulk_cells(values) == list(map(fmt12, values))
    sent = [repr(v) for call in per_cell_floats for v in call]
    assert sent == list(map(repr, FALLBACK_FLOATS))
    assert written_csv(["x"], [values]) == oracle_csv(["x"], [values])


def test_int64_extremes_match_str():
    values = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 9, 10, -10,
                       9999, 10000, -99999] * 8)
    assert written_csv(["n"], [values]) == oracle_csv(["n"], [values])


def test_seeded_floats_match_percent_format():
    """10**5 floats over the whole double range, and near ties at the
    twelfth digit, read as "%.11e" writes them with its exponent bared."""
    rng = np.random.default_rng(20240)
    values = np.concatenate([
        rng.standard_normal(40_000) * 10.0 ** rng.uniform(-320, 307, 40_000),
        rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
        (rng.integers(10**11, 10**12, 20_000) + 0.5 + rng.uniform(-2e-3, 2e-3, 20_000))
        * 10.0 ** rng.integers(-40, 40, 20_000).astype(float),
    ])
    text = ("%.11e\n" * len(values)) % tuple(values.tolist())
    expected = re.sub(r"e([+-])0*(\d)", lambda m: "e" + "-" * (m[1] == "-") + m[2], text)
    assert written_csv(["x"], [values]) == b"x\n" + expected.encode()


LABELS = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters=',\n\r"\0'), max_size=6)


def table_column(rows: int):
    """One column of ``rows`` floats, ints, bools or labels."""
    floats = st.one_of(st.floats(), st.floats(-1e6, 1e6), st.sampled_from(FALLBACK_FLOATS))
    ints = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    return st.one_of(
        st.lists(floats, min_size=rows, max_size=rows).map(np.array),
        st.lists(ints, min_size=rows, max_size=rows).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=rows, max_size=rows).map(np.array),
        st.lists(LABELS, min_size=rows, max_size=rows),
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 300).flatmap(
    lambda rows: st.lists(table_column(rows), min_size=1, max_size=5)))
def test_tables_match_the_per_cell_oracle(columns):
    """Mixed tables of 0 to 300 rows, under and over the row count that
    picks the numpy pass, write the oracle's cells joined by "," and LF."""
    headers = [f"c{i}" for i in range(len(columns))]
    assert written_csv(headers, columns) == oracle_csv(headers, columns)


def test_column_kinds_keep_their_types():
    assert cli._column_cells(np.array([3, -1, 0])) == ["3", "-1", "0"]
    assert cli._column_cells(np.array([True, False])) == ["1", "0"]
    assert cli._column_cells(["X", "Ab"]) == ["X", "Ab"]
    for mixed_row in ([2, 2.0, "X", True], [np.int64(-1), np.float64(0.5), "Ab", False]):
        assert [cli._column_cells([v])[0] for v in mixed_row] == \
            list(map(old_cell, mixed_row))


def test_hyperfine_table_takes_the_numpy_pass(per_cell_floats):
    """A 2048-row hyperfine-scan table sends at most 2% of its float cells
    to the per-cell formatter, and writes the oracle's bytes."""
    cfg = load_config(None, ["scan.points=32"])
    headers, columns, _ = cli._cmd_hyperfine_scan(cfg)
    assert len(columns[0]) == 2048 >= cli._BULK_ROWS
    written = written_csv(headers, columns)
    floats = sum(len(col) for col in columns if np.asarray(col).dtype.kind == "f")
    assert sum(map(len, per_cell_floats)) <= 0.02 * floats
    assert written == oracle_csv(headers, columns)


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
    """A label holding a separator or NUL is refused before any byte is
    written, in a table written cell by cell and in one written in bulk."""
    for separator in (",", "\n", "\r", '"', "\0"):
        for rows in (1, 200):
            labels = ["x"] * (rows - 1) + [f"x{separator}y"]
            with pytest.raises(ValueError, match="needs quoting"):
                emit_csv(["a", "b"], [labels, np.arange(rows) / 3], tmp_path / "x.csv")
            assert not (tmp_path / "x.csv").exists()


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


def test_hyperfine_columns_match_the_row_assembly(caplog):
    """The gathered columns equal the old per-angle, per-curve rows, and
    the logged tracking overlap is the smallest matched entry of the
    full overlap matrices |V_k-1^T V_k|.

    At 1e5 W/cm^2 the light shift mixes M, so tracked curves change
    their dominant (J, M) label along the scan.
    """
    cfg = load_config(None, ["fields.intensity_w_cm2=100000", "scan.points=16"])
    with caplog.at_level(logging.INFO, logger="magictrap.cli"):
        _, columns, _ = cli._cmd_hyperfine_scan(cfg)
    # the per-row assembly the columnar scan replaced
    fields = cfg.field_configuration()
    basis = build_basis(1, fields.constants)
    thetas = np.linspace(0.0, 90.0, 16)
    at = replace(fields, theta_p=np.radians(thetas))
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, at, cfg.terms()), basis), at)
    order = np.arange(basis.dim)
    rows, labels, overlaps = [], [], [math.inf]
    for k, theta_deg in enumerate(thetas.tolist()):
        if k:
            match = track_states(sol[k - 1], sol[k])
            full = np.abs(sol.vectors[k - 1].T @ sol.vectors[k])
            overlaps.append(full[np.arange(basis.dim), match].min())
            order = match[order]
        at_k = sol[k]
        labels.append([at_k.labels[i] for i in order])
        rows.extend([theta_deg, curve, *at_k.labels[i], at_k.energies[i],
                     at_k.polarizabilities[i]] for curve, i in enumerate(order))
    assert any(a != b for a, b in zip(labels[0], labels[-1]))
    assert len(columns) == 6
    for col, expected in zip(columns, zip(*rows)):
        assert np.array_equal(col, expected)
        assert cli._column_cells(col) == list(map(old_cell, expected))
    k = int(np.argmin(overlaps))
    [logged] = [r.getMessage() for r in caplog.records if "overlap" in r.getMessage()]
    value, lo, hi = map(float, re.fullmatch(
        r"state tracking: smallest adjacent overlap (\S+), between (\S+) and (\S+) deg",
        logged).groups())
    assert (lo, hi) == (thetas[k - 1], thetas[k])
    assert value == pytest.approx(overlaps[k], abs=1e-6)
    assert value < 0.9  # the mixing shows in the overlap


@pytest.mark.parametrize("subcommand", ["solve-rovib", "imag-scan"])
def test_one_dense_solve_per_model(subcommand, small_config, tmp_path, monkeypatch):
    """The ground curve (n = 700) and the coupled pair (2n) are each
    diagonalized once per process and model; every J, the J=0 ground
    level and the J'=1 line that pins the shift included, comes from
    those two bases.  A run that moves only the line or the scan reuses
    them, and one on another grid solves its own."""
    sizes = []

    def counting(t, diagonals, *args):
        sizes.append(t.shape[0] * len(diagonals))
        return dense(t, diagonals, *args)

    def solved(*overrides):
        sizes.clear()
        argv = [subcommand, "--config", str(small_config), "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        return sorted(sizes)

    dense = radial._channel_eigenpairs
    monkeypatch.setattr(radial, "_channel_eigenpairs", counting)
    narb._bases.cache_clear()
    assert solved() == [700, 1400]
    assert solved("molecule.transition_cm1=11290.0", "scan.start_ghz=10.0",
                  "scan.j_values=1,2") == []
    assert solved("grid.points=300") == [300, 600]


def test_level_tables_are_solved_once_per_model(small_config, tmp_path, monkeypatch):
    """solve-rovib then imag-scan over J = 0..3 at 12 levels makes 10 block
    eigensolves in one process, one per table off the bases' reference J,
    where solving every call's tables made 13.  A repeat at another line
    and scan window reads every table the first pair solved, and makes none."""
    overrides = ["scan.j_values=0,1,2,3", "scan.max_levels=12"]
    narb.pinned_models(load_config(small_config, overrides))  # the dense solves, not counted
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))

    def solved(*more):
        sizes.clear()
        for subcommand in ("solve-rovib", "imag-scan"):
            argv = [subcommand, "--config", str(small_config), "--out", str(tmp_path)]
            for item in (*overrides, *more):
                argv += ["--override", item]
            assert main(argv) == 0
        return len(sizes)

    assert solved() == 10
    assert solved("molecule.transition_cm1=11290.0", "scan.start_ghz=10.0") == 0


@pytest.mark.parametrize("subcommand", ["solve-rovib", "imag-scan"])
@pytest.mark.parametrize("first, second", [("11306.4", "11290.0"), ("11290.0", "11306.4")])
def test_reused_bases_write_the_bytes_of_fresh_solves(subcommand, first, second,
                                                      small_config, tmp_path):
    """Bases reused from the memo (the fast path) write every byte that
    fresh solves (the slow path, the oracle) write, at the line they
    were pinned to and at another one."""
    csv_name = subcommand.replace("-", "_") + ".csv"

    def written(transition, fresh):
        if fresh:
            narb._bases.cache_clear()
        out = tmp_path / f"{transition}-{fresh}"
        assert main([subcommand, "--config", str(small_config), "--out", str(out),
                     "--override", "grid.points=300",
                     "--override", f"molecule.transition_cm1={transition}"]) == 0
        return (out / csv_name).read_bytes()

    slow_first = written(first, fresh=True)
    fast_second = written(second, fresh=False)
    fast_first = written(first, fresh=False)
    assert fast_first == slow_first
    assert fast_second == written(second, fresh=True)


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

    def counting(t, diagonals, *args):
        calls.append(t.shape[0] * len(diagonals))
        return dense(t, diagonals, *args)

    dense = radial._channel_eigenpairs
    monkeypatch.setattr(radial, "_channel_eigenpairs", counting)
    assert main([subcommand, "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "grid.points=300", "--override", "scan.j_values=0",
                 "--override", "scan.m=1"]) == 2
    err = capsys.readouterr().err
    assert ("[scan] m = 1 has no state at J = 0 of [scan] j_values "
            "(m must be an integer with |m| <= j)") in err
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


@pytest.mark.parametrize("j_values", ["20", "0,300"])
def test_imag_scan_j_beyond_the_3j_limit_exits_2(j_values, small_config, tmp_path,
                                                 capsys, monkeypatch):
    """imag-scan couples J to J + 1, so J + 1 must stay within the 3-j
    symbols' j <= 20: refused naming the key, before any dense solve."""
    calls = []
    dense = radial._channel_eigenpairs
    monkeypatch.setattr(radial, "_channel_eigenpairs",
                        lambda *args: calls.append(args) or dense(*args))
    assert main(["imag-scan", "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "grid.points=300",
                 "--override", f"scan.j_values={j_values}"]) == 2
    err = capsys.readouterr().err
    assert "[scan] j_values" in err and f"J = {j_values.split(',')[-1]}" in err
    assert not list(tmp_path.glob("*.csv"))
    assert calls == []


@pytest.mark.parametrize("points", [5, 201])
def test_a_scan_point_on_a_line_is_refused_in_ghz(points, tmp_path, capsys):
    """With [scan] points - 1 a multiple of 4, the bundled -50 to 150 GHz
    window puts a point on the reference line, and imag-scan refuses the
    scan with exit 3, naming that point by its detuning and the keys that
    set the axis."""
    assert main(["imag-scan", "--out", str(tmp_path), "--override", "grid.points=300",
                 "--override", f"scan.points={points}"]) == 3
    on_line = (points - 1) // 4 + 1
    assert capsys.readouterr().err == (
        f"numerical error: scan point {on_line} of {points}, at detuning 0 GHz, lies "
        "within 0.000363 GHz of a line out of J = 0, at 0 GHz; set [scan] points "
        f"({points}), start_ghz (-50) or stop_ghz (150) so that no scan point falls "
        "on a line\n")
    assert not list(tmp_path.glob("*.csv"))


def test_imag_scan_without_a_bound_x_level_exits_3(small_config, tmp_path, capsys,
                                                   monkeypatch):
    levels = radial.RovibBasis.levels

    def none_at_j1(basis, j, max_levels=None):
        return [] if basis.label == "X" and j == 1 else levels(basis, j, max_levels)

    monkeypatch.setattr(radial.RovibBasis, "levels", none_at_j1)
    assert main(["imag-scan", "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "grid.points=300", "--override", "scan.j_values=0,1"]) == 3
    assert "no X level is bound at J = 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key", ["rank_a", "rank_b"])
def test_bare_angle_search_with_rank_above_0_exits_2(key, small_config, tmp_path, capsys):
    """Under the bare method each (J, M) is one state: rank 1 names nothing."""
    argv = ["magic-find", "--config", str(small_config), "--out", str(tmp_path),
            "--override", "magic.kind=angle", "--override", "magic.method=bare",
            "--override", "magic.rank_a=0", "--override", "magic.rank_b=0"]
    assert main(argv) == 0
    assert main(argv + ["--override", f"magic.{key}=1"]) == 2
    assert f"{key} = 1" in capsys.readouterr().err


def test_unranked_angle_state_prints_rank_minus_1(small_config, tmp_path):
    assert main(["magic-find", "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "magic.kind=angle", "--override", "magic.method=bare",
                 "--override", "magic.rank_a=0"]) == 0
    _, rows = read_rows(tmp_path / "magic_find.csv")
    assert rows[0][:7] == ["angle", "0", "0", "0", "1", "0", "-1"]


@pytest.mark.parametrize("subcommand, overrides", [
    ("magic-find", ["magic.kind=angle"]),
    ("hyperfine-scan", ["scan.points=4"]),
], ids=["magic-find", "hyperfine-scan"])
def test_non_finite_hamiltonian_exits_2(subcommand, overrides, small_config, tmp_path,
                                        capsys):
    """d0 E overflows to inf at E = 1e308 kV/cm, and inf * 0 in the Stark
    block is NaN: refused as such, not as a labelling or tracking failure."""
    argv = [subcommand, "--config", str(small_config), "--out", str(tmp_path),
            "--override", "fields.e_field_kv_cm=1e308"]
    for item in overrides:
        argv += ["--override", item]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    assert "Hamiltonian has a non-finite (inf or NaN) entry" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_rootless_bracket_exits_3(small_config, tmp_path, capsys):
    assert main(["magic-find", "--config", str(small_config),
                 "--out", str(tmp_path),
                 "--override", "magic.bracket_lo_ghz=150",
                 "--override", "magic.bracket_hi_ghz=300"]) == 3
    assert "numerical error" in capsys.readouterr().err


EIGEN_ANGLE_ARGS = ["--override", "magic.kind=angle", "--override", "magic.method=eigen",
                    "--override", "magic.j_a=1", "--override", "magic.rank_a=0",
                    "--override", "magic.j_b=0", "--override", "magic.rank_b=0"]


@pytest.mark.parametrize("search_args", [
    [],
    [*EIGEN_ANGLE_ARGS, "--override", "fields.e_field_kv_cm=0.5"],
], ids=["detuning", "eigen"])
def test_unconverged_newton_search_exits_3(search_args, tmp_path, capsys, monkeypatch):
    """The step limit hit inside a search is a numerical failure, not a
    traceback."""
    rtsafe = magic._rtsafe
    monkeypatch.setattr(magic, "_rtsafe", lambda *args: rtsafe(*args, maxiter=2))
    assert main(["magic-find", "--out", str(tmp_path), *search_args]) == 3
    assert "Newton-bisection did not converge in 2 steps" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_degenerate_levels_leave_the_slope_unused_and_exit_3(tmp_path, capsys, monkeypatch):
    """Without B and E fields the hyperfine levels are degenerate where
    the J = 1 states cross, and the eigenstate labelled (1, 0, 0) at 70
    degrees is not the one at 40: the search exits 3 on that pick's
    overlap.  With the overlap check off, the search reaches the crossing,
    where E_i - E_j = 0 in the slope's sum.  It bisects instead, raises
    no RuntimeWarning (an error under the test settings), and fails the
    residual check, which names the degenerate state as its cause."""
    argv = ["magic-find", "--out", str(tmp_path), *EIGEN_ANGLE_ARGS,
            "--override", "fields.b_field_gauss=0", "--override", "fields.e_field_kv_cm=0"]
    assert main(argv) == 3
    assert ("state (1, 0, 0) at 70.000000 degrees overlaps the one picked at "
            "40.000000 degrees by 0.057") in capsys.readouterr().err
    monkeypatch.setattr(magic, "PICK_OVERLAP_MIN", 0.0)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical error: root at" in err and "fails the residual check" in err
    assert ("the slope there is nan, so a named state is degenerate "
            "and names no single eigenstate") in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("rank", [0, 1])
def test_an_eigen_search_whose_label_changes_state_exits_3(rank, tmp_path, capsys):
    """At 0.06 kV/cm the eigenstates labelled (1, 0, rank) at 40 and 70
    degrees are two different states.  The search exits 3 naming the state,
    both angles and their overlap, where it returned a crossing of states it
    did not name (55.4916 and 53.9393 degrees)."""
    assert main(["magic-find", "--out", str(tmp_path), *EIGEN_ANGLE_ARGS,
                 "--override", "fields.e_field_kv_cm=0.06",
                 "--override", f"magic.rank_a={rank}", "--override", f"magic.rank_b={rank}"]) == 3
    assert (f"numerical error: the eigenstate picked for state (1, 0, {rank}) at 70.000000 "
            "degrees overlaps the one picked at 40.000000 degrees by 0.000, below 0.5"
            ) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_eigen_angle_summary_reports_the_slope(tmp_path, capsys):
    """The one-line summary carries d(Delta alpha)/d(theta) at the root;
    the CSV keeps its columns.  A bare search prints its slope too, and a
    detuning search its d(Delta alpha)/d(Delta) in a.u. per GHz."""
    assert main(["magic-find", "--out", str(tmp_path), *EIGEN_ANGLE_ARGS,
                 "--override", "fields.e_field_kv_cm=0.5"]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert re.search(r"deg, residual \S+, slope -2\.49\de-01 Hz/\(W/cm\^2\) per deg$", summary)
    header, _ = read_rows(tmp_path / "magic_find.csv")
    assert header == ["kind", "j_a", "m_a", "rank_a", "j_b", "m_b", "rank_b",
                      "location", "residual", "bracket_lo", "bracket_hi"]
    assert main(["magic-find", "--out", str(tmp_path), "--override", "magic.kind=angle",
                 "--override", "magic.method=bare", "--override", "magic.j_a=1",
                 "--override", "magic.j_b=0"]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith("residual 3.057e-10, slope -2.555e-01 Hz/(W/cm^2) per deg")
    assert main(["magic-find", "--out", str(tmp_path)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith("GHz, residual 0.000e+00 a.u., slope -2.049e+00 a.u. per GHz")


def test_zero_width_line_has_no_pole_in_the_bracket(tmp_path, capsys):
    """With no linewidth alpha is flat and finite across the branch
    structure: the search finds no sign change instead of refusing poles
    the closed form does not have."""
    assert main(["magic-find", "--out", str(tmp_path),
                 "--override", "molecule.gamma_hz=0",
                 "--override", "magic.bracket_lo_ghz=-20",
                 "--override", "magic.bracket_hi_ghz=140"]) == 3
    err = capsys.readouterr().err
    assert "no sign change over (-20.0, 140.0) GHz" in err
    assert "contains poles" not in err


def test_a_run_too_large_for_memory_exits_2(small_config, tmp_path, capsys, monkeypatch):
    """An allocation the host refuses is a configuration problem, reported
    on one line, not a traceback."""
    def refuse(*args):
        raise MemoryError("Unable to allocate 305. GiB for an array with shape "
                          "(10000000, 64, 64) and data type float64")

    monkeypatch.setattr(cli, "diagonalize", refuse)
    assert main(["hyperfine-scan", "--config", str(small_config), "--out", str(tmp_path),
                 "--override", "scan.points=16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory (Unable to allocate")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("lo, hi", [(140, 60), (100, 100)])
def test_unordered_detuning_bracket_exits_2(small_config, tmp_path, capsys, lo, hi):
    """lo >= hi is refused before any search, as for angle brackets."""
    assert main(["magic-find", "--config", str(small_config), "--out", str(tmp_path),
                 "--override", f"magic.bracket_lo_ghz={lo}",
                 "--override", f"magic.bracket_hi_ghz={hi}"]) == 2
    err = capsys.readouterr().err
    assert f"bracket ({lo:.1f}, {hi:.1f}) GHz must have lo < hi" in err
    assert not list(tmp_path.glob("*.csv"))


def test_the_shared_parser_keeps_no_overrides_between_calls(tmp_path, monkeypatch):
    seen = []

    def recording(path, overrides):
        seen.append(list(overrides))
        return load_config(path, overrides)

    monkeypatch.setattr(cli, "load_config", recording)
    with redirect_stdout(io.StringIO()):
        assert main(["alpha-scan", "--out", str(tmp_path),
                     "--override", "scan.points=3"]) == 0
        assert main(["alpha-scan", "--out", str(tmp_path)]) == 0
    assert seen == [["scan.points=3"], []]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv", [[], ["no-such-subcommand"]], ids=["missing", "unknown"])
def test_missing_or_unknown_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "subcommand" in capsys.readouterr().err


def test_output_path_collision_exits_4(small_config, tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert main(["alpha-scan", "--config", str(small_config),
                 "--out", str(blocker)]) == 4
    assert "i/o error" in capsys.readouterr().err


OUTPUTS = ("alpha_scan.csv", "effective-config.ini")


def _alpha_scan(config, out) -> dict[str, bytes]:
    """Run alpha-scan into ``out``; the bytes of both output files."""
    with redirect_stdout(io.StringIO()):
        assert main(["alpha-scan", "--config", str(config), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def _stale(out: Path) -> None:
    """Output files longer than any run writes, as a previous run's."""
    out.mkdir()
    for name in OUTPUTS:
        (out / name).write_text("stale\n" * 2000)


def test_a_rerun_replaces_longer_old_files(small_config, tmp_path):
    fresh = _alpha_scan(small_config, tmp_path / "fresh")
    out = tmp_path / "rerun"
    _stale(out)
    # a second name for each old file keeps its old bytes: the run writes a
    # new file instead of truncating the old one
    for name in OUTPUTS:
        (tmp_path / f"kept-{name}").hardlink_to(out / name)
    assert _alpha_scan(small_config, out) == fresh
    for name in OUTPUTS:
        assert (tmp_path / f"kept-{name}").read_text() == "stale\n" * 2000


def test_a_symlinked_csv_is_written_through(small_config, tmp_path):
    fresh = _alpha_scan(small_config, tmp_path / "fresh")
    out = tmp_path / "linked"
    _stale(out)
    target = tmp_path / "target.csv"
    (out / "alpha_scan.csv").replace(target)
    (out / "alpha_scan.csv").symlink_to(target)
    assert _alpha_scan(small_config, out) == fresh
    assert (out / "alpha_scan.csv").is_symlink()
    assert target.read_bytes() == fresh["alpha_scan.csv"]


def test_a_refused_unlink_writes_the_file_in_place(small_config, tmp_path, monkeypatch):
    fresh = _alpha_scan(small_config, tmp_path / "fresh")
    out = tmp_path / "sticky"
    _stale(out)
    refused = []

    def refuse(path, missing_ok=False):
        refused.append(path.name)
        raise PermissionError(1, "Operation not permitted", str(path))

    monkeypatch.setattr(Path, "unlink", refuse)
    assert _alpha_scan(small_config, out) == fresh
    assert sorted(refused) == sorted(OUTPUTS)


# ---- the configuration contract --------------------------------------


EIGEN_ANGLE = ["magic.kind=angle", "magic.method=eigen"]


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
    ("magic-find", ["magic.m_a=1", "magic.m_b=1"],
     "[magic] m_a = 1 has no state at J = 0"),
    ("calibrate", ["magic.m_a=2", "magic.m_b=2"],
     "[magic] m_a = 2 has no state at J = 0"),
    ("hyperfine-scan", ["molecule.spin_na=4.5"], "[molecule] spin_na = '4.5': must be <= 4"),
    ("magic-find", ["molecule.spin_rb=7.5"], "[molecule] spin_rb = '7.5': must be <= 4"),
    ("magic-find", [*EIGEN_ANGLE, "magic.j_b=0", "magic.m_b=1"],
     "[magic] m_b = 1 has no state at J = 0 of [magic] j_b"),
    ("magic-find", [*EIGEN_ANGLE, "magic.j_a=2"],
     "[magic] j_a = 2 is outside the hyperfine basis of the eigen method (J <= 1)"),
    ("magic-find", [*EIGEN_ANGLE, "magic.m_a=2"],
     "[magic] m_a = 2 has no state at J = 0 of [magic] j_a"),
    ("magic-find", ["magic.kind=angle", "magic.method=auto", "magic.j_b=2"],
     "[magic] j_b = 2 is outside the hyperfine basis of the eigen method"),
])
def test_out_of_range_value_exits_2_naming_its_key(subcommand, overrides, key,
                                                   tmp_path, capsys, monkeypatch):
    """A value out of range exits 2 naming its key, before any output file
    is written or any eigensolve runs."""
    solved = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: solved.append(args))
    argv = [subcommand, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not solved


@pytest.mark.parametrize("key, accepted, rejected", [
    ("molecule.b_v_cm1", "1e-3", ["0", "-1", "inf"]),
    ("molecule.gamma_hz", "0", ["-1", "nan"]),
    ("molecule.eqq_rb_mhz", "-3", ["-inf"]),
    ("molecule.spin_na", "2.5", ["0", "1.2", "-1.5", "4.5"]),
    ("molecule.quadrupole_denominator", "literal", ["i(i-1)"]),
    ("grid.r_min_bohr", "0.5", ["0"]),
    ("grid.points", "8", ["0", "7", "8.0"]),
    ("fields.e_field_kv_cm", "0", ["-0.5"]),
    ("fields.theta_p_deg", "-30", ["nan"]),
    ("fields.terms", "rotation,stark", ["", "rotation,spin", "stark,stark"]),
    ("scan.j_values", "0,3", ["0,-1", "0,x", "1,1"]),
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


def test_bundled_config_is_read_once_and_overrides_stay_in_their_call(monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if Path(file) == bundled_defaults_path():
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    config._bundled_sections.cache_clear()
    first = load_config(overrides=["magic.kind=angle", "fields.e_field_kv_cm=0.5"])
    first.sections["scan"]["m"] = 7
    second = load_config()
    assert len(opened) == 1
    assert (first.get("magic", "kind"), first.get("fields", "e_field_kv_cm")) == ("angle", 0.5)
    assert second.sections == BUNDLED.sections
    assert second.get("magic", "kind") == "detuning"
    assert second.get("fields", "e_field_kv_cm") == 0.0


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
            return ["", "bogus", "0", "1", "20", "300", value]
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
