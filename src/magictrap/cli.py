"""Command-line scans and searches with deterministic CSV output.

Subcommands
-----------
solve-rovib     bound levels of the ground curve and the coupled pair
alpha-scan      closed-form real polarizability over a detuning window
imag-scan       imaginary polarizability from the coupled-model lines
hyperfine-scan  eigenstate polarizabilities over a polarization-angle scan
magic-find      one bracketed magic detuning or angle
calibrate       linewidth scale reproducing a target magic detuning

Every run writes ``<subcommand>.csv`` (dashes as underscores) and
``effective-config.ini`` into ``--out``.  Output is byte-stable: same
config, same bytes.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure
(no bracketed root, pole proximity, calibration impossible, grid too
coarse), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import narb
from .config import RunConfig, load_config
from .errors import (
    CalibrationError,
    ConfigError,
    DataFormatError,
    GridError,
    NoRootError,
    PoleProximityError,
    UnitError,
)
from .hyperfine import (
    build_basis,
    build_hamiltonian,
    diagonalize,
    eigenstate_polarizability,
    track_states,
)
from .magic import calibrate_gamma, find_magic_angle, find_magic_detuning
from .polarizability import alpha_analytic, alpha_imag, validity_notes
from .radial import linewidth, radial_matrix_element
from .units import HARTREE_TO_CM1, HARTREE_TO_GHZ

__all__ = ["main", "run", "emit_csv"]

_SEPARATORS = frozenset(",\n\r\"")

logger = logging.getLogger(__name__)


def _column_cells(column) -> list[str]:
    """One column's cells: floats in 12-significant-digit scientific
    notation with a bare exponent, ints and bools as integers, anything
    else as its text, which must hold no separator."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        text = ("%.11e\n" * values.size) % tuple(values.tolist())
        # "%.11e" writes a signed exponent of at least two digits
        text = text.replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")
        return text.split("\n")[:-1]
    if values.dtype.kind in "biu":
        return list(map(str, values.astype(int).tolist()))
    cells = list(map(str, column))
    if not _SEPARATORS.isdisjoint("".join(cells)):
        bad = next(c for c in cells if not _SEPARATORS.isdisjoint(c))
        raise ValueError(f"cell {bad!r} needs quoting; use separator-free labels")
    return cells


def emit_csv(headers: list[str], columns: list, path: str | Path) -> None:
    """Write one 1-D array or sequence per header as LF-terminated UTF-8 CSV.

    Give each column the type its cells print as: ``np.asarray`` turns
    a list mixing ints and floats into floats.
    """
    if len(columns) != len(headers):
        raise ValueError(f"row width {len(columns)} != header width {len(headers)}")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {lengths}")
    cells = [_column_cells(col) for col in columns]
    lines = [",".join(headers), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---- subcommands ----------------------------------------------------


def _cmd_solve_rovib(cfg: RunConfig):
    *_, x_basis, ab_basis = narb.pinned_models(cfg)
    j_values = cfg.get("scan", "j_values")
    max_levels = cfg.get("scan", "max_levels")
    levels = []
    for j in j_values:
        levels += x_basis.levels(j, max_levels)
        levels += ab_basis.levels(j, max_levels)
    headers = ["state", "v", "j", "energy_cm1", "b_rot_cm1", "frac_a", "frac_b"]
    columns = [
        [lv.label for lv in levels],  # "X", or "Ab" for the coupled pair
        [lv.v for lv in levels],
        [lv.j for lv in levels],
        [lv.energy * HARTREE_TO_CM1 for lv in levels],
        [lv.rotational_constant() * HARTREE_TO_CM1 for lv in levels],
        [lv.channel_fractions[0] for lv in levels],
        # an X level has its one channel only
        [(*lv.channel_fractions, 0.0)[1] for lv in levels],
    ]
    summary = (f"solved {len(levels)} levels (X and coupled A-b) "
               f"for J in {list(j_values)}")
    return headers, columns, summary


def _detuning_axis(cfg: RunConfig):
    """Scan detunings (GHz) from the reference line and their photon energies."""
    deltas = np.linspace(cfg.get("scan", "start_ghz"),
                         cfg.get("scan", "stop_ghz"),
                         cfg.get("scan", "points"))
    return deltas, cfg.spec().reference.energy + deltas / HARTREE_TO_GHZ


def _scan_m(cfg: RunConfig) -> int:
    """[scan] m, checked against every [scan] j_values entry before any solve."""
    m = cfg.get("scan", "m")
    missing = [j for j in cfg.get("scan", "j_values") if abs(m) > j]
    if missing:
        raise ConfigError(
            f"[scan] m = {m} has no state at J = {missing[0]} of [scan] j_values "
            "(m must be an integer with |m| <= j)"
        )
    return m


def _detuning_columns(deltas, j_values, m: int, per_j):
    """(detuning, J, M, value) columns of a scan: the axis once per J."""
    n = len(deltas)
    return [np.tile(deltas, len(j_values)), np.repeat(j_values, n),
            np.full(n * len(j_values), m), np.concatenate(per_j)]


def _cmd_alpha_scan(cfg: RunConfig):
    spec = cfg.spec()
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    m = _scan_m(cfg)
    j_values = cfg.get("scan", "j_values")
    deltas, nu = _detuning_axis(cfg)
    per_j = [alpha_analytic(spec, nu, j, m, theta_p) for j in j_values]
    for note in sorted({note for j in j_values for note in validity_notes(spec, nu, j)}):
        logger.warning("note: %s (some scan points)", note)
    headers = ["detuning_ghz", "j", "m", "alpha_au"]
    columns = _detuning_columns(deltas, j_values, m, per_j)
    summary = (f"alpha(Delta) for J in {list(j_values)}, M={m}: "
               f"{len(deltas)} detunings in "
               f"[{deltas[0]:g}, {deltas[-1]:g}] GHz")
    return headers, columns, summary


def _imag_inputs(cfg: RunConfig):
    ground, _, dipole, x_basis, ab_basis = narb.pinned_models(cfg)
    j_values = cfg.get("scan", "j_values")
    max_levels = cfg.get("scan", "max_levels")
    j_excited = sorted({j + s for j in j_values for s in (-1, 1) if j + s >= 0})

    x_levels = [x_basis.levels(j, 1)[0] for j in sorted(set(j_values))]
    ab_levels = [lv for jp in j_excited for lv in ab_basis.levels(jp, max_levels)]
    pairs = {(0, 0): dipole}
    dipoles = {
        (xi, ai): radial_matrix_element(x, dipole, ab, pairs=pairs)
        for xi, x in enumerate(x_levels)
        for ai, ab in enumerate(ab_levels)
        if abs(ab.j - x.j) == 1
    }
    gammas = [linewidth(ab, [(ground, dipole)]) for ab in ab_levels]
    return x_levels, ab_levels, dipoles, gammas


def _cmd_imag_scan(cfg: RunConfig):
    m = _scan_m(cfg)
    x_levels, ab_levels, dipoles, gammas = _imag_inputs(cfg)
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    j_values = cfg.get("scan", "j_values")
    deltas, nu = _detuning_axis(cfg)
    per_j = [alpha_imag(x_levels, ab_levels, dipoles, gammas, nu, j, m, theta_p)
             for j in j_values]
    headers = ["detuning_ghz", "j", "m", "im_alpha_au"]
    summary = (f"Im alpha for J in {list(j_values)}, M={m} from "
               f"{len(ab_levels)} retained coupled levels")
    return headers, _detuning_columns(deltas, j_values, m, per_j), summary


def _cmd_hyperfine_scan(cfg: RunConfig):
    fields = cfg.field_configuration()
    basis = build_basis(1, fields.constants)
    thetas = np.linspace(cfg.get("scan", "start_deg"),
                         cfg.get("scan", "stop_deg"),
                         cfg.get("scan", "points"))
    at = replace(fields, theta_p=np.radians(thetas))
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, at, cfg.terms()), basis), at)
    # order[k, curve]: the eigenstate index that continues each curve at
    # angle k, chained through maximal-overlap tracking
    order = np.empty((len(thetas), basis.dim), dtype=int)
    order[0] = np.arange(basis.dim)
    for k in range(1, len(thetas)):
        order[k] = track_states(sol[k - 1], sol[k])[order[k - 1]]
    labels = np.take_along_axis(np.array(sol.labels), order[..., None], axis=1)
    headers = ["theta_deg", "curve", "j", "m", "energy_mhz", "alpha_hz_wcm2"]
    columns = [
        np.repeat(thetas, basis.dim),
        np.tile(np.arange(basis.dim), len(thetas)),
        labels[..., 0].ravel(),
        labels[..., 1].ravel(),
        np.take_along_axis(sol.energies, order, axis=1).ravel(),
        np.take_along_axis(sol.polarizabilities, order, axis=1).ravel(),
    ]
    summary = (f"{basis.dim} eigenstate curves over theta in "
               f"[{thetas[0]:g}, {thetas[-1]:g}] deg, {len(thetas)} points")
    return headers, columns, summary


def _magic_headers():
    return ["kind", "j_a", "m_a", "rank_a", "j_b", "m_b", "rank_b",
            "location", "residual", "bracket_lo", "bracket_hi"]


def _shared_m(cfg: RunConfig) -> int:
    """The one M that detuning searches and calibration use for both states."""
    m = cfg.get("magic", "m_a")
    m_b = cfg.get("magic", "m_b", m)
    if m_b != m:
        raise ConfigError(
            f"[magic] m_b = {m_b} differs from m_a = {m}; detuning searches "
            "and calibrate use one M for both states"
        )
    return m


def _distinct_states(state_a, state_b) -> None:
    """Reject a search between a state and itself: its objective is 0 everywhere."""
    if state_a == state_b:
        raise ConfigError(
            f"[magic] j_a and j_b name the same state {state_a}; a magic "
            "condition needs two different states"
        )


def _cmd_magic_find(cfg: RunConfig):
    kind = cfg.get("magic", "kind")
    j_a, j_b = cfg.get("magic", "j_a"), cfg.get("magic", "j_b")
    if kind == "detuning":
        _distinct_states(j_a, j_b)
        m = _shared_m(cfg)
        sol = find_magic_detuning(
            cfg.spec(), j_a, j_b, m=m,
            theta_p=math.radians(cfg.get("fields", "theta_p_deg")),
            bracket=(cfg.get("magic", "bracket_lo_ghz"),
                     cfg.get("magic", "bracket_hi_ghz")),
        )
        row = [sol.kind, j_a, m, -1, j_b, m, -1,
               sol.location, sol.residual, sol.bracket[0], sol.bracket[1]]
        summary = (f"magic detuning J={j_a}/J={j_b} (M={m}) at "
                   f"{sol.location:.6f} GHz, residual {sol.residual:.3e} a.u.")
    else:  # "angle"
        state_a = (j_a, cfg.get("magic", "m_a"))
        state_b = (j_b, cfg.get("magic", "m_b"))
        rank_a = cfg.get("magic", "rank_a", None)
        rank_b = cfg.get("magic", "rank_b", None)
        # an unranked state is its character's only one, i.e. rank 0
        _distinct_states((*state_a, rank_a or 0), (*state_b, rank_b or 0))
        if rank_a is not None:
            state_a += (rank_a,)
        if rank_b is not None:
            state_b += (rank_b,)
        sol = find_magic_angle(
            cfg.field_configuration(), state_a, state_b,
            bracket=(cfg.get("magic", "bracket_lo_deg"),
                     cfg.get("magic", "bracket_hi_deg")),
            terms=cfg.terms(),
            method=cfg.get("magic", "method"),
        )
        row = [sol.kind,
               j_a, state_a[1], rank_a if rank_a is not None else -1,
               j_b, state_b[1], rank_b if rank_b is not None else -1,
               sol.location, sol.residual, sol.bracket[0], sol.bracket[1]]
        summary = (f"magic angle {state_a}/{state_b} at "
                   f"{sol.location:.6f} deg, residual {sol.residual:.3e}")
    return _magic_headers(), [[cell] for cell in row], summary


def _cmd_calibrate(cfg: RunConfig):
    j_a, j_b = cfg.get("magic", "j_a"), cfg.get("magic", "j_b")
    _distinct_states(j_a, j_b)
    m = _shared_m(cfg)
    target = cfg.get("magic", "target_ghz")
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    calibrated = calibrate_gamma(cfg.spec(), (j_a, j_b), target, m=m,
                                 theta_p=theta_p)
    gamma_hz = calibrated.reference.gamma * HARTREE_TO_GHZ * 1e9
    span = max(2.0, 0.15 * abs(target))
    check = find_magic_detuning(calibrated, j_a, j_b, m=m, theta_p=theta_p,
                                bracket=(target - span, target + span))
    headers = ["j_a", "j_b", "m", "target_ghz", "gamma_hz", "crossing_ghz",
               "residual_au"]
    columns = [[cell] for cell in (j_a, j_b, m, target, gamma_hz, check.location,
                                   check.residual)]
    summary = (f"gamma/h = {gamma_hz:.6f} Hz puts the J={j_a}/J={j_b} "
               f"crossing at {check.location:.6f} GHz (target {target:g})")
    return headers, columns, summary


_SUBCOMMANDS = {
    "solve-rovib": _cmd_solve_rovib,
    "alpha-scan": _cmd_alpha_scan,
    "imag-scan": _cmd_imag_scan,
    "hyperfine-scan": _cmd_hyperfine_scan,
    "magic-find": _cmd_magic_find,
    "calibrate": _cmd_calibrate,
}


def run(subcommand: str, cfg: RunConfig, out_dir: str | Path = ".") -> Path:
    """Execute one subcommand; returns the CSV path it wrote."""
    headers, columns, summary = _SUBCOMMANDS[subcommand](cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{subcommand.replace('-', '_')}.csv"
    emit_csv(headers, columns, csv_path)
    cfg.dump(out / "effective-config.ini")
    print(summary)
    print(f"wrote {csv_path}")
    return csv_path


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="magictrap",
        description="Magic optical-trapping conditions for rotational states "
                    "of a bialkali molecule",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", default=None,
                       help="INI config (default: bundled NaRb constants)")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        run(args.subcommand, cfg, args.out)
    except (ConfigError, UnitError, DataFormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoRootError, PoleProximityError, CalibrationError, GridError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
