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
from .polarizability import alpha_analytic, alpha_imag
from .radial import linewidth, radial_matrix_element, solve_coupled, solve_single
from .units import HARTREE_TO_CM1, HARTREE_TO_GHZ

__all__ = ["main", "run", "emit_csv", "fmt12"]


def fmt12(value: float) -> str:
    """12-significant-digit scientific notation with a bare exponent."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    mantissa, exponent = f"{value:.11e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt12(float(value))
    text = str(value)
    if any(ch in text for ch in ",\n\r\""):
        raise ValueError(f"cell {text!r} needs quoting; use separator-free labels")
    return text


def emit_csv(headers: list[str], rows: list[list], path: str | Path) -> None:
    """Write a rectangular table as LF-terminated UTF-8 CSV."""
    width = len(headers)
    out = [",".join(headers)]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        out.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")


# ---- subcommands ----------------------------------------------------


def _cmd_solve_rovib(cfg: RunConfig):
    ground, model, _ = narb.radial_models(cfg)
    grid = cfg.radial_grid()
    mass = cfg.reduced_mass_amu()
    j_values = cfg.get("scan", "j_values")
    max_levels = cfg.get("scan", "max_levels")

    rows = []
    for j in j_values:
        for lv in solve_single(ground, j, mass, grid, max_levels=max_levels):
            rows.append(["X", lv.v, lv.j, lv.energy * HARTREE_TO_CM1,
                         lv.rotational_constant() * HARTREE_TO_CM1, 1.0, 0.0])
        for lv in solve_coupled(model, j, mass, grid, max_levels=max_levels):
            rows.append(["Ab", lv.v, lv.j, lv.energy * HARTREE_TO_CM1,
                         lv.rotational_constant() * HARTREE_TO_CM1,
                         lv.channel_fractions[0], lv.channel_fractions[1]])
    headers = ["state", "v", "j", "energy_cm1", "b_rot_cm1", "frac_a", "frac_b"]
    summary = (f"solved {len(rows)} levels (X and coupled A-b) "
               f"for J in {list(j_values)}")
    return headers, rows, summary


def _detuning_axis(cfg: RunConfig):
    """Scan detunings (GHz) from the reference line and their photon energies."""
    deltas = np.linspace(cfg.get("scan", "start_ghz"),
                         cfg.get("scan", "stop_ghz"),
                         cfg.get("scan", "points"))
    return deltas, cfg.spec().reference.energy + deltas / HARTREE_TO_GHZ


def _cmd_alpha_scan(cfg: RunConfig):
    spec = cfg.spec()
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    m = cfg.get("scan", "m")
    j_values = cfg.get("scan", "j_values")
    deltas, nu = _detuning_axis(cfg)
    notes: set[str] = set()
    rows = []
    for j in j_values:
        val = alpha_analytic(spec, nu, j, m, theta_p)
        notes.update(val.notes)
        rows.extend([delta, j, m, a] for delta, a in zip(deltas, val.real))
    for note in sorted(notes):
        print(f"note: {note} (some scan points)", file=sys.stderr)
    headers = ["detuning_ghz", "j", "m", "alpha_au"]
    summary = (f"alpha(Delta) for J in {list(j_values)}, M={m}: "
               f"{len(deltas)} detunings in "
               f"[{deltas[0]:g}, {deltas[-1]:g}] GHz")
    return headers, rows, summary


def _imag_inputs(cfg: RunConfig):
    ground, model, dipole = narb.radial_models(cfg)
    grid = cfg.radial_grid()
    mass = cfg.reduced_mass_amu()
    j_values = cfg.get("scan", "j_values")
    max_levels = cfg.get("scan", "max_levels")
    j_excited = sorted({j + s for j in j_values for s in (-1, 1) if j + s >= 0})

    x_levels = [solve_single(ground, j, mass, grid, max_levels=1)[0]
                for j in sorted(set(j_values))]
    ab_levels = []
    for jp in j_excited:
        ab_levels.extend(solve_coupled(model, jp, mass, grid, max_levels=max_levels))
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
    x_levels, ab_levels, dipoles, gammas = _imag_inputs(cfg)
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    m = cfg.get("scan", "m")
    j_values = cfg.get("scan", "j_values")
    deltas, nu = _detuning_axis(cfg)
    rows = []
    for j in j_values:
        val = alpha_imag(x_levels, ab_levels, dipoles, gammas, nu, j, m, theta_p)
        rows.extend([delta, j, m, a] for delta, a in zip(deltas, val.imag))
    headers = ["detuning_ghz", "j", "m", "im_alpha_au"]
    summary = (f"Im alpha for J in {list(j_values)}, M={m} from "
               f"{len(ab_levels)} retained coupled levels")
    return headers, rows, summary


def _cmd_hyperfine_scan(cfg: RunConfig):
    fields = cfg.field_configuration()
    basis = build_basis(1, fields.constants.i_a, fields.constants.i_b)
    thetas = np.linspace(cfg.get("scan", "start_deg"),
                         cfg.get("scan", "stop_deg"),
                         cfg.get("scan", "points"))
    at = replace(fields, theta_p=np.radians(thetas))
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, at, cfg.terms()), basis), at)
    # chain curve indices through maximal-overlap tracking
    order = np.arange(basis.dim)
    rows = []
    for k, theta_deg in enumerate(thetas.tolist()):
        if k:
            order = track_states(sol[k - 1], sol[k])[order]
        at_k = sol[k]
        rows.extend([theta_deg, curve, *at_k.labels[i], at_k.energies[i],
                     at_k.polarizabilities[i]] for curve, i in enumerate(order))
    headers = ["theta_deg", "curve", "j", "m", "energy_mhz", "alpha_hz_wcm2"]
    summary = (f"{basis.dim} eigenstate curves over theta in "
               f"[{thetas[0]:g}, {thetas[-1]:g}] deg, {len(thetas)} points")
    return headers, rows, summary


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


def _cmd_magic_find(cfg: RunConfig):
    kind = cfg.get("magic", "kind")
    j_a, j_b = cfg.get("magic", "j_a"), cfg.get("magic", "j_b")
    if kind == "detuning":
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
    elif kind == "angle":
        state_a = (j_a, cfg.get("magic", "m_a"))
        state_b = (j_b, cfg.get("magic", "m_b"))
        rank_a = cfg.get("magic", "rank_a", None)
        rank_b = cfg.get("magic", "rank_b", None)
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
    else:
        raise ConfigError(f"[magic] kind must be 'detuning' or 'angle', got {kind!r}")
    return _magic_headers(), [row], summary


def _cmd_calibrate(cfg: RunConfig):
    j_a, j_b = cfg.get("magic", "j_a"), cfg.get("magic", "j_b")
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
    rows = [[j_a, j_b, m, target, gamma_hz, check.location, check.residual]]
    summary = (f"gamma/h = {gamma_hz:.6f} Hz puts the J={j_a}/J={j_b} "
               f"crossing at {check.location:.6f} GHz (target {target:g})")
    return headers, rows, summary


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
    headers, rows, summary = _SUBCOMMANDS[subcommand](cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{subcommand.replace('-', '_')}.csv"
    emit_csv(headers, rows, csv_path)
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
