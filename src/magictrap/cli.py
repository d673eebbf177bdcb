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
config, same bytes, given the bits of ``radial._eigh``, through which
every eigensolve goes and which hang on the BLAS thread count and the
OpenBLAS kernel family.  So the bundled ``imag-scan`` bytes differ at
``OPENBLAS_NUM_THREADS=1`` from those at 2 to 4 threads, and under the
AVX2 kernels on an AVX-512 host (``OPENBLAS_CORETYPE=Haswell``) they,
the ``hyperfine-scan`` bytes and the eigen ``magic-find`` angle bytes change.

Each CSV is one header row, then one LF-terminated row per record.
Floats print with 12 significant digits and a bare exponent
(``1.00000000000e5``, ``-2.50000000000e-12``, ``nan``, ``-inf``): the
bytes of ``"%.11e"`` without the exponent's "+" and leading zeros.  Ints
and bools print as integers, and labels as their text, which may hold
no ``,``, ``"``, CR, LF or NUL.  A table of 40 rows or more is built as
one array of 4-byte words (``magictrap.csvtable``): each cell is whole
words looked up in tables of formatted pieces, NUL-padded, and its
floats are rounded in one numpy pass:
e = floor(log10|x|), and s = |x| 10**(11 - e), taken with a correctly
rounded power of ten, has 12 integer digits.  The power and the product
are each rounded within 2**-53 relative, and s <= 1e12, so s lies
within 2.3e-4 of its exact value, and ``rint(s)`` rounds as ``"%.11e"``
does wherever the fractional part of s is more than 1e-3 from .5.  The
cells nearer the tie, ±0, subnormals, nan, ±inf and |x| outside
(1e-280, 1e280) are formatted by ``"%.11e"`` itself.

``hyperfine-scan`` takes energies, (J, M) labels and alpha from one call
of ``hyperfine._angle_solver``, the eigen ``magic-find`` step's pipeline,
on its angle axis; these and the overlaps |<v_k-1|v_k>| are bit-identical
under v -> -v.  It matches each adjacent pair of angles and logs the
smallest matched overlap from one stack of |V_k-1^T V_k|.

``solve-rovib`` and ``imag-scan`` read each J's levels as one table of
arrays (``radial.RovibLevels``), and ``imag-scan`` its dipoles and
linewidths as one array each.  The dipole array holds only the pairs
``alpha_imag`` reads, each X level at J with the A-b levels at J' = J +- 1,
one quadrature block per (J, J'); every other pair is NaN.  The bases keep
each table they solve, so in one process ``imag-scan`` reads the tables
``solve-rovib`` solved.

Exit codes: 0 success, 2 configuration problem (also a run too large
for memory), 3 numerical failure (no bracketed root, pole proximity,
calibration impossible, grid too coarse, an eigensolver that does not
converge: ``numpy.linalg.LinAlgError``, caught before the ``ValueError``
it derives from), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import narb
from .angular import _MAX_TWO_J
from .config import RunConfig, _write_output, load_config
from .errors import (
    CalibrationError,
    ConfigError,
    GridError,
    NoRootError,
    PoleProximityError,
    UnitError,
)
from .hyperfine import _angle_solver, _match, build_basis
from .magic import _angle_method, calibrate_gamma, find_magic_angle, find_magic_detuning
from .polarizability import alpha_analytic, alpha_imag, validity_notes
from .radial import RovibLevels, linewidth, radial_matrix_element
from .units import HARTREE_TO_CM1, HARTREE_TO_GHZ

__all__ = ["main", "run", "emit_csv"]

# a label cell may hold none of these: the writer never quotes, and a
# NUL byte is not text
_SEPARATORS = frozenset(",\n\r\"\0")

logger = logging.getLogger(__name__)

# tables of fewer rows are formatted cell by cell: on a 2-core x86 host the
# two paths cost the same, 0.04-0.14 ms, at 28 to 40 rows of the
# alpha-scan, imag-scan, hyperfine-scan, magic-find and solve-rovib
# layouts, and a one-row table costs 0.05-0.08 ms in bulk against
# 0.006-0.010 ms cell by cell
_BULK_ROWS = 40


def _column_cells(column) -> list[str]:
    """One column's cells formatted one at a time: floats in
    12-significant-digit scientific notation with a bare exponent, ints
    and bools as integers, anything else as its text, which must hold no
    separator.  It writes a short table, and the text columns and the
    float cells the numpy pass cannot round beyond doubt of a long one.

    A one-cell list of a float or an int, a column of a one-row table, is
    typed by its cell as ``np.asarray`` would type it, with no array made."""
    cell = column[0] if type(column) is list and len(column) == 1 else None
    if isinstance(cell, (float, np.floating)):
        kind, values = "f", column
    elif isinstance(cell, (int, np.integer, np.bool_)):
        kind, values = "i", column
    else:
        values = np.asarray(column)
        kind = values.dtype.kind
        if kind in "fbiu":
            values = values.tolist()
    if kind == "f":
        text = ("%.11e\n" * len(values)) % tuple(values)
        # "%.11e" writes a signed exponent of at least two digits
        text = text.replace("e+0", "e").replace("e-0", "e-").replace("e+", "e")
        return text.split("\n")[:-1]
    if kind in "biu":
        # through Python ints, so a uint64 above 2**63 - 1 stays positive
        return [str(int(v)) for v in values]
    cells = list(map(str, column))
    if not _SEPARATORS.isdisjoint("".join(cells)):
        bad = next(c for c in cells if not _SEPARATORS.isdisjoint(c))
        raise ValueError(f"cell {bad!r} needs quoting; use labels free of separators and NUL")
    return cells


def emit_csv(headers: list[str], columns: list, path: str | Path) -> None:
    """Write one 1-D array or sequence per header as LF-terminated UTF-8 CSV.

    Give each column the type its cells print as: ``np.asarray`` turns
    a list mixing ints and floats into floats.  A table of ``_BULK_ROWS``
    rows or more is written by ``csvtable.table_bytes``, a shorter one
    cell by cell.
    """
    if len(columns) != len(headers):
        raise ValueError(f"row width {len(columns)} != header width {len(headers)}")
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {lengths}")
    if not lengths or lengths[0] < _BULK_ROWS:
        lines = [",".join(headers), *map(",".join, zip(*map(_column_cells, columns)))]
        _write_output(path, ("\n".join(lines) + "\n").encode())
        return
    # imported here, so that a process writing only short tables never
    # compiles it; see the csvtable docstring
    from .csvtable import table_bytes
    _write_output(path, (",".join(headers) + "\n").encode()
                  + table_bytes(columns, lengths[0], _column_cells))


# ---- subcommands ----------------------------------------------------


def _cmd_solve_rovib(cfg: RunConfig):
    *_, x_basis, ab_basis = narb.pinned_models(cfg)
    j_values = cfg.get("scan", "j_values")
    max_levels = cfg.get("scan", "max_levels")
    tables = [basis.levels(j, max_levels) for j in j_values for basis in (x_basis, ab_basis)]

    def column(name):
        return np.concatenate([getattr(t, name) for t in tables])

    def fraction(c):
        # an X level has its one channel only, so its frac_b is 0
        return np.concatenate([t.channel_fractions[:, c] if c < len(t.channel_labels)
                               else np.zeros(len(t)) for t in tables])

    headers = ["state", "v", "j", "energy_cm1", "b_rot_cm1", "frac_a", "frac_b"]
    columns = [
        [t.label for t in tables for _ in range(len(t))],  # "X", or "Ab" for the coupled pair
        column("v"),
        column("j"),
        column("energies") * HARTREE_TO_CM1,
        column("b_rot") * HARTREE_TO_CM1,
        fraction(0),
        fraction(1),
    ]
    summary = (f"solved {len(columns[0])} levels (X and coupled A-b) "
               f"for J in {list(j_values)}")
    return headers, columns, summary


def _detuning_axis(cfg: RunConfig):
    """Scan detunings (GHz) from the reference line and their photon energies."""
    deltas = np.linspace(cfg.get("scan", "start_ghz"),
                         cfg.get("scan", "stop_ghz"),
                         cfg.get("scan", "points"))
    return deltas, cfg.spec().reference.energy + deltas / HARTREE_TO_GHZ


def _check_m(section: str, m_key: str, m: int, j: int, j_key: str) -> None:
    """Refuse [section] m_key = m where J = j, from [section] j_key, has no state."""
    if abs(m) > j:
        raise ConfigError(
            f"[{section}] {m_key} = {m} has no state at J = {j} of [{section}] {j_key} "
            "(m must be an integer with |m| <= j)"
        )


def _scan_m(cfg: RunConfig) -> int:
    """[scan] m, checked against every [scan] j_values entry before any solve."""
    m = cfg.get("scan", "m")
    for j in cfg.get("scan", "j_values"):
        _check_m("scan", "m", m, j, "j_values")
    return m


def _imag_j_values(cfg: RunConfig) -> tuple[int, ...]:
    """[scan] j_values, checked before any solve: imag-scan couples each J
    to J + 1, which the 3-j symbols must reach."""
    j_values = cfg.get("scan", "j_values")
    too_high = [j for j in j_values if 2 * (j + 1) > _MAX_TWO_J]
    if too_high:
        raise ConfigError(
            f"[scan] j_values has J = {too_high[0]}, but imag-scan couples J to "
            f"J + 1, and 3-j symbols are supported up to j = {_MAX_TWO_J // 2}"
        )
    return j_values


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
    # a detuning that lands on a pole, such as Delta = 0 for J = 0, gives an
    # infinite cell, written as it is
    bad = [(j, d) for j, alpha in zip(j_values, per_j) for d in deltas[~np.isfinite(alpha)]]
    if bad:
        logger.warning("note: %d non-finite alpha cell%s: %s", len(bad), "s" * (len(bad) > 1),
                       ", ".join(f"J={j} at {d:g} GHz" for j, d in bad))
    headers = ["detuning_ghz", "j", "m", "alpha_au"]
    columns = _detuning_columns(deltas, j_values, m, per_j)
    summary = (f"alpha(Delta) for J in {list(j_values)}, M={m}: "
               f"{len(deltas)} detunings in "
               f"[{deltas[0]:g}, {deltas[-1]:g}] GHz")
    return headers, columns, summary


def _imag_inputs(cfg: RunConfig, j_values):
    """The lowest X level at each J of ``j_values`` and the A-b levels at
    each J' = J +- 1, as two tables, with the (X, A-b) dipole array and
    the A-b linewidths.  Only the pairs ``alpha_imag`` reads, J' = J +- 1,
    hold a dipole, one ``radial_matrix_element`` block per (J, J'); the
    others are NaN."""
    ground, _, dipole, x_basis, ab_basis = narb.pinned_models(cfg)
    max_levels = cfg.get("scan", "max_levels")
    j_ground = sorted(set(j_values))
    j_excited = sorted({j + s for j in j_values for s in (-1, 1) if j + s >= 0})
    x_tables = []
    for j in j_ground:
        lowest = x_basis.levels(j, 1)
        if not lowest:
            raise GridError(f"no X level is bound at J = {j} of [scan] j_values")
        x_tables.append(lowest)
    ab_tables = [ab_basis.levels(jp, max_levels) for jp in j_excited]
    dipoles = np.full((len(x_tables), sum(map(len, ab_tables))), np.nan)
    ends = list(accumulate(map(len, ab_tables)))
    for row, j, lowest in zip(dipoles, j_ground, x_tables):
        for jp, table, end in zip(j_excited, ab_tables, ends):
            if abs(jp - j) == 1:
                row[end - len(table):end] = radial_matrix_element(
                    lowest, dipole, table, pairs={(0, 0): dipole})[0]
    ab_levels = RovibLevels.join(ab_tables)
    return (RovibLevels.join(x_tables), ab_levels, dipoles,
            linewidth(ab_levels, [(ground, dipole)]))


def _pole_refusal(cfg: RunConfig, deltas, j: int, exc: PoleProximityError):
    """``exc``, raised at scan point ``exc.point`` out of J = ``j``, restated
    in the scan's own terms: detunings in GHz and the keys that set them."""
    line = (exc.line - cfg.spec().reference.energy) * HARTREE_TO_GHZ
    return PoleProximityError(
        f"scan point {exc.point + 1} of {len(deltas)}, at detuning "
        f"{deltas[exc.point]:.9g} GHz, lies within {exc.guard * HARTREE_TO_GHZ:.3g} GHz "
        f"of a line out of J = {j}, at {line:.9g} GHz; set [scan] points "
        f"({cfg.get('scan', 'points')}), start_ghz ({cfg.get('scan', 'start_ghz'):g}) "
        f"or stop_ghz ({cfg.get('scan', 'stop_ghz'):g}) so that no scan point falls on a line")


def _cmd_imag_scan(cfg: RunConfig):
    m = _scan_m(cfg)
    j_values = _imag_j_values(cfg)
    x_levels, ab_levels, dipoles, gammas = _imag_inputs(cfg, j_values)
    theta_p = math.radians(cfg.get("fields", "theta_p_deg"))
    deltas, nu = _detuning_axis(cfg)
    per_j = []
    for j in j_values:
        try:
            per_j.append(alpha_imag(x_levels, ab_levels, dipoles, gammas, nu, j, m, theta_p))
        except PoleProximityError as exc:
            raise _pole_refusal(cfg, deltas, j, exc) from exc
    headers = ["detuning_ghz", "j", "m", "im_alpha_au"]
    summary = (f"Im alpha for J in {list(j_values)}, M={m} from "
               f"{len(ab_levels)} retained coupled levels")
    return headers, _detuning_columns(deltas, j_values, m, per_j), summary


# the rotational levels J <= _J_MAX of the hyperfine basis that
# hyperfine-scan and eigen angle searches solve in
_J_MAX = 1


def _cmd_hyperfine_scan(cfg: RunConfig):
    fields = cfg.field_configuration()
    basis = build_basis(_J_MAX, fields.constants)
    thetas = np.linspace(cfg.get("scan", "start_deg"),
                         cfg.get("scan", "stop_deg"),
                         cfg.get("scan", "points"))
    at = replace(fields, theta_p=np.radians(thetas))
    # no phase convention: energies, labels, alpha (a spin trace) and
    # |<v_k-1|v_k>| are all bit-identical under v -> -v
    energies, vectors, dominant, alphas = _angle_solver(basis, at, cfg.terms())(at.theta_p)
    # full[k]: |V_k^T V_k+1| of each adjacent pair of angles, the one
    # overlap matrix both the match and the logged overlap are read from
    full = np.matmul(vectors[:-1].swapaxes(-2, -1), vectors[1:])
    match = _match(np.abs(full, out=full))
    # order[k, curve]: the eigenstate index that continues each curve at
    # angle k, chained through the matches
    order = np.empty((len(thetas), basis.dim), dtype=int)
    order[0] = np.arange(basis.dim)
    for k in range(len(full)):
        order[k + 1] = match[k, order[k]]
    if len(full):
        # the smallest |<v_k|v_k+1>| of a tracked curve, and where it falls
        smallest = np.take_along_axis(full, match[..., None], axis=-1).min(axis=(-2, -1))
        k = int(smallest.argmin())
        logger.info("state tracking: smallest adjacent overlap %.6f, between "
                    "%g and %g deg", smallest[k], thetas[k], thetas[k + 1])
    dominant = np.take_along_axis(dominant, order, axis=1).ravel()
    headers = ["theta_deg", "curve", "j", "m", "energy_mhz", "alpha_hz_wcm2"]
    columns = [
        np.repeat(thetas, basis.dim),
        np.tile(np.arange(basis.dim), len(thetas)),
        *np.array(basis.rot_states)[dominant].T,  # j and m
        np.take_along_axis(energies, order, axis=1).ravel(),
        np.take_along_axis(alphas, order, axis=1).ravel(),
    ]
    summary = (f"{basis.dim} eigenstate curves over theta in "
               f"[{thetas[0]:g}, {thetas[-1]:g}] deg, {len(thetas)} points")
    return headers, columns, summary


_MAGIC_HEADERS = ["kind", "j_a", "m_a", "rank_a", "j_b", "m_b", "rank_b",
                  "location", "residual", "bracket_lo", "bracket_hi"]


def _shared_m(cfg: RunConfig) -> int:
    """The one M that detuning searches and calibration use for both
    states, checked against [magic] j_a and j_b before any search."""
    m = cfg.get("magic", "m_a")
    m_b = cfg.get("magic", "m_b", m)
    if m_b != m:
        raise ConfigError(
            f"[magic] m_b = {m_b} differs from m_a = {m}; detuning searches "
            "and calibrate use one M for both states"
        )
    for key in ("j_a", "j_b"):
        _check_m("magic", "m_a", m, cfg.get("magic", key), key)
    return m


def _angle_state(cfg: RunConfig, side: str, j_max: int | None) -> tuple:
    """State ``side``, "a" or "b", of an angle search from [magic]: (J, M),
    or (J, M, rank) where rank_<side> is set.  Checked before any solve:
    |M| <= J, and J within the hyperfine basis (``j_max``) of an eigen search."""
    j_key, m_key = f"j_{side}", f"m_{side}"
    j, m = cfg.get("magic", j_key), cfg.get("magic", m_key)
    _check_m("magic", m_key, m, j, j_key)
    if j_max is not None and j > j_max:
        raise ConfigError(
            f"[magic] {j_key} = {j} is outside the hyperfine basis of the eigen "
            f"method (J <= {j_max})"
        )
    rank = cfg.get("magic", f"rank_{side}", None)
    return (j, m) if rank is None else (j, m, rank)


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
        summary = (f"magic detuning J={j_a}/J={j_b} (M={m}) at "
                   f"{sol.location:.6f} GHz, residual {sol.residual:.3e} a.u., "
                   f"slope {sol.slope:.3e} a.u. per GHz")
    else:  # "angle"
        fields, terms = cfg.field_configuration(), cfg.terms()
        method = cfg.get("magic", "method")
        j_max = _J_MAX if _angle_method(fields, terms, method) == "eigen" else None
        state_a = _angle_state(cfg, "a", j_max)
        state_b = _angle_state(cfg, "b", j_max)
        # an unranked state is its character's only one, i.e. rank 0
        _distinct_states((*state_a, 0)[:3], (*state_b, 0)[:3])
        sol = find_magic_angle(
            fields, state_a, state_b,
            bracket=(cfg.get("magic", "bracket_lo_deg"),
                     cfg.get("magic", "bracket_hi_deg")),
            terms=terms, method=method, j_max=_J_MAX,
        )
        summary = (f"magic angle {state_a}/{state_b} at "
                   f"{sol.location:.6f} deg, residual {sol.residual:.3e}, "
                   f"slope {sol.slope:.3e} Hz/(W/cm^2) per deg")
    # a detuning state and an unranked angle state print rank -1
    row = [sol.kind, *(*sol.state_a, -1)[:3], *(*sol.state_b, -1)[:3],
           sol.location, sol.residual, *sol.bracket]
    return _MAGIC_HEADERS, [[cell] for cell in row], summary


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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Keyed on nothing; a
    hit saves 0.21 ms per ``main`` call, ~23 ms of 111 in-process calls."""
    p = argparse.ArgumentParser(
        prog="magictrap",
        description="Magic optical-trapping conditions for rotational states "
                    "of a bialkali molecule",
    )
    p.add_argument("subcommand", choices=_SUBCOMMANDS)
    p.add_argument("--config", default=None,
                   help="INI config (default: bundled NaRb constants)")
    p.add_argument("--out", default=".", help="output directory")
    # a None default: no list object outlives one parse of the shared parser
    p.add_argument("--override", action="append", default=None,
                   metavar="SECTION.KEY=VALUE")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.override or ())
        run(args.subcommand, cfg, args.out)
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, UnitError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
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
