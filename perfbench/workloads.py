"""Benchmark workloads: seeded CLI invocations and the checks on their output.

Each workload is a list of :class:`Op`, one ``magictrap`` CLI invocation
each.  The seed changes input values (windows, brackets, field strengths,
state pairs), never the number of invocations or the size of any grid, so
every seed does the same amount of work.  Only ``--out`` and ``--override``
are passed to the CLI, and every key overridden is one the bundled config
already has.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GHZ_PER_CM1 = 29.9792458

# J=0/J' crossings of the paper's detuning ladder, GHz, for J' = 1..5
LADDER_GHZ = (103.0, 105.0, 108.0, 112.0, 116.0)
LADDER_TOL_GHZ = 1.5
CALIBRATE_TOL_GHZ = 1e-6
MAGIC_ANGLE_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
BARE_ANGLE_TOL_DEG = 1e-6

ROVIB_J = (0, 1, 2, 3)
ROVIB_LEVELS_PER_J = 24          # 12 X levels plus 12 coupled A-b levels
ROVIB_POINTS = 512
ALPHA_POINTS = 4001
ALPHA_J = (0, 1, 2, 3, 4, 5)
HYPERFINE_POINTS = 512
HYPERFINE_STATES = 64
# the hyperfine scan runs as 16 calls of 32 consecutive angles, and the
# alpha scan as one call per J, so that every call lasts well under
# pace.SCALE_MAX_S and its time can be scaled to the host speed
HYPERFINE_CHUNKS = 16
# labels whose calls are parts of one scan: timed per pass, not per call
SUMMED_LABELS = ("alpha_scan", "hyperfine_scan")
ANGLE_SEARCHES = 100
# (J, M, rank) pairs whose eigenstate curves cross inside 40-70 degrees
# for every dc field on the 0.01 kV/cm grid over [0.10, 2.00] kV/cm
ANGLE_PAIRS = (
    ((1, 0, 0), (0, 0, 0)),
    ((1, 0, 1), (0, 0, 1)),
    ((1, 1, 0), (0, 0, 0)),
    ((1, -1, 0), (0, 0, 0)),
)
E_FIELD_CENTI_KV_CM = (10, 200)
ANGLE_BRACKET_DEG = (40.0, 70.0)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``label`` groups ops for timing, ``expect`` feeds the check."""

    label: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def csv_name(self) -> str:
        return self.argv[0].replace("-", "_") + ".csv"


def _argv(subcommand: str, overrides: dict[str, object]) -> tuple[str, ...]:
    out = [subcommand]
    for key, value in overrides.items():
        out += ["--override", f"{key}={value}"]
    return tuple(out)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _rovib_ops(rng: random.Random) -> list[Op]:
    # The transition energy moves the absolute energies but not the line
    # positions in detuning, which the model shift pins to it.
    transition = float(_fmt(11306.4 + rng.uniform(-5.0, 5.0)))
    shift = rng.uniform(-2.0, 2.0)
    common = {"molecule.transition_cm1": _fmt(transition),
              "scan.j_values": ",".join(map(str, ROVIB_J))}
    return [
        Op("solve_rovib", _argv("solve-rovib", common),
           {"rows": ROVIB_LEVELS_PER_J * len(ROVIB_J)}),
        Op("imag_scan",
           _argv("imag-scan", {**common, "scan.start_ghz": _fmt(-50.0 + shift),
                               "scan.stop_ghz": _fmt(150.0 + shift)}),
           {"rows": ROVIB_POINTS * len(ROVIB_J), "transition_cm1": transition}),
    ]


def _scan_ops(rng: random.Random) -> list[Op]:
    shift = rng.uniform(-5.0, 5.0)
    ops = [Op("alpha_scan",
              _argv("alpha-scan", {"scan.points": ALPHA_POINTS, "scan.j_values": j,
                                   "scan.start_ghz": _fmt(-50.0 + shift),
                                   "scan.stop_ghz": _fmt(150.0 + shift)}),
              {"rows": ALPHA_POINTS})
           for j in ALPHA_J]
    # 512 evenly spaced angles over [start, stop], in chunks of consecutive angles
    start, stop = rng.uniform(0.0, 5.0), rng.uniform(85.0, 90.0)
    step = (stop - start) / (HYPERFINE_POINTS - 1)
    per_chunk = HYPERFINE_POINTS // HYPERFINE_CHUNKS
    for k in range(HYPERFINE_CHUNKS):
        lo = start + k * per_chunk * step
        ops.append(Op("hyperfine_scan",
                      _argv("hyperfine-scan", {"scan.points": per_chunk,
                                               "scan.start_deg": _fmt(lo),
                                               "scan.stop_deg": _fmt(lo + (per_chunk - 1) * step)}),
                      {"rows": HYPERFINE_STATES * per_chunk}))
    return ops


def _search_ops(rng: random.Random) -> list[Op]:
    ops = []
    for jp, nominal in enumerate(LADDER_GHZ, start=1):
        lo, hi = 60.0 + rng.uniform(-2.0, 2.0), 140.0 + rng.uniform(-2.0, 2.0)
        ops.append(Op("magic_detuning",
                      _argv("magic-find", {"magic.kind": "detuning", "magic.j_a": 0,
                                           "magic.j_b": jp, "magic.m_a": 0,
                                           "magic.bracket_lo_ghz": _fmt(lo),
                                           "magic.bracket_hi_ghz": _fmt(hi)}),
                      {"nominal": nominal}))
    for jp, nominal in enumerate(LADDER_GHZ, start=1):
        target = float(_fmt(nominal + rng.uniform(-1.0, 1.0)))
        ops.append(Op("calibrate",
                      _argv("calibrate", {"magic.j_a": 0, "magic.j_b": jp, "magic.m_a": 0,
                                          "magic.target_ghz": _fmt(target)}),
                      {"target": target}))
    lo, hi = ANGLE_BRACKET_DEG
    bracket = {"magic.kind": "angle", "magic.bracket_lo_deg": lo, "magic.bracket_hi_deg": hi}
    for _ in range(ANGLE_SEARCHES):
        e_field = rng.randint(*E_FIELD_CENTI_KV_CM) / 100.0
        (ja, ma, ra), (jb, mb, rb) = rng.choice(ANGLE_PAIRS)
        ops.append(Op("magic_angle",
                      _argv("magic-find", {**bracket, "magic.method": "eigen",
                                           "fields.e_field_kv_cm": f"{e_field:.2f}",
                                           "magic.j_a": ja, "magic.m_a": ma, "magic.rank_a": ra,
                                           "magic.j_b": jb, "magic.m_b": mb, "magic.rank_b": rb}),
                      {"bracket": (lo, hi)}))
    ops.append(Op("magic_angle_bare",
                  _argv("magic-find", {**bracket, "magic.method": "auto",
                                       "fields.e_field_kv_cm": "0.0",
                                       "fields.terms": "rotation,zeeman,stark,polarization",
                                       "magic.j_a": 1, "magic.m_a": 0,
                                       "magic.j_b": 0, "magic.m_b": 0}),
                  {"bracket": (lo, hi), "exact": MAGIC_ANGLE_DEG}))
    return ops


WORKLOADS = {"rovib": _rovib_ops, "scan": _scan_ops, "search": _search_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The invocations of one pass over ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---- output checks ---------------------------------------------------


class CheckError(Exception):
    """An invocation's output is wrong."""


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict[str, str], key: str) -> float:
    try:
        value = float(row[key])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"column {key!r} missing or not a number in {row}") from None
    if not math.isfinite(value):
        raise CheckError(f"column {key!r} is not finite: {row[key]}")
    return value


def _rows(rows: list, n: int) -> None:
    if len(rows) != n:
        raise CheckError(f"expected {n} rows, got {len(rows)}")


def check_op(op: Op, out_dir: Path) -> float | None:
    """Raise :class:`CheckError` unless the CSV ``op`` wrote is right.

    Returns the located value for searches (used by :func:`check_pass`).
    """
    rows = read_csv(out_dir / op.csv_name)
    if op.label == "solve_rovib":
        _rows(rows, op.expect["rows"])
        for row in rows:
            _num(row, "energy_cm1"), _num(row, "b_rot_cm1")
    elif op.label == "imag_scan":
        _rows(rows, op.expect["rows"])
        _check_imag_sign(rows, read_csv(out_dir / "solve_rovib.csv"),
                         op.expect["transition_cm1"])
    elif op.label in ("alpha_scan", "hyperfine_scan"):
        _rows(rows, op.expect["rows"])
        column = "alpha_au" if op.label == "alpha_scan" else "alpha_hz_wcm2"
        for row in rows:
            _num(row, column)
    elif op.label == "magic_detuning":
        _rows(rows, 1)
        loc = _num(rows[0], "location")
        if abs(loc - op.expect["nominal"]) > LADDER_TOL_GHZ:
            raise CheckError(f"crossing at {loc} GHz, expected {op.expect['nominal']} "
                             f"+- {LADDER_TOL_GHZ}")
        return loc
    elif op.label == "calibrate":
        _rows(rows, 1)
        loc = _num(rows[0], "crossing_ghz")
        if abs(loc - op.expect["target"]) > CALIBRATE_TOL_GHZ:
            raise CheckError(f"crossing at {loc} GHz, target {op.expect['target']}")
        return loc
    elif op.label in ("magic_angle", "magic_angle_bare"):
        _rows(rows, 1)
        loc = _num(rows[0], "location")
        lo, hi = op.expect["bracket"]
        if not lo < loc < hi:
            raise CheckError(f"angle {loc} outside bracket ({lo}, {hi})")
        exact = op.expect.get("exact")
        if exact is not None and abs(loc - exact) > BARE_ANGLE_TOL_DEG:
            raise CheckError(f"bare magic angle {loc}, expected {exact}")
        return loc
    else:
        raise CheckError(f"no check for label {op.label!r}")
    return None


def _check_imag_sign(imag_rows, level_rows, transition_cm1: float) -> None:
    """Im alpha <= 0 at every detuning below the lowest line out of each J."""
    ground = {int(r["j"]): _num(r, "energy_cm1") for r in level_rows
              if r["state"] == "X" and r["v"] == "0"}
    excited = [(int(r["j"]), _num(r, "energy_cm1")) for r in level_rows if r["state"] != "X"]
    below = 0
    for j, e_x in ground.items():
        lines = [e - e_x for jp, e in excited if abs(jp - j) == 1]
        if not lines:
            raise CheckError(f"no coupled level with J' = {j} +- 1 in solve_rovib.csv")
        lowest_ghz = (min(lines) - transition_cm1) * GHZ_PER_CM1
        for row in imag_rows:
            if int(row["j"]) == j and _num(row, "detuning_ghz") < lowest_ghz:
                below += 1
                if _num(row, "im_alpha_au") > 0.0:
                    raise CheckError(f"Im alpha > 0 below the lowest resonance: {row}")
    if below == 0:
        raise CheckError("no scan point lies below the lowest resonance")


def check_pass(ops: list[Op], values: list[float | None]) -> set[int]:
    """Indices of ops that fail a check spanning the whole pass.

    The magic-detuning ladder must increase strictly with J'.
    """
    ladder = [(i, v) for i, (op, v) in enumerate(zip(ops, values))
              if op.label == "magic_detuning" and v is not None]
    for (_, a), (_, b) in zip(ladder, ladder[1:]):
        if not b > a:
            return {i for i, _ in ladder}
    return set()
