"""One workload in a fresh interpreter: a cold pass, then warm passes.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.
Every invocation goes through ``magictrap.cli.main`` with stdout and
stderr captured, and only the call itself is timed; output checks and
the host-speed probe (see ``pace.py``) run after it.  With ``--trace 1``
each warm pass is paired with a traced pass and the per-layer metrics
come from the traced one.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from pace import Pace
from spans import Summary, Tracer, layer_metrics

CHECK_ERRORS = (workloads.CheckError, OSError, KeyError, ValueError)


def run_op(cli, op: workloads.Op, out_dir: Path) -> dict:
    """Invoke the CLI once and check what it wrote."""
    argv = [op.argv[0], "--out", str(out_dir), *op.argv[1:]]
    buf = io.StringIO()
    error = None
    with redirect_stdout(buf), redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            rc, error = None, repr(exc)
        seconds = time.perf_counter() - t0
    rec = {"label": op.label, "s": seconds, "rc": rc, "value": None}
    if rc != 0:
        rec["error"] = error or f"exit {rc}: {buf.getvalue().strip()[-300:]}"
        return rec
    try:
        rec["value"] = workloads.check_op(op, out_dir)
        data = (out_dir / op.csv_name).read_bytes()
    except CHECK_ERRORS as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    rec["bytes"] = len(data)
    return rec


def run_pass(cli, ops, out_dir: Path, pace: Pace, tracer: Tracer | None = None) -> list[dict]:
    recs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        rec = run_op(cli, op, out_dir)
        rec["scaled_s"] = pace.scale(rec["s"])
        recs.append(rec)
    for i in workloads.check_pass(ops, [r["value"] for r in recs]):
        recs[i].setdefault("error", "magic-detuning ladder is not strictly increasing")
    return recs


def wall(recs: list[dict], key: str = "s") -> float:
    return sum(r[key] for r in recs)


def label_metrics(ops, passes: list[list[dict]]) -> dict[str, float]:
    """Per-subcommand times over the warm passes.

    A label run once per pass, or split into calls that make up one scan,
    gives ``<label>_s``, the median over passes of its time per pass.
    Another label run several times gives the median per call,
    ``<label>_ms``, or with at least 100 calls its 50th and 90th
    percentiles.
    """
    out = {}
    for label in dict.fromkeys(op.label for op in ops):
        per_pass = [[r["s"] for r in recs if r["label"] == label] for recs in passes]
        if len(per_pass[0]) == 1 or label in workloads.SUMMED_LABELS:
            out[f"{label}_s"] = statistics.median(sum(p) for p in per_pass)
            continue
        calls = [1e3 * s for p in per_pass for s in p]
        if len(calls) >= 100:
            out[f"{label}_p50_ms"] = statistics.median(calls)
            out[f"{label}_p90_ms"] = statistics.quantiles(calls, n=10)[-1]
        else:
            out[f"{label}_ms"] = statistics.median(calls)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True, help="directory the package must come from")
    p.add_argument("--out", required=True, help="directory for the CLI's CSV output")
    p.add_argument("--result", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    import magictrap
    from magictrap import cli

    src = Path(args.src).resolve()
    if src not in Path(magictrap.__file__).resolve().parents:
        print(f"magictrap imported from {magictrap.__file__}, not from {src}", file=sys.stderr)
        return 2

    ops = workloads.build_ops(args.workload, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pace = Pace()
    cold = run_pass(cli, ops, out_dir, pace)
    warm, layer_rows, tracer = [], [], None
    t_start = time.perf_counter()
    while True:
        warm.append(run_pass(cli, ops, out_dir, pace))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = run_pass(cli, ops, out_dir, pace, tracer)
            warm.append(traced)
            layer_rows.append(layer_metrics(Summary(tracer), wall(traced), wall(warm[-2]),
                                            sum(r.get("bytes", 0) for r in traced)))
        if time.perf_counter() - t_start >= args.seconds:
            break

    passes = [cold, *warm]
    first = [r.get("sha256") for r in cold]
    for recs in warm:
        for r, sha in zip(recs, first):
            if "error" not in r and r.get("sha256") != sha:
                r["error"] = "output bytes differ from the first pass"
    failures = [(i, r["label"], r["error"]) for recs in passes
                for i, r in enumerate(recs) if "error" in r]

    import numpy
    import scipy
    untraced = warm[0::2] if args.trace else warm
    result = {
        "cold_pass_s": wall(cold),
        "warm_pass_s": [wall(recs) for recs in untraced],
        "wall_s": statistics.median(wall(recs) for recs in untraced),
        "cold_pass_scaled_s": wall(cold, "scaled_s"),
        "warm_pass_scaled_s": [wall(recs, "scaled_s") for recs in untraced],
        "wall_scaled_s": statistics.median(wall(recs, "scaled_s") for recs in untraced),
        "host_slowdown": statistics.median(pace.factors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "labels": label_metrics(ops, untraced),
        "attempted": sum(len(recs) for recs in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "ops": [{"label": op.label, "argv": list(op.argv), "sha256": sha,
                 "bytes": r.get("bytes")} for op, r, sha in zip(ops, cold, first)],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "magictrap": magictrap.__version__,
                     "blas": _blas(numpy)},
    }
    if args.trace:
        result["layer"] = {k: statistics.median(r[k] for r in layer_rows)
                           for k in layer_rows[0]}
        result["missing_names"] = tracer.missing
        tracer.save(Path(args.result).with_suffix(".spans.npz"))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
