"""magictrap benchmark: time the CLI end to end, or layer by layer.

    python3 perfbench/run.py --workload rovib --seed 1 --seconds 6 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  ``--trace 0`` reports the end-to-end metrics (set-up time and
warm and cold pass time, scaled to a fixed host speed as ``pace.py``
describes, and peak memory); ``--trace 1`` reports the
per-layer metrics of a traced pass.  Every metric is printed as
``name value unit`` and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-subcommand times, a SHA-256 of every CSV) is written
under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import Pace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 160.0
SETUP_RUNS = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import magictrap\n"
    "from magictrap.config import load_config\n"
    "load_config()\n"
    "print(time.perf_counter() - t)\n"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.csv_bytes":
        return "bytes"
    if name == "radial.eigh_dim3_sum":
        return "dim3"
    return "ratio"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def measure_setup(env: dict[str, str], runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the package and load the config.

    Returns (scaled, raw) medians; see ``pace.py`` for the scaling.
    """
    pace = Pace()
    raw, scaled = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=15, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(pace.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
           "cpu_model": None, "l3_size": None, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        env["l3_size"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="magictrap benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    if not (SRC / "magictrap" / "__init__.py").is_file():
        print(f"no magictrap package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "worker.json"
    env = child_env()
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--src", str(SRC), "--out", str(work / "csv"),
                 "--result", str(result_path)],
                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                timeout=RUN_LIMIT_S - (time.perf_counter() - t0))
        except subprocess.TimeoutExpired:
            print(f"worker exceeded {RUN_LIMIT_S:.0f} s; see {work / 'worker.log'}",
                  file=sys.stderr)
            return 1
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write((work / "worker.log").read_text(encoding="utf-8")[-3000:])
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text(encoding="utf-8"))

    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in res["layer"].items()}
    else:
        setup_s, setup_raw_s = measure_setup(env)
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_scaled_s": (res["wall_scaled_s"], "s"),
                   "cold_pass_scaled_s": (res["cold_pass_scaled_s"], "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    detail = {k: (res[k], "s") for k in ("wall_s", "cold_pass_s")}
    if not args.trace:
        detail["setup_raw_s"] = (setup_raw_s, "s")
    detail["host_slowdown"] = (res["host_slowdown"], "ratio")
    detail.update({k: (v, "ms" if k.endswith("_ms") else "s") for k, v in res["labels"].items()})
    detail["failed_frac"] = (res["failed"] / res["attempted"], "ratio")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
              "worker": res}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={1 + len(res['warm_pass_s'])} record={OUT / (tag + '.json')}")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name} {value:.6g} {unit}")
    for i, label, error in res["failures"]:
        print(f"# failed op {i} ({label}): {error}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
