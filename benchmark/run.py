"""spinbath benchmark: one closed-loop workload per run.

    python3 benchmark/run.py --workload cold-fit --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository.  The program is used from source
(``src/``); nothing is installed.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics of a
separate traced run.  The last line of standard output is the result::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

A full record (environment, inputs, every sample, problems, and for traced
runs every span) goes to ``.bench_out/<workload>_seed<n>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

#: Cheap set-ups are repeated until they add up to this much time, so the
#: median of ``setup_s`` rests on enough samples to be steady.
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cold-fit", "warm-estimate", "forward-physics"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return ap.parse_args(argv)


def _cap_threads() -> int:
    """BLAS threads = the CPUs this process may use, through SPINBATH_THREADS.

    Set before numpy is imported here, and inherited by every CLI child,
    which applies SPINBATH_THREADS itself.
    """
    cap = len(os.sched_getaffinity(0))
    os.environ["SPINBATH_THREADS"] = str(cap)
    for var in _BLAS_VARS:
        os.environ[var] = str(cap)
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    sys.path.insert(0, str(ROOT / "src"))
    return cap


def _environment(cap: int) -> dict:
    import hashlib

    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinbath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "spinbath_threads": cap,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Run:
    """Set-up repeats, then the closed loop, with every sample and problem kept."""

    def __init__(self, wl, seconds: float, deadline: float):
        self.wl, self.seconds, self.deadline = wl, seconds, deadline
        self.ops: list[dict] = []
        self.setup_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setups(self, repeats: int) -> None:
        """At least `repeats` set-ups, and more while they total under SETUP_MIN_S."""
        while len(self.setup_walls) < repeats or (
            sum(self.setup_walls) < SETUP_MIN_S and len(self.setup_walls) < SETUP_MAX_REPEATS
        ):
            t0 = time.perf_counter()
            self.wl.setup()
            self.setup_walls.append(time.perf_counter() - t0)

    def op(self, k: int, tracer=None, extra_problems=None) -> float:
        self.attempted += 1
        timeout = self.deadline - time.perf_counter()
        try:
            ex = self.wl.execute(k, tracer, timeout)
            problems = self.wl.check(ex)
        except Exception:  # noqa: BLE001 - one broken operation must not end the run
            ex, problems = None, [traceback.format_exc(limit=4)]
        if extra_problems is not None:
            problems += extra_problems()
        if problems:
            self.failed += 1
            self.problems += problems
        wall = ex.wall if ex is not None else float("nan")
        self.ops.append({"k": k, "wall_s": wall, "ok": not problems,
                         **(ex.detail if ex is not None else {})})
        return wall

    def loop(self, first: int, tracer=None, extra_problems=None) -> None:
        """Operations back to back, at least one, and another only while it
        is expected (as long as the last) to end within `seconds`."""
        start = time.perf_counter()
        k = first
        while True:
            wall = self.op(k, tracer, extra_problems)
            wall = wall if wall == wall else 0.0
            k += 1
            now = time.perf_counter()
            if now + wall > min(start + self.seconds, self.deadline):
                return


def _median(xs):
    xs = [x for x in xs if x == x]
    return statistics.median(xs) if xs else float("nan")


def _tail(xs):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(xs)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return {"percentile": p, "value": sorted(xs)[n - 11]}


def run_e2e(wl, run: Run, scale) -> dict:
    run.setups(scale.setup_repeats)
    wl.prepare()
    run.loop(0)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    walls = [o["wall_s"] for o in run.ops]
    return {
        "setup_s": _median(run.setup_walls),
        "op_s": _median(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def run_traced(wl, run: Run, scale) -> tuple[dict, dict]:
    """Untraced set-up and operation, then a traced set-up and traced loop."""
    from tracer import Tracer, layer_table

    tracer = Tracer()
    tracer.install()
    run.setups(scale.setup_repeats)
    wl.prepare()
    untraced = _median(run.setup_walls) + run.op(0)

    t0 = time.perf_counter()
    with tracer.recording("setup"):
        wl.setup()
    walls = {"setup": time.perf_counter() - t0}
    seen = [0]  # the first traced operation also answers for the traced set-up

    def audit() -> list[str]:
        new = tracer.eta_sum_violations - seen[0]
        seen[0] = tracer.eta_sum_violations
        return [f"{new} spectra break sum eta = 1/2"] if new else []

    first = len(run.ops)
    run.loop(first, tracer, audit)
    for o in run.ops[first:]:
        walls[f"op-{o['k']}"] = o["wall_s"]
    table = layer_table(tracer, walls)
    table["trace.overhead_frac"] = table["trace.wall_s"] / untraced - 1.0
    return table, tracer.dump()


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    needed = ("src/spinbath/cli.py", "configs/cupc.yaml", "BENCHMARK.json")
    if not all((ROOT / p).is_file() for p in needed):
        print(f"error: {ROOT} lacks the spinbath source tree or BENCHMARK.json", file=sys.stderr)
        return 2
    cap = _cap_threads()
    import workloads

    scale = workloads.TINY if args.tiny else workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed, work, scale)
    run = Run(wl, args.seconds, started + HARD_LIMIT_S)
    spans = None
    try:
        if args.trace:
            metrics, spans = run_traced(wl, run, scale)
        else:
            metrics = run_e2e(wl, run, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    details = {}
    for key in ("fit_cold_s", "estimate_s", "spectrum_s", "tau_ee_s"):
        xs = [o[key] for o in run.ops if key in o]
        if xs:
            details[key] = {"median": _median(xs), "n": len(xs), "tail": _tail(xs)}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": _environment(cap),
        "inputs": wl.describe(),
        "setup_walls_s": run.setup_walls,
        "ops": run.ops,
        "timings": details,
        "fail_frac": run.failed / run.attempted,
        "problems": run.problems,
        "result": result,
        "all_metrics": metrics,
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        (OUT_DIR / f"{name}_spans.json").write_text(json.dumps(spans) + "\n")

    env = record["environment"]
    blas = (env["blas"] or {}).get("name"), (env["blas"] or {}).get("version")
    print(
        f"{args.workload}: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"blas {blas[0]} {blas[1]}; {env['cpus_usable']} CPUs, "
        f"SPINBATH_THREADS={env['spinbath_threads']}; seed {args.seed}"
    )
    for key, d in details.items():
        print(f"{args.workload}: {key} median {d['median']:.4f} s (n={d['n']})")
    print(f"{args.workload}: fail_frac {run.failed}/{run.attempted}")
    for p in run.problems:
        print(f"{args.workload}: problem: {p.strip()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
