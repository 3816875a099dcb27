"""Cold-process benchmark of qgen: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; qgen is imported from the
checkout's ``src/``.  Every measured run is a fresh interpreter started
here, one at a time and never in a pool, so the numbers describe the
program rather than the scheduler.  See README.md in this directory for
why each workload exists and which layer metric should move which
end-to-end metric.

With ``--trace 0`` a run measures each workload for ``--seconds``
(default: ``run_seconds`` in BENCHMARK.json): a warm-up spawn (bytecode
and file caches, which users do not pay on every run), then rounds of
one repetition of the workload and a few set-up-only spawns while
another round fits in the time left.  Every timing is scaled by the host
speed that the child gauges while it runs (see child.py and
SLICE_SECONDS).  Each metric is the median over those samples.

With ``--trace 1`` it makes two untraced repetitions and two traced ones,
reports the per-layer metrics, and fails unless the deterministic counts
of the two traced repetitions are identical.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed, 2 when the checkout holds no qgen sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import DETERMINISTIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # per repetition
# Nominal time of child.gauge_slice: about its median on the 2-core Xeon
# (2.0 GHz) host the benchmark was defined on.  Timings are scaled by
# SLICE_SECONDS / (mean measured slice) so that they read as seconds on
# that host at its usual speed; see README.md for why.
SLICE_SECONDS = 0.015


def spawn(root: Path, workload: str, seed: int, mode: str) -> dict:
    """Start one child, wait for it to exit, and return its report plus
    the wall time, set-up time and peak memory measured from here.

    The child's gauge slices are taken out of its times, which are then
    scaled to the nominal host speed.  A traced child has no gauge during
    its run, so its ``wall_s`` is unscaled."""
    # One worker: a sweep pool would measure the scheduler, not qgen.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), QGEN_WORKERS="1")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"{workload} child ({mode}) exited with {code}")
    report = json.loads(lines[-1])
    setup_gauge, gauge = report["setup_gauge"], report["gauge"]
    scale = SLICE_SECONDS / statistics.mean(gauge) if gauge else 1.0
    report["elapsed_s"] = end - start
    report["setup_s"] = (report["ready"] - start) * SLICE_SECONDS / statistics.mean(setup_gauge)
    report["raw_wall_s"] = end - start - sum(setup_gauge) - sum(gauge)
    report["wall_s"] = report["raw_wall_s"] * scale
    report["compute_s"] = report.get("compute_s", 0.0) * scale
    report["slice_s"] = statistics.mean(gauge or setup_gauge)
    report["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return report


def _tally(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Operation counts of one repetition.  The number of repetitions in a
    run depends on the host's speed, so a sum over them would too; every
    repetition of one seed must attempt and fail the same operations."""
    problems = [p for rep in reps for p in rep["problems"]]
    counts = sorted({(rep["attempted"], rep["failed"]) for rep in reps})
    if len(counts) > 1:
        problems.append(f"(attempted, failed) differ between repetitions: {counts}")
    attempted, failed = max(counts, key=lambda c: c[1] / c[0])
    return not problems, attempted, failed, problems


def timed_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    spawn(root, workload, seed, "setup")
    reps: list[dict] = []
    while True:
        rep = spawn(root, workload, seed, "run")
        # Set-up probes sit between repetitions so that they sample the
        # whole run, not one moment of a host whose speed drifts.
        probes = [spawn(root, workload, seed, "setup") for _ in range(SETUP_PROBES)]
        rep["setups"] = [rep["setup_s"]] + [probe["setup_s"] for probe in probes]
        reps.append(rep)
        estimate = (statistics.median(rep["elapsed_s"] for rep in reps)
                    + SETUP_PROBES * statistics.median(probe["elapsed_s"] for probe in probes))
        if time.monotonic() - start + estimate > seconds:
            break
    correct, attempted, failed, problems = _tally(reps)
    metrics = {
        "setup_s": statistics.median(s for rep in reps for s in rep["setups"]),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "items_per_s": statistics.median(
            rep["items"] / rep["compute_s"] if rep["compute_s"] else 0.0 for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics, "samples": len(reps),
            "slice_s": statistics.median(rep["slice_s"] for rep in reps),
            "raw_wall_s": statistics.median(rep["raw_wall_s"] for rep in reps)}


def traced_run(root: Path, workload: str, seed: int) -> dict:
    # Plain, traced, traced, plain: a linear drift in host speed cancels
    # out of the overhead.
    reps = [spawn(root, workload, seed, mode) for mode in ("run", "trace", "trace", "run")]
    plain, traced = reps[::3], reps[1:3]
    correct, attempted, failed, problems = _tally(reps)
    first, second = (rep["layers"] for rep in traced)
    for name in DETERMINISTIC:
        if first[name] != second[name]:
            problems.append(f"{name} differs between traced runs: {first[name]} != {second[name]}")
            correct = False
    metrics = {
        name: (value if name in DETERMINISTIC or not name.endswith(("_s", "_us", "_ms"))
               else statistics.median([value, second[name]]))
        for name, value in first.items()
    }
    metrics["trace.overhead_s"] = (statistics.mean(rep["raw_wall_s"] for rep in traced)
                                   - statistics.mean(rep["raw_wall_s"] for rep in plain))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": metrics, "samples": len(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "qgen" / "cli.py").is_file():
        print(f"perfbench: no qgen sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            if args.trace:
                results[name] = traced_run(root, name, args.seed)
            else:
                results[name] = timed_run(root, name, args.seed, seconds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    for name, res in results.items():
        error_rate = res["failed"] / res["attempted"]
        shown = [f"{m}={v:.6g} {units[m]}" for m, v in res["metrics"].items()]
        shown.append(f"error_rate={error_rate:.6g} ratio")
        if "slice_s" in res:
            shown.append(f"(host: gauge slice {res['slice_s'] * 1e3:.4g} ms, "
                         f"unscaled wall_s {res['raw_wall_s']:.6g} s)")
        print(f"{name}: " + "  ".join(shown) + f"  ({res['samples']} samples)")
        for problem in res["problems"]:
            print(f"{name}: CHECK FAILED: {problem}")
    correct = all(res["correct"] for res in results.values())
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    prefix = len(results) > 1
    metrics = {(f"{name}.{m}" if prefix else m): {"value": v, "unit": units[m]}
               for name, res in results.items() for m, v in res["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
