"""One cold run of one workload; started by run.py, never imported.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (import qgen and make the inputs, then exit), ``run``,
or ``trace`` (run the workload with spans recorded around calls into
qgen).  The last line of stdout is one JSON object.  ``ready`` is the
CLOCK_MONOTONIC reading once qgen is imported and the inputs exist; the
parent subtracts its own reading at spawn to get the set-up time.

The host's speed drifts within seconds, so the child gauges it itself,
with short fixed loops (``gauge_slice``): a few right after set-up
(``setup_gauge``) and, in ``run`` mode, one every GAUGE_INTERVAL_S
seconds while the workload runs (``gauge``), from a timer signal.  The
slices' time is taken out of ``compute_s`` here and out of the wall time
by the parent.
"""

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

SETUP_SLICES = 3
GAUGE_INTERVAL_S = 0.2


def gauge_slice() -> float:
    """Seconds taken by a fixed pure-Python rational-arithmetic loop, the
    same kind of work as qgen's; it gauges the host's speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i)
    return time.perf_counter() - start


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = Path(__file__).resolve().parent.parent
    import qgen.cli  # noqa: F401  (imports every layer)
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    ready = time.monotonic()
    gauge: list[float] = []
    result = {"ready": ready, "setup_gauge": [gauge_slice() for _ in range(SETUP_SLICES)],
              "gauge": gauge}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            # A slice inside a traced run would count as the self time of
            # whatever layer it interrupted, so only plain runs are gauged.
            signal.signal(signal.SIGALRM, lambda *_: gauge.append(gauge_slice()))
            signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            outcome = workloads.run(workload, inputs)
        except Exception as exc:  # report the failure instead of dying silently
            import traceback

            traceback.print_exc()
            outcome = workloads.Outcome(attempted=1, failed=1,
                                        problems=[f"{type(exc).__name__}: {exc}"])
        signal.setitimer(signal.ITIMER_REAL, 0)
        result.update(items=outcome.items, attempted=outcome.attempted,
                      failed=outcome.failed, checks=outcome.checks,
                      compute_s=outcome.compute_s - sum(gauge), problems=outcome.problems)
        if tracer is not None:
            result["layers"] = tracer.metrics(root / "src" / "qgen")
            result["layers"]["padic.refused"] = outcome.refused
            tracer.write(root / ".perfbench_out" / f"{workload}.spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
