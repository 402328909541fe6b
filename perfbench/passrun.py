"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/passrun.py --workload certify --seed 1 --trace 0

Prints one JSON object: set-up time, pass time, each job's time, verdict
and output digest, peak resident memory and, with ``--trace 1``, the
per-layer figures.  ``run.py`` starts one of these per pass, so every
pass pays for ``import newtcomm`` the way a command-line user does.

Set-up (timed as ``setup_s``) is the import plus generating and parsing
the pass's inputs.  Each job runs under a wall-clock budget enforced in
this process with SIGALRM; its oracle and digest are computed right after
it, outside the timed region and with tracing off.

Between jobs, at most REFERENCE_EVERY_S apart, the pass times a fixed
stdlib ``Fraction`` loop that does not touch newtcomm.  On a shared host
the speed a process gets drifts by a third within seconds; each job
carries the mean of the slices around it, and ``run.py`` divides the
drift out (see ``REFERENCE_S``).  ``pass_s`` is the sum of the job times,
so it leaves the slices out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

BUDGET_S = 10.0
REFERENCE_ITERATIONS = 4000
# About how long the reference loop takes on the 2-vCPU Xeon host the
# benchmark was defined on; run.py scales each time by REFERENCE_S over
# the reference time measured next to it, so figures read as seconds at
# that speed.
REFERENCE_S = 0.025
REFERENCE_EVERY_S = 0.25
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_MISMATCH = "output digest differs from the one recorded for the default seed"


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def reference_loop() -> float:
    """Wall time of a fixed Fraction loop that does not touch newtcomm."""
    from fractions import Fraction  # after set-up, which pays for this import

    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REFERENCE_ITERATIONS):
        acc += Fraction(1, i % 97 + 1) * i
    return time.perf_counter() - start


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def verdict(job, out, err: str | None, recorded: dict | None) -> tuple[str | None, str | None]:
    """(error, digest) of one job's result: its oracle, then, on the default
    seed, the recorded digest of its canonical output."""
    if err is not None:
        return err, None
    try:
        err, sha = job.check(out), digest(job.canon(out))
    except Exception:  # a broken result may break its oracle too
        return "oracle raised: " + traceback.format_exc(limit=-2), None
    if err is None and recorded is not None and recorded.get(job.name) != sha:
        err = DIGEST_MISMATCH
    return err, sha


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=BUDGET_S,
                    help="per-job wall-clock budget in seconds")
    ap.add_argument("--reach", type=int, metavar="M",
                    help="run only build_obstruction(M) + rational_roots")
    ap.add_argument("--mutate", help="install a deliberately wrong result (selfcheck.py)")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)  # the checkout's package, not an installed one
    t0 = time.perf_counter()
    import newtcomm  # noqa: F401  (timed: part of set-up)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
        tracer.active = True
    if args.mutate:
        import mutations
        mutations.install(args.mutate, args.budget)
    import workloads
    if args.reach is not None:
        jobs = [workloads.obstruction_job(args.reach)]
    else:
        jobs = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0

    recorded = None
    if args.seed == DEFAULT_SEED and args.reach is None:
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(args.workload, {})

    # reference slices, taken between jobs at most REFERENCE_EVERY_S apart
    slices = [reference_loop()]
    last_slice = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    report = []
    for i, job in enumerate(jobs):
        if time.perf_counter() - last_slice >= REFERENCE_EVERY_S:
            slices.append(reference_loop())
            last_slice = time.perf_counter()
        if tracer is not None:
            tracer.job_id = i
            tracer.active = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, args.budget)
        try:
            out, err = job.run(), None
        except BudgetExceeded:
            out, err = None, f"exceeded the {args.budget:g} s budget"
        except Exception:  # a job that raises is a failed job, not a failed pass
            out, err = None, "raised: " + traceback.format_exc(limit=-2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ms = (time.perf_counter() - start) * 1000.0
        if tracer is not None:
            tracer.active = False
        # checked here, untimed, and then dropped: holding every result until
        # the end would grow the heap and the collector's work over the pass
        err, sha = verdict(job, out, err, recorded)
        report.append({"name": job.name, "ms": ms, "error": err, "digest": sha,
                       "slice": len(slices) - 1})
    slices.append(reference_loop())
    for r in report:
        before = r.pop("slice")  # the slices just before and just after the job
        r["reference_s"] = (slices[before] + slices[before + 1]) / 2.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": sum(r["ms"] for r in report) / 1000.0,
        "setup_reference_s": slices[0],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": report,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
