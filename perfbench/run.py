"""newtcomm benchmark: the time to certified answers, paid cold.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Closed loop, one client, no threads: passes run one after another, each
in a fresh interpreter (passrun.py), so every pass pays the import and
nothing memoised in one pass serves the next.  A pass times each job of
the workload's fixed job list (workloads.py) and checks every result
against an oracle, outside the timed region.

With ``--trace 0`` the run measures for ``--seconds`` and, if fewer than
MIN_JOB_SAMPLES jobs have been timed by then, keeps going until that many
have, so that at least ten samples lie beyond p90.  It reports the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` it
alternates untraced and traced passes (tracing.py) and reports the
per-layer metrics and ``trace_overhead_s``, the median paired difference
of traced and untraced pass time; on ``roots`` it also probes
``obstruction.reach_m``.  Every time is scaled to a fixed reference speed
(see passrun.py and README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, with sample counts and run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import passrun

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "newtcomm")
WORKLOADS = ("certify", "roots", "calculus", "witness")

MIN_JOB_SAMPLES = 100
LAST_START_S = 120.0  # no pass starts after this ...
HARD_LIMIT_S = 150.0  # ... and none runs past this
REACH_FIRST, REACH_LAST = 17, 41


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _src_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


class Run:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.t0 = time.perf_counter()
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def one_pass(self, *extra: str, count: bool = True) -> dict | None:
        """Run passrun.py once; None if the process itself failed."""
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            out = None
            why = "pass process killed at the run's time limit"
        else:
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            why = f"pass process exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        if out is None:
            if count:
                self.attempted += 1
                self.failed += 1
                self.errors.append(why)
            return None
        if count:
            for job in out["jobs"]:
                self.attempted += 1
                if job["error"] is not None:
                    self.failed += 1
                    self.errors.append(f"{job['name']}: {job['error']}")
        return out

    def reach_m(self) -> int:
        """Largest odd m whose P_m roots finish within the per-job budget,
        probed upwards from the first m the timed job list leaves out."""
        reach = REACH_FIRST - 2
        for m in range(REACH_FIRST, REACH_LAST + 1, 2):
            if self.elapsed() + passrun.BUDGET_S + 5.0 > HARD_LIMIT_S:
                break
            out = self.one_pass("--reach", str(m), count=False)
            if out is None or out["jobs"][0]["error"] is not None:
                break
            reach = m
        return reach


def scaled(ms: float, reference_s: float) -> float:
    """A wall time measured next to a reference slice of reference_s,
    as it would read at the reference speed: the host's drift divided out."""
    return ms * passrun.REFERENCE_S / reference_s


def scaled_pass(p: dict) -> tuple[float, list[float], float]:
    """(pass_s, per-job ms, setup_s) of one pass at the reference speed."""
    job_ms = [scaled(j["ms"], j["reference_s"]) for j in p["jobs"]]
    return sum(job_ms) / 1000.0, job_ms, scaled(p["setup_s"], p["setup_reference_s"])


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    passes: list[tuple[float, list[float], float]] = []
    raw: list[dict] = []
    job_ms: list[float] = []
    while (not passes or run.elapsed() < seconds
           or len(job_ms) < MIN_JOB_SAMPLES) and run.elapsed() < LAST_START_S:
        out = run.one_pass("--trace", "0")
        if out is None:
            break  # counted as a failure; a crashing program ends the run
        passes.append(scaled_pass(out))
        raw.append(out)
        job_ms.extend(passes[-1][1])
    if not passes:
        raise SystemExit("perfbench: no pass completed")
    p90 = statistics.quantiles(job_ms, n=10)[8]
    values = {
        "pass_s": statistics.median(p[0] for p in passes),
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.p90": p90,
        "setup_s": statistics.median(p[2] for p in passes),
    }
    beyond = sum(1 for v in job_ms if v > p90)
    # Peak RSS moves in whole pages and reads the same on most seeds, so it
    # is reported for the reader but carries no bound.
    rss = statistics.median(p["peak_rss_mib"] for p in raw)
    notes = [f"passes {len(passes)}, job samples {len(job_ms)} "
             f"({beyond} beyond p90), jobs per pass {len(raw[0]['jobs'])}",
             f"peak_rss_mib {rss:.3f} MiB (median over passes, not gated)",
             "wall clock, not scaled: median pass_s "
             f"{statistics.median(p['pass_s'] for p in raw):.4f} s, median setup_s "
             f"{statistics.median(p['setup_s'] for p in raw):.4f} s, reference slice "
             f"{statistics.median(j['reference_s'] for p in raw for j in p['jobs']):.4f} s "
             f"(nominal {passrun.REFERENCE_S} s)"]
    return values, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    plain: list[float] = []
    traced: list[dict] = []
    while (not traced or run.elapsed() < seconds) and run.elapsed() < LAST_START_S:
        a = run.one_pass("--trace", "0")
        b = run.one_pass("--trace", "1") if a is not None else None
        if b is None:
            break  # counted as a failure; a crashing program ends the run
        plain.append(scaled_pass(a)[0])
        traced.append(b)
    if not traced:
        raise SystemExit("perfbench: no traced pass completed")

    def layer(t: dict, k: str) -> float:
        v = t["layers"][k]  # self times take the pass's mean speed factor
        return v * scaled_pass(t)[0] / t["pass_s"] if k.endswith(".self_s") else v
    values = {k: statistics.median(layer(t, k) for t in traced) for k in traced[0]["layers"]}
    # paired: each traced pass against the untraced pass just before it
    values["trace_overhead_s"] = statistics.median(
        scaled_pass(t)[0] - p for t, p in zip(traced, plain))
    values["obstruction.reach_m"] = run.reach_m() if run.workload == "roots" else 0
    ranked = sorted(((v, k[:-len(".self_s")]) for k, v in values.items()
                     if k.endswith(".self_s")), reverse=True)
    notes = [f"pairs of untraced and traced passes {len(traced)}, "
             f"spans per traced pass {values['trace.spans']:.0f}",
             "self time by layer: " + ", ".join(f"{k} {v:.3f} s" for v, k in ranked if v > 0),
             "not called: " + (", ".join(k for v, k in ranked if v == 0) or "none")]
    if run.workload != "roots":
        notes.append("obstruction.reach_m is probed on the roots workload only; 0 = not probed")
    return values, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=passrun.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: {PACKAGE_DIR} or {spec_path} is missing; nothing to measure",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    context = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "loadavg_start": _loadavg(), "seed": args.seed,
               "src_lines": _src_lines(), "budget_s": passrun.BUDGET_S}
    run = Run(args.workload, args.seed)
    # compile the package's bytecode once, as an installed CLI would have it
    subprocess.run([sys.executable, "-c", "import newtcomm, workloads, tracing"],
                   cwd=ROOT, check=False, capture_output=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join((os.path.join(ROOT, "src"), HERE))})
    if args.trace:
        values, notes = per_layer(run, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(run, args.seconds)
        wanted = spec["end_to_end"]
    context["loadavg_end"] = _loadavg()
    context["run_s"] = run.elapsed()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} jobs attempted, {run.failed} failed, "
          f"error_rate {run.failed / max(run.attempted, 1):.4f}")
    for note in notes:
        print("  " + note)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for err in run.errors[:10]:
        print("  FAILED " + err.replace("\n", " | "))
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
