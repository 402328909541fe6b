"""Checks of the benchmark itself, one short pass each.

    python3 perfbench/selfcheck.py            # verify; exit 1 on any failure
    python3 perfbench/selfcheck.py --record   # rewrite digests.json

Verified here:
  * every workload passes its oracles and the recorded output digests on
    the default seed, and its oracles on another seed;
  * each deliberate mutation (mutations.py), including a job that stalls
    past a shortened budget, is counted as a failed job;
  * a traced pass produces every per-layer metric BENCHMARK.json names;
  * tracing reports zero calls for a function the package no longer has,
    and wraps an aliased class once.

--record runs each workload on the default seed and stores the digest of
every job's canonical output; do it only when an output change is meant.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import passrun
from run import HERE, ROOT, WORKLOADS, Run

OTHER_SEED = 1
STALL_BUDGET_S = 1.0

ALIAS_AND_MISSING = r"""
import newtcomm
from newtcomm import commutant, laurentpoly, poly
del commutant.expand_level                 # as if the function were deleted
laurentpoly.LaurentPoly = poly.UniPoly     # as if the two kernels were merged
import tracing
tr = tracing.install()
tr.active = True
poly.UniPoly([1, 2]) * poly.UniPoly([3])
tr.active = False
out = tr.report()
assert out["commutant.expand_level.calls"] == 0, out
assert out["poly.mul.calls"] == 1, out
assert out["laurentpoly.mul.calls"] == 0, out
print("ok")
"""


def one_pass(workload: str, seed: int, *extra: str) -> dict:
    out = Run(workload, seed).one_pass(*extra)
    if out is None:
        raise SystemExit(f"selfcheck: the {workload} pass process failed")
    return out


def failures(out: dict) -> list[str]:
    return [f"{j['name']}: {j['error']}" for j in out["jobs"] if j["error"] is not None]


def record() -> int:
    digests = {}
    for w in WORKLOADS:
        out = one_pass(w, passrun.DEFAULT_SEED)
        bad = [j for j in out["jobs"] if j["error"] not in (None, passrun.DIGEST_MISMATCH)]
        if bad:
            print(f"{w}: not recording, oracle failures: {bad[:3]}")
            return 1
        digests[w] = {j["name"]: j["digest"] for j in out["jobs"]}
    with open(passrun.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(d) for d in digests.values())} digests in {passrun.DIGESTS}")
    return 0


def verify() -> int:
    sys.path.insert(0, passrun.SRC)  # mutations.py imports the package
    from mutations import MUTATIONS

    problems = []
    for w in WORKLOADS:
        for seed in (passrun.DEFAULT_SEED, OTHER_SEED):
            bad = failures(one_pass(w, seed))
            print(f"{w:9} seed {seed}: {len(bad)} failed")
            problems += [f"{w} seed {seed}: {b}" for b in bad[:3]]
    for name, (w, _) in MUTATIONS.items():
        extra = ["--mutate", name]
        if name == "stall":
            extra += ["--budget", str(STALL_BUDGET_S)]
        bad = failures(one_pass(w, OTHER_SEED, *extra))
        print(f"mutation {name:15} on {w:9}: {len(bad)} failed")
        if not bad:
            problems.append(f"mutation {name} on {w} was not counted as a failure")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(one_pass("calculus", OTHER_SEED, "--trace", "1")["layers"])
    produced |= {"trace_overhead_s", "obstruction.reach_m"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    print(f"per-layer metrics in BENCHMARK.json not produced by a traced pass: {missing}")
    if missing:
        problems.append(f"per-layer metrics never produced: {missing}")
    proc = subprocess.run([sys.executable, "-c", ALIAS_AND_MISSING], cwd=ROOT,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              (os.path.join(ROOT, "src"), HERE))})
    print(f"tracing with a missing function and an aliased class: {proc.stdout.strip() or 'FAILED'}")
    if proc.returncode != 0:
        problems.append("tracing: " + proc.stderr.strip()[-500:])
    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="rewrite digests.json")
    return record() if ap.parse_args().record else verify()


if __name__ == "__main__":
    sys.exit(main())
