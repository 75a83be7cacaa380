"""Self-check of the benchmark: damaged inputs fail, every workload passes.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It runs two damaged cases, each of
which must show up as a failed operation at a named step, then one
untraced, one traced and one memory repetition of every workload, which
must match every pin, report every per-layer metric of BENCHMARK.json, and
have top-level spans that account for the traced wall time.  It takes about
three minutes; exit code 0 means every check held.
"""

from __future__ import annotations

import sys

import run

# (workload, damage, the step that must fail)
DAMAGED = (
    ("extend-3125", "rdf-point", "develop"),
    ("cli-chain", "design-row", "z7 verify design"),
)
MIN_TOP_LEVEL_SHARE = 0.99


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    spec = run.load_spec()
    problems = []

    for workload, damage, step in DAMAGED:
        reps, setups = run.measure(workload, 0, 0, False, min_reps=1, min_setups=0, damage=damage)
        _metrics, attempted, failures = run.summarize(reps, setups, False)
        caught = any(f.startswith(step + ":") for f in failures)
        print(f"damaged {workload} ({damage}): {len(failures)} of {attempted} operations failed; "
              f"{step!r} {'failed' if caught else 'PASSED'}")
        if not caught:
            problems.append(f"{workload} with {damage}: step {step!r} did not fail")

    for workload in (w["name"] for w in spec["workloads"]):
        reps, setups = run.measure(workload, 0, 0, True, min_reps=3, min_setups=0)
        metrics, attempted, failures = run.summarize(reps, setups, True)
        missing = [m["name"] for m in spec["per_layer"] if metrics.get(m["name"]) is None]
        share = metrics.get("trace.top_level_share") or 0.0
        print(f"smoke {workload}: {attempted} operations, {len(failures)} failed, "
              f"top-level spans cover {share:.4f} of the traced wall time")
        problems += [f"{workload}: {f}" for f in failures]
        if missing:
            problems.append(f"{workload}: no value for {', '.join(missing)}")
        if share < MIN_TOP_LEVEL_SHARE:
            problems.append(f"{workload}: top-level spans cover only {share:.4f} of wall_s")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
