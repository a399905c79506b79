"""The torsorkit benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (``workloads.py``): fixtures-q, smash-q, dense-q, dense-gf101.
Each pass runs ``torsorkit suite`` on every bundle of the workload in a fresh
interpreter with one thread, so every pass starts cold, the way a CLI
invocation does.  Passes repeat, one after another, until ``--seconds`` have
gone by (at least one pass).  Every pass is checked against the recorded
reference (``gate.py``); the run exits 1 when any check fails.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its passes:

    verify_s      seconds from the loaded bundles to the finished reports
    checks_per_s  checks verified per second of verify_s
    setup_s       the program's own loading: fixture generation with its
                  oracle, or reading and parsing the documents
    peak_rss_mb   peak resident memory of a pass
    failed_ratio  failed checks over checks attempted (printed; it is the
                  ``failed``/``attempted`` pair of the result line)

Times are reference seconds (``worker.Speedometer``): wall seconds rescaled
by how fast the machine ran a fixed reference loop during the same
interval, so that a shared machine's changing speed does not read as a
change of the program.  The plain wall-clock medians are printed beside
them and kept in the result file.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of ``tracer.METRICS``; the spans go to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# timed set-ups per pass after the first; setup_s is their median
SETUP_REPEATS = 2
# no run may take longer than this, passes included
RUN_LIMIT_S = 170.0


def machine_note():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_worker(items, deadline, trace_out=None):
    """One cold pass in a fresh interpreter; returns its result object."""
    spec = {"bundles": items, "setup_repeats": SETUP_REPEATS,
            "trace": trace_out is not None, "trace_out": str(trace_out)}
    env = dict(os.environ)
    env.pop("TORSORKIT_THREADS", None)
    # fixed string hashing: a pass does the same work every time
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_pass(result, items, reference):
    """(attempted, failed, problems) of one pass against the reference."""
    attempted = failed = 0
    problems = []
    for item, bundle in zip(items, result["bundles"]):
        a, f, p = gate.compare(reference[item["key"]], bundle, item["native"])
        attempted += a
        failed += f
        problems.extend(f"{item['key']}: {x}" for x in p)
    return attempted, failed, problems


def check_count(result):
    return sum(len(b["checks"]) for b in result["bundles"])


def end_to_end(passes):
    """{name: (value, unit)}: medians over the passes, in reference seconds."""
    setups = [t["ref_s"] for r in passes for t in r["setups"]]
    return {
        "verify_s": (statistics.median(r["verify_ref_s"] for r in passes), "s"),
        "checks_per_s": (statistics.median(check_count(r) / r["verify_ref_s"]
                                           for r in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }


def wall_clock(passes):
    """The same medians in plain wall seconds, printed and recorded beside them."""
    return {
        "verify_wall_s": statistics.median(r["verify_wall_s"] for r in passes),
        "setup_wall_s": statistics.median(t["wall_s"] for r in passes
                                          for t in r["setups"]),
    }


def layer_problems(workload, metrics):
    """Layers whose call counts contradict where the workload is known to work."""
    spec = workloads.WORKLOADS[workload]
    problems = []
    for name in workloads.ALWAYS_CALLED:
        if metrics[name]["value"] == 0:
            problems.append(f"{name} is 0: a wrapped alias was probably missed")
    quotient = metrics["spaces.quotient.self_s"]["value"]
    if (workload in workloads.QUOTIENT_FREE) != (quotient == 0):
        problems.append(f"spaces.quotient.self_s is {quotient}")
    for name in workloads.HOPF_ONLY:
        value = metrics[name]["value"]
        if spec["dense"] and value != 0:
            problems.append(f"{name} is {value} on a document workload")
        if not spec["dense"] and value == 0:
            problems.append(f"{name} is 0 on a workload with Hopf data")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torsorkit" / "__init__.py").is_file():
        print(f"error: no torsorkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    reference = gate.load_reference()
    items = workloads.prepare(args.workload, args.seed, OUT)
    machine = machine_note()

    passes = []
    layers = None
    if args.trace:
        import tracer
        passes.append(run_worker(items, deadline))
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        traced = run_worker(items, deadline, trace_path)
        passes.append(traced)
        layers = tracer.layer_metrics(
            traced["layers"], traced["setups"][0],
            traced["verify_wall_s"] - passes[0]["verify_wall_s"])
    else:
        measure_from = time.monotonic()
        while not passes or time.monotonic() - measure_from < args.seconds:
            passes.append(run_worker(items, deadline))

    attempted = failed = 0
    problems = []
    for result in passes:
        a, f, p = gate_pass(result, items, reference)
        attempted += a
        failed += f
        problems.extend(p)
    if layers is not None:
        layer_errors = layer_problems(args.workload, layers)
        problems.extend(layer_errors)
        failed += len(layer_errors)

    # a traced pass is slower by design: end-to-end numbers come from untraced passes
    timed = passes[:1] if args.trace else passes
    e2e = end_to_end(timed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:>14.4f} {unit:<5} median of {len(timed)} passes")
    wall = wall_clock(timed)
    for name, value in wall.items():
        print(f"  {name:<14} {value:>14.4f} s     wall clock, not calibrated")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':<14} {ratio:>14.4f} ratio ({failed} of {attempted} checks)")
    if layers is not None:
        for name, m in layers.items():
            print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    for p in problems[:50]:
        print(f"FAILED {p}")

    metrics = layers if layers is not None else {
        name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, problems=problems, wall_clock=wall,
                  passes=[{"verify_wall_s": r["verify_wall_s"],
                           "verify_ref_s": r["verify_ref_s"], "setups": r["setups"],
                           "peak_rss_mb": r["peak_rss_mb"],
                           "bundles": {b["key"]: [b["wall_s"], b["ref_s"]]
                                       for b in r["bundles"]},
                           "builds_per_bundle": (r["layers"] or {}).get("builds_per_bundle")}
                          for r in passes])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
