"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the bundles (``{"key", "fixture", "field"}`` or
``{"key", "input"}``), how many extra set-ups to time, and whether to trace.
A pass loads every bundle the way ``torsorkit suite`` does, runs the suite
report sequence on each, and prints one JSON object: set-up and verify
times, peak RSS, each bundle's checks and report digest, and the per-layer
numbers when traced.  A fresh process is the cold start a CLI invocation
has: every process-global cache starts empty, which the worker asserts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from torsorkit import algebra, analysis, cli, fields, linalg  # noqa: E402
from torsorkit.pretorsor import TorsorBundle  # noqa: E402
from torsorkit.report import Report  # noqa: E402
from torsorkit.serialize import dumps  # noqa: E402

# process-global state a CLI invocation starts without
GLOBAL_CACHES = {
    "algebra._chain_cache": algebra._chain_cache,
    "algebra._chain_outer_registry": algebra._chain_outer_registry,
    "linalg._identity_cache": linalg._identity_cache,
    "fields._gf_cache": fields._gf_cache,
}


class Speedometer:
    """Wall time, and the same time in reference seconds.

    On a machine whose cores are shared, the same Python code can run
    anywhere between 1x and 2x slower from one second to the next.  So while
    a timed call runs, a timer interrupts it every ``INTERVAL`` seconds to
    time a fixed reference loop, and one more loop runs just before and just
    after.  A reference second is the time the call would have taken had
    every loop taken ``REFERENCE_LOOP_S``: wall seconds times the mean of
    REFERENCE_LOOP_S / loop time.  The loops' own time is left out of the
    wall time.
    """

    INTERVAL = 0.025
    REFERENCE_LOOP_S = 0.001

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    @staticmethod
    def loop() -> float:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(120):
            acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7)
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.loop())
        self.spent += time.perf_counter() - t0

    def measure(self, fn):
        """(fn(), wall seconds, reference seconds)."""
        self.samples, self.spent = [self.loop()], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall -= self.spent
        self.samples.append(self.loop())
        speed = statistics.fmean(self.REFERENCE_LOOP_S / s for s in self.samples)
        return out, wall, wall * speed


def assert_cold():
    warm = [name for name, cache in GLOBAL_CACHES.items() if cache]
    if warm:
        raise RuntimeError(f"not a cold start: {', '.join(warm)} already filled")
    if "TORSORKIT_THREADS" in os.environ:
        raise RuntimeError("TORSORKIT_THREADS is set; the benchmark runs one thread")


def clear_caches():
    for cache in GLOBAL_CACHES.values():
        cache.clear()


def load(item):
    """The CLI's own loading path for one bundle: (bundle, fixture or None)."""
    args = argparse.Namespace(fixture=item.get("fixture"), input=item.get("input"),
                              field=item.get("field"), dump_matrices=False)
    return cli._load_bundle(args)


def suite_sections(bundle, fx):
    """The report sequence of ``cli.run("suite")``, each tagged by its job.

    Module attributes are looked up at call time, so a traced pass sees the
    wrapped functions.
    """
    an = analysis.BundleAnalysis(bundle)
    jobs = [("validate", lambda: analysis.validate_report(bundle)),
            ("build", lambda: analysis.build_report(an))]
    if isinstance(bundle, TorsorBundle):
        jobs.append(("bialgebroid", lambda: analysis.bialgebroid_report(an)))
        if fx is not None and fx.hopf is not None:
            jobs.append(("twist", lambda: cli._twist_report(bundle, fx)))
    jobs.append(("diffcalc", lambda: analysis.diffcalc_report(an)))
    tagged = [(section, job()) for section, job in jobs]
    tagged.sort(key=lambda pair: pair[1].name)
    return tagged


def suite_document(bundle, fx):
    """(sections, report document) exactly as ``cli.run("suite")`` builds it."""
    tagged = suite_sections(bundle, fx)
    master = Report(bundle.name)
    for _, rep in tagged:
        master.extend(rep)
    return tagged, master.to_json()


def check_rows(tagged):
    return [[section, c.check_id, c.status, dict(sorted((c.dims or {}).items()))]
            for section, rep in tagged for c in rep.checks]


def timed_setup(items, speed):
    """Load every bundle; returns (loaded, times in seconds)."""
    loaded = []
    times = {"generate_s": 0.0, "load_s": 0.0, "wall_s": 0.0, "ref_s": 0.0}
    for item in items:
        (bundle, fx), wall, ref = speed.measure(lambda: load(item))
        times["generate_s" if "fixture" in item else "load_s"] += wall
        times["wall_s"] += wall
        times["ref_s"] += ref
        loaded.append((item, bundle, fx))
    return loaded, times


def verify(bundle, fx):
    tagged, doc = suite_document(bundle, fx)
    return tagged, dumps(doc)


def run_pass(spec):
    assert_cold()
    items = spec["bundles"]
    speed = Speedometer()
    gc.collect()
    loaded, setup = timed_setup(items, speed)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    bundles = []
    for item, bundle, fx in loaded:
        gc.collect()
        if tracer is None:
            (tagged, text), wall, ref = speed.measure(lambda: verify(bundle, fx))
        else:
            t0 = time.perf_counter()
            tagged, text = verify(bundle, fx)
            wall = ref = time.perf_counter() - t0
            tracer.mark_bundle(item["key"])
        bundles.append({
            "key": item["key"],
            "wall_s": wall,
            "ref_s": ref,
            "checks": check_rows(tagged),
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.finish(spec["trace_out"]) if tracer is not None else None
    # more set-ups for a steadier setup_s, each from empty caches
    setups = [setup]
    for _ in range(spec.get("setup_repeats", 0)):
        del loaded
        clear_caches()
        gc.collect()
        loaded, times = timed_setup(items, speed)
        setups.append(times)
    return {
        "verify_wall_s": sum(b["wall_s"] for b in bundles),
        "verify_ref_s": sum(b["ref_s"] for b in bundles),
        "setups": setups,
        "peak_rss_mb": peak_rss_mb,
        "bundles": bundles,
        "layers": layers,
    }


def main():
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
