"""Time the large ladder rungs on two source trees, in alternating fresh processes.

    python tools/ladder.py --parent DIR --change DIR [--rung NAME ...] [--pairs N]
                           [--json OUT]

Each run is one fresh interpreter with ``DIR/src`` on ``PYTHONPATH``.  It builds
the rung's bundle, runs the ``validate``, ``build``, ``bialgebroid`` and
``diffcalc`` reports on it in one process, and prints one JSON line: wall
seconds from the built bundle to the finished reports, peak RSS, the number
of checks and of passing checks, and the SHA-256 of the reports' JSON.  Pairs
alternate which tree runs first.  The rungs (ROADMAP item 1):

    smash4   smash m = 4 over GF(101): B = k[y]/(y^4 - 1), H = kC4, g^h acting
             on y^b by zeta^(hb) with zeta = 10, T = B # H, beta(y^b) = y^b # 1
             and the cleft tau
    cyclic12 the cyclic group algebra kC12 over Q as a Hopf-Galois torsor over
             k, built as the fixture EX-Q4 is (kC4)
    cyclic16 the same at order 16

The wall times are plain seconds, so compare only runs made in one session.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNGS = ("smash4", "cyclic12", "cyclic16")
ZETA = 10  # of order 4 in GF(101)


def _smash4():
    from torsorkit.algebra import AlgebraMap, field_algebra
    from torsorkit.fields import GF
    from torsorkit.fixtures import (group_algebra, group_hopf, smash_cleft_tau,
                                    smash_product, unit_algebra_map)
    from torsorkit.linalg import Matrix
    from torsorkit.pretorsor import make_bundle
    from torsorkit.spaces import LinearMap

    f, m = GF(101), 4
    B, h = group_algebra(f, m, "B"), group_hopf(f, m, "kC4")
    # column h*m + b of the action is zeta^(hb) e_b
    action = Matrix.from_cols(f, [[pow(ZETA, hh * b, f.p) if i == b else 0 for i in range(m)]
                                  for hh in range(m) for b in range(m)], m)
    T = smash_product(f, B, h, action)
    kA = field_algebra(f)
    beta = AlgebraMap(B, T, LinearMap.from_columns(
        B.space, T.space, [[f.one if i == b * m else f.zero for i in range(T.dim)]
                           for b in range(m)]))
    return make_bundle(kA, B, T, unit_algebra_map(kA, T), beta,
                       smash_cleft_tau(f, B, h), "smash4", torsor=True)


def _cyclic(n, name):
    """The cyclic group algebra kC_n over Q as a Hopf-Galois torsor over k,
    named ``name``; at n = 4 and named EX-Q4 it is the fixture EX-Q4."""
    from torsorkit.algebra import field_algebra
    from torsorkit.fields import QQ
    from torsorkit.fixtures import group_hopf, hopf_torsor_tau, unit_algebra_map
    from torsorkit.pretorsor import make_bundle

    h = group_hopf(QQ, n, f"kC{n}")
    kA, kB = field_algebra(QQ), field_algebra(QQ)
    T = h.algebra
    return make_bundle(kA, kB, T, unit_algebra_map(kA, T), unit_algebra_map(kB, T),
                       hopf_torsor_tau(h), name, torsor=True)


def reports(bundle):
    """The ``validate``, ``build``, ``bialgebroid`` and ``diffcalc`` reports
    of ``bundle``, in that order."""
    from torsorkit.analysis import (BundleAnalysis, bialgebroid_report, build_report,
                                    diffcalc_report, validate_report)

    an = BundleAnalysis(bundle)
    return [validate_report(bundle), build_report(an), bialgebroid_report(an),
            diffcalc_report(an)]


def run_rung(rung):
    """One run of ``rung`` in this process: its result line as a dict."""
    import resource
    import time

    from torsorkit.serialize import dumps

    bundle = _smash4() if rung == "smash4" else _cyclic(int(rung[len("cyclic"):]), rung)
    start = time.perf_counter()
    done = reports(bundle)
    wall = time.perf_counter() - start
    docs = [r.to_json() for r in done]
    checks = [c for d in docs for c in d["checks"]]
    return {"rung": rung, "wall_s": round(wall, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "checks": len(checks), "passed": sum(c["status"] == "pass" for c in checks),
            "digest": hashlib.sha256("".join(map(dumps, docs)).encode()).hexdigest()}


def _spawn(tree, rung):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    proc = subprocess.run([sys.executable, __file__, "--run", rung], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--run", choices=RUNGS, help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="source tree of the parent commit")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--rung", choices=RUNGS, action="append")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--json", dest="json_out", help="write every run here")
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_rung(args.run)))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    for rung in args.rung or RUNGS:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = dict(_spawn(trees[side], rung), side=side, pair=pair)
                runs.append(out)
                print(json.dumps(out), flush=True)
        for side in trees:
            mine = [r for r in runs if r["rung"] == rung and r["side"] == side]
            print(f"{rung} {side}: median {statistics.median(r['wall_s'] for r in mine):.2f} s, "
                  f"peak {max(r['peak_rss_mb'] for r in mine):.0f} MB, "
                  f"{mine[0]['passed']} of {mine[0]['checks']} pass, "
                  f"digests {sorted({r['digest'][:12] for r in mine})}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
