"""qreflect certifier benchmark.

    python3 perfbench/run.py --workload exact-n5|exact-small|numeric \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh child
processes (perfbench/worker.py), one at a time, as a closed loop with one
client: checks run one after another, as `verify` runs them.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters), then passes of the workload, each with new inputs
drawn from the seed, for --seconds; times are medians over the passes.
--trace 1 prints the per-layer metrics of one traced pass, plus the tracing
overhead against one untraced pass of the same inputs; the spans of the last
traced run of each workload are written to .perfbench/ in the checkout.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child(mode, args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.smoke and mode == "measure":
        cmd.append("--smoke")
    # fixed hash seed: set iteration order, and so the digest, repeats
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the {DEADLINE_S:g} s deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = [child("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = child("measure", args, deadline,
                ["--seconds", str(args.seconds), "--trace", "0"])
    passes = res["passes"]
    lat = res["latencies_ms"]
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "checks_per_s": metric(statistics.median(
            p["decided"] / p["wall_s"] for p in passes), "1/s"),
        "check_p50_ms": metric(statistics.median(lat), "ms"),
        "check_p90_ms": metric(deciles[8], "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    print("check latency (calls, median ms, max ms): " + "  ".join(
        f"{k} {c} {m:.1f} {x:.1f}"
        for k, (c, m, x) in res["latency_by_check_ms"].items()))
    print(f"passes {len(passes)}: wall "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + f" s; {res['check_calls']} check calls "
          f"({sum(t > deciles[8] for t in lat)} beyond p90); "
          f"set-up probes {SETUP_PROBES}")
    return res, passes, metrics


def per_layer(args, deadline):
    base = child("measure", args, deadline, ["--seconds", "0", "--trace", "0"])
    spans = ROOT / ".perfbench" / f"spans-{args.workload}.json"
    res = child("measure", args, deadline,
                ["--seconds", "0", "--trace", "1", "--spans-out", str(spans)])
    p = res["passes"][0]
    tr = res["trace"]
    stats = tr["stats"]

    def stat(*keys):
        calls = sum(stats.get(k, (0, 0, 0))[0] for k in keys)
        self_s = sum(stats.get(k, (0, 0, 0))[2] for k in keys)
        return calls, self_s

    lself, lcalls = tr["layer_self_s"], tr["layer_calls"]
    poly_mul = stat("scalars.LaurentPolynomial.__mul__")
    ratexpr = stat("scalars.RationalExpression.__init__")
    gcd = stat("scalars.poly_gcd")
    poch = stat("scalars.poch_finite", "scalars.poch_ratio_telescoped",
                "scalars.poch_infinite_truncated", "scalars.poch_ratio_numeric")
    inverse = stat("linalg.Matrix.inverse")
    matmul = stat("linalg.Matrix.__mul__")
    unfactored = stat("koperators.build_K_unfactored")
    s, c = "s", "count"
    metrics = {
        "scalars.self_s": metric(lself["scalars"], s),
        "scalars.poly_mul.calls": metric(poly_mul[0], c),
        "scalars.poly_mul.self_s": metric(poly_mul[1], s),
        "scalars.ratexpr.calls": metric(ratexpr[0], c),
        "scalars.ratexpr.self_s": metric(ratexpr[1], s),
        "scalars.max_coeff_bits": metric(tr["maxima"]["coeff_bits"], "bits"),
        "scalars.poly_gcd.calls": metric(gcd[0], c),
        "scalars.poly_gcd.self_s": metric(gcd[1], s),
        "scalars.poch.calls": metric(poch[0], c),
        "scalars.poch.self_s": metric(poch[1], s),
        "linalg.self_s": metric(lself["linalg"], s),
        "linalg.inverse.calls": metric(inverse[0], c),
        "linalg.inverse.self_s": metric(inverse[1], s),
        "linalg.matmul.calls": metric(matmul[0], c),
        "linalg.matmul.self_s": metric(matmul[1], s),
        "linalg.add.self_s": metric(stat("linalg.Matrix.__add__")[1], s),
        "linalg.residual.self_s": metric(stat("linalg.residual")[1], s),
        "linalg.max_den_span": metric(tr["maxima"]["den_span"], "exponents"),
        "linalg.max_nnz": metric(tr["maxima"]["nnz"], c),
        "representations.calls": metric(lcalls["representations"], c),
        "representations.self_s": metric(lself["representations"], s),
        "loperators.calls": metric(lcalls["loperators"], c),
        "loperators.self_s": metric(lself["loperators"], s),
        "koperators.self_s": metric(lself["koperators"], s),
        "koperators.build_K.calls": metric(stat("koperators.build_K")[0], c),
        "koperators.build_K_unfactored.calls": metric(unfactored[0], c),
        "koperators.build_K_unfactored.self_s": metric(unfactored[1], s),
        "koperators.q_exp_nilpotent.self_s": metric(
            stat("koperators.q_exp_nilpotent")[1], s),
        "checks.calls": metric(lcalls["checks"], c),
        "checks.self_s": metric(lself["checks"], s),
        "checks.wrong_verdicts": metric(p["wrong_verdicts"], c),
        "suite.self_s": metric(lself["suite"], s),
        "suite.undecided": metric(p["undecided"], c),
        "suite.pole_retries": metric(res["pole_retries"], c),
        "suite.emit_s": metric(p["emit_s"], s),
        "untraced.self_s": metric(tr["outside_s"], s),
        "trace.self_s": metric(tr["probe_s"], s),
        "trace.wall_s": metric(p["wall_s"], s),
        "trace.overhead_s": metric(p["wall_s"] - base["passes"][0]["wall_s"], s),
    }
    accounted = sum(lself.values()) + tr["outside_s"] + tr["probe_s"]
    print(f"traced wall {p['wall_s']:.3f} s = layer self times "
          f"{sum(lself.values()):.3f} s + untraced {tr['outside_s']:.3f} s "
          f"+ probes {tr['probe_s']:.3f} s (sum {accounted:.3f} s); "
          f"untraced pass {base['passes'][0]['wall_s']:.3f} s; "
          f"{tr['spans']} spans in {spans.relative_to(ROOT)}")
    return res, [p, base["passes"][0]], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smoke size of the workload (perfbench/selftest.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qreflect" / "__init__.py").is_file():
        print(f"no qreflect sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, passes, metrics = per_layer(args, deadline)
        else:
            res, passes, metrics = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    # traced runs: the traced and the untraced pass 0 must agree
    digests = {p["digest"] for p in passes} if args.trace else {first["digest"]}
    unexpected = sum(p["unexpected"] for p in passes)
    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}"
          f"  nproc {env['nproc']}  coefficients {env['coefficients']}"
          f"  check limit {workloads.CHECK_LIMIT_S:g} s")
    print(f"verdict digest {first['digest']} (pass 0)"
          + ("" if len(digests) == 1 else "  MISMATCH traced/untraced: "
             + " ".join(sorted(digests))))
    print("wall by suite: " + "  ".join(
        f"{k} {v:.3f} s" for k, v in first["wall_by_suite_s"].items()))
    print(f"attempted {first['attempted']}  failed {first['failed']}"
          f"  failed_frac {first['failed'] / first['attempted']:.6f}"
          f"  (undecided {first['undecided']}, errors {first['errors']},"
          f" wrong verdicts {first['wrong_verdicts']};"
          f" known defects {first['known_defects']}, unexpected {unexpected})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    correct = len(digests) == 1 and unexpected == 0
    print(json.dumps({"correct": correct, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
