"""Self-test of the benchmark on the smoke size of every workload.

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json is printed, that the
oracle flags verdicts that contradict a deliberately wrong expectation, that
each layer counter is nonzero on the workload built to load it, and that the
traced layer self times plus the untraced remainder add up to the traced
wall time.  Takes about a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

# counters that must be nonzero on the workload built to load them
LOADED = {
    "exact-n5": ("scalars.poly_mul.calls", "scalars.ratexpr.calls",
                 "scalars.max_coeff_bits", "linalg.max_den_span",
                 "koperators.build_K.calls"),
    # the suites reach build_K_unfactored only through the onsager candidate
    "exact-small": ("linalg.inverse.calls", "scalars.poly_gcd.calls",
                    "koperators.build_K_unfactored.calls", "checks.calls"),
    "numeric": ("scalars.poch.calls", "linalg.matmul.calls",
                "representations.calls", "loperators.calls"),
}


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(spec: dict):
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1, result
            names = {m["name"] for m in spec[key]}
            assert set(result["metrics"]) == names, (
                workload, key, names ^ set(result["metrics"]))
            printed = "\n".join(text)
            for name in names:
                assert f"  {name} " in printed, (workload, name)
            assert "verdict digest " in printed and "coefficients " in printed
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                for name in LOADED[workload]:
                    assert m[name] > 0, (workload, name, m[name])
                layers = sum(v for k, v in m.items() if k.endswith(".self_s")
                             and k.count(".") == 1)
                assert abs(layers - m["trace.wall_s"]) <= 0.01 * m["trace.wall_s"], (
                    workload, layers, m["trace.wall_s"])
            print(f"ok  {workload} trace={trace}: {len(names)} metrics")


def check_oracle():
    from qreflect import suite

    def flipped(name, params):
        verdict, finding = oracle.expected(name, params)
        return (oracle.NONZERO if verdict == oracle.HOLDS else oracle.HOLDS), finding

    decided = 0
    for kwargs in workloads.configs("exact-small", 1, smoke=True):
        cfg = suite.SuiteConfig(**kwargs)
        for r in suite.run_suite(cfg):
            _, failure = oracle.judge(r, cfg.backend, cfg.tol)
            assert failure is None, (r.name, r.params)
            _, failure = oracle.judge(r, cfg.backend, cfg.tol, expect=flipped)
            assert failure == ("wrong", None), (r.name, failure)
            decided += 1
    # the W0 finding: zero at t = m s = 0, nonzero at t = 2
    w0 = {"k_plus": "1/2", "k_minus": "3", "s0": 1, "s1": -1, "x": "q^2", "n": 2}
    assert oracle.expected("onsager/int_W0", w0) == (oracle.HOLDS, True)
    assert oracle.expected("onsager/int_W0", {**w0, "s1": 0}) == (oracle.NONZERO, True)
    assert oracle.expected("onsager/int_W0", {**w0, "k_minus": "0"}) == (oracle.HOLDS, False)
    print(f"ok  oracle flags all {decided} decided smoke checks against a "
          "flipped expectation")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_printed(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
