"""One benchmark child process; run.py starts it, one at a time.

    worker.py setup   --workload W --seed N
    worker.py measure --workload W --seed N --seconds S --trace 0|1 [--smoke]

`setup` times what every `verify` invocation pays: a fresh interpreter's
`import qreflect`, `make_irrep` for the workload's dimensions and one check.
`measure` warms up the same way, then runs passes of the workload, each
with new inputs, until the next pass would end after `--seconds` and at
least MIN_CALLS check calls are made (exactly one pass, pass 0, when
traced), and prints one JSON object.
Pass 0 is the same in every run with the same seed: its verdict digest and
failure counts are the ones reported.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# at least ten latency samples beyond p90
MIN_CALLS = 100


def warm_up(workload: str, seed: int):
    """import + make_irrep for every dimension + one check; returns qreflect."""
    import qreflect
    from qreflect import suite

    cfg = suite.SuiteConfig(**workloads.configs(workload, seed)[0])
    ctx = cfg.context()
    reps = [qreflect.make_irrep(ctx, n) for n in cfg.dims]
    drawer = suite.Drawer(cfg, random.Random(seed))
    params = drawer.params(ctx)
    x, y, z = (drawer.spectral(ctx, None) for _ in range(3))
    qreflect.check_ybe(ctx, "LLR", reps[0], params, x, y, z)
    return qreflect


# ---------------------------------------------------------------------------
# Per-check guard: time limit, latency, placeholders
# ---------------------------------------------------------------------------

class CheckTimeout(BaseException):
    """Raised by SIGALRM inside a check; BaseException so no handler in the
    program swallows it."""


class CheckGuard:
    """Wraps each public check_* function as `qreflect.suite` sees it.

    A call that reaches the limit or raises (other than PoleError, which the
    suite's redraw loop needs) returns a placeholder report instead, so the
    suite continues and its seeded draw sequence is unchanged.
    """

    def __init__(self, suite_mod, limit_s: float):
        from qreflect import checks, representations, scalars

        self.limit_s = limit_s
        self.report_cls = checks.CheckReport
        self.types = (scalars.Spectral, representations.ParamSet,
                      representations.Irrep)
        self.pole_error = scalars.PoleError
        self.latencies = []
        self.calls = 0
        self.pole_retries = 0
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)
        for name in [n for n in vars(suite_mod) if n.startswith("check_")]:
            setattr(suite_mod, name, self._guard(name, getattr(suite_mod, name)))

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CheckTimeout()

    def _guard(self, name, fn):
        perf = time.perf_counter

        def guarded(*args, **kwargs):
            t0 = perf()
            try:
                try:
                    self.armed = True
                    signal.setitimer(signal.ITIMER_REAL, self.limit_s)
                    out = fn(*args, **kwargs)
                finally:
                    self.armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except CheckTimeout:
                out = self._placeholder(oracle.UNDECIDED, name, args,
                                        f"no verdict within {self.limit_s:g} s")
            except self.pole_error:
                self.pole_retries += 1
                raise
            except Exception as exc:  # a crashing check is a failed check
                traceback.print_exc(file=sys.stderr)
                out = self._placeholder(oracle.ERROR, name, args,
                                        f"{type(exc).__name__}: {exc}")
            finally:
                self.latencies.append((name, perf() - t0))
                self.calls += 1
            return out
        return guarded

    def _placeholder(self, kind, name, args, detail):
        spectral, paramset, irrep = self.types
        params, points, extra = {}, iter("xyz"), []
        for a in args[1:]:
            if isinstance(a, paramset):
                params.update(a.describe())
            elif isinstance(a, irrep):
                params["m" if "n" in params else "n"] = a.dim
            elif isinstance(a, spectral):
                params[next(points)] = a.describe()
            else:
                extra.append(str(a))
        if extra:
            params["args"] = extra
        return self.report_cls(name=f"{kind}/{name}", params=params,
                               exact_zero=False, detail=detail)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(suite_mod, cfgs) -> dict:
    counts = {"attempted": 0, "failed": 0, "decided": 0, "undecided": 0,
              "errors": 0, "wrong_verdicts": 0, "unexpected": 0}
    known, by_suite = {}, {}
    wall = emit = 0.0
    digest = hashlib.sha256()
    for kwargs in cfgs:
        cfg = suite_mod.SuiteConfig(**kwargs)
        t0 = time.perf_counter()
        reports = suite_mod.run_suite(cfg)
        t1 = time.perf_counter()
        suite_mod.emit_report(reports, "json", cfg)
        t2 = time.perf_counter()
        wall += t2 - t0
        emit += t2 - t1
        by_suite[cfg.suite] = by_suite.get(cfg.suite, 0.0) + t2 - t0
        for r in reports:
            verdict, failure = oracle.judge(r, cfg.backend, cfg.tol)
            digest.update(oracle.digest_line(r, verdict))
            counts["attempted"] += 1
            if verdict not in (oracle.UNDECIDED, oracle.ERROR):
                counts["decided"] += 1
            if failure is None:
                continue
            kind, defect = failure
            counts["failed"] += 1
            counts[{"undecided": "undecided", "error": "errors",
                    "wrong": "wrong_verdicts"}[kind]] += 1
            if defect is None:
                counts["unexpected"] += 1
                print(f"unexpected failure: {kind} {r.name} {r.params} "
                      f"{r.detail or ''}", file=sys.stderr)
            else:
                known[defect] = known.get(defect, 0) + 1
    return {"wall_s": wall, "emit_s": emit, "wall_by_suite_s": by_suite,
            "digest": digest.hexdigest(), "known_defects": known, **counts}


def trace_summary(tracer, wall_s: float) -> dict:
    layer_self = tracer.layer_self()
    return {
        "stats": tracer.stats,
        "layer_self_s": layer_self,
        "layer_calls": tracer.layer_calls(),
        "probe_s": tracer.probe_s,
        "outside_s": wall_s - tracer.root_child_s(),
        "maxima": tracer.maxima,
        "spans": len(tracer.spans),
    }


def measure(args) -> dict:
    if workloads.WORKLOADS[args.workload]["backend"] == "numeric":
        import numpy  # noqa: F401  (imported lazily by the numeric paths)
    qreflect = warm_up(args.workload, args.seed)
    suite_mod = sys.modules["qreflect.suite"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    guard = CheckGuard(suite_mod, workloads.CHECK_LIMIT_S)
    passes = []
    start = time.perf_counter()
    while True:
        cfgs = workloads.configs(args.workload, args.seed, len(passes),
                                 smoke=args.smoke)
        passes.append(run_pass(suite_mod, cfgs))
        elapsed = time.perf_counter() - start
        if tracer or (guard.calls >= MIN_CALLS
                      and elapsed + passes[-1]["wall_s"] > args.seconds):
            break
    out = {
        "passes": passes,
        "latencies_ms": [t * 1000 for _, t in guard.latencies],
        "latency_by_check_ms": _by_check(guard.latencies),
        "check_calls": guard.calls,
        "pole_retries": guard.pole_retries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "coefficients": _type_name(type(qreflect.rational(1))),
        },
    }
    if tracer:
        out["trace"] = trace_summary(tracer, passes[0]["wall_s"])
        if args.spans_out:
            path = Path(args.spans_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(
                {"fields": ["id", "parent", "function", "start_s", "dur_s", "self_s"],
                 "spans": tracer.spans, "counters": tracer.stats}))
    return out


def _by_check(latencies) -> dict:
    """check function -> [calls, median ms, max ms]"""
    groups = {}
    for name, t in latencies:
        groups.setdefault(name, []).append(t * 1000)
    return {name: [len(v), statistics.median(v), max(v)]
            for name, v in sorted(groups.items())}


def _type_name(t) -> str:
    return f"{t.__module__}.{t.__qualname__}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)
    if args.mode == "setup":
        t0 = time.perf_counter()
        warm_up(args.workload, args.seed)
        result = {"setup_s": time.perf_counter() - t0}
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
