"""Layer tracing from outside the program.

`Tracer.install` replaces the public functions and methods of each qreflect
module with timing wrappers, in every module namespace that holds them (a
name imported by value, such as `linalg.poly_gcd` or `suite.check_ybe`, is
patched where it is bound).  Every call keeps a frame on one stack, so a
call's self time is its duration minus that of the wrapped calls under it;
Fraction arithmetic is not wrapped and counts as self time of the scalar
call that does it.

Calls of the high-volume layers (scalars, linalg, representations: up to
10^5 calls per second) are aggregated into per-function counters only.
Calls of the other layers also leave a span: (id, parent id, function,
start, duration, self time).
"""

import functools
import sys
import time

LAYERS = ("scalars", "linalg", "representations", "loperators", "koperators",
          "checks", "suite")
COUNTER_ONLY = ("scalars", "linalg", "representations")
# Operators are the bulk of scalar and matrix work; other dunders
# (__eq__, __hash__, __repr__, ...) are bookkeeping and stay unwrapped.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"}
CONSTRUCTORS = {"scalars.RationalExpression"}


class Tracer:
    def __init__(self):
        self.stack = [[0.0, 0]]       # frames: [child seconds, span id]
        self.stats = {}               # "layer.qualname" -> [calls, total_s, self_s]
        self.spans = []
        self.next_span = 1
        self.origin = time.perf_counter()
        self.probe_s = 0.0            # time spent in size probes
        self.maxima = {"den_span": 0, "nnz": 0, "coeff_bits": 0}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        perf = time.perf_counter

        if layer in COUNTER_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - frame[0]
            return counted

        spans = self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = self.next_span
            self.next_span = sid + 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                spans.append((sid, parent, key, t0 - self.origin, dt,
                              dt - frame[0]))
        return spanned

    def install(self):
        """Wrap every public function and method of the traced layers."""
        modules = {name: sys.modules[f"qreflect.{name}"] for name in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if isinstance(obj, type):
                        self._wrap_class(layer, obj)
                    else:
                        replace[obj] = self._wrap(layer, name, obj)
        residual = replace[modules["linalg"].residual]

        def probed_residual(lhs, rhs):
            self.probe_residual_inputs(lhs, rhs)
            return residual(lhs, rhs)
        replace[modules["linalg"].residual] = probed_residual
        for mod in [m for n, m in sys.modules.items()
                    if n == "qreflect" or n.startswith("qreflect.")]:
            for name, obj in list(vars(mod).items()):
                if callable(obj) and not isinstance(obj, type) and obj in replace:
                    setattr(mod, name, replace[obj])
        return self

    def _wrap_class(self, layer, cls):
        if issubclass(cls, BaseException):
            return
        for name, raw in list(vars(cls).items()):
            public = not name.startswith("_")
            if not (public or name in OPERATORS
                    or (name == "__init__"
                        and f"{layer}.{cls.__name__}" in CONSTRUCTORS)):
                continue
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                setattr(cls, name, staticmethod(self._wrap(layer, fn.__qualname__, fn)))
            elif callable(raw) and not isinstance(raw, type):
                # `__radd__ = __add__` keeps the qualname of `__add__`, so
                # aliases share one counter
                setattr(cls, name, self._wrap(layer, raw.__qualname__, raw))

    # -- size probes (timed apart from the layers) --------------------------

    def probe_residual_inputs(self, *mats):
        t0 = time.perf_counter()
        m = self.maxima
        for mat in mats:
            m["nnz"] = max(m["nnz"], len(mat.entries))
            den = mat.den
            coeffs = getattr(den, "coeffs", None)
            if coeffs is None:        # numeric backend
                continue
            if coeffs:
                m["den_span"] = max(m["den_span"], max(coeffs) - min(coeffs))
            bits = m["coeff_bits"]
            for poly in (den, *mat.entries.values()):
                for c in poly.coeffs.values():
                    b = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if b > bits:
                        bits = b
            m["coeff_bits"] = bits
        dt = time.perf_counter() - t0
        self.probe_s += dt
        self.stack[-1][0] += dt

    # -- results --------------------------------------------------------------

    def root_child_s(self) -> float:
        return self.stack[0][0]

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, self_s) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out

    def layer_calls(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for key, (calls, _, _) in self.stats.items():
            out[key.split(".", 1)[0]] += calls
        return out
