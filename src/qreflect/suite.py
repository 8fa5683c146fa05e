"""Suite runner: parameter drawing, check dispatch, report emission.

A SuiteConfig pins the backend, the verification suite, the representation
dimensions and (optionally) explicit parameter values; everything left free
is drawn from a seeded RNG, so a config (seed included) determines the
report content exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .checks import (  # the check_* names are called through _run
    _APPENDIX,
    YBE_KINDS,
    CheckReport,
    check_appendix,
    check_aux_lemmas,
    check_coideal_algebras,
    check_coideal_coproduct,
    check_intertwining,
    check_onsager_candidate,
    check_reflection,
    check_symmetries,
    check_ybe,
)
from .koperators import VARIANTS, RepeatedEigenvalueError
from .representations import make_irrep, make_params
from .scalars import (
    NonConvergenceError,
    PoleError,
    ScalarContext,
    Spectral,
    rational,
)

SPECTRAL_EXPONENTS = (0, 1, -1, 2, -2, 3)
GRADATIONS = (-1, 0, 1, 2)
# the five K-families; the onsager suite covers the k+ k- != 0 candidate
_TRIANGULAR = tuple(v for v, fam in VARIANTS.items() if fam.triangular)


class ConfigError(ValueError):
    """Invalid suite configuration (CLI exit code 2)."""


@dataclass
class SuiteConfig:
    suite: str = "all"
    dims: tuple = (2, 3)
    backend: str = "exact"
    q: str = "symbolic"
    x_exp: int | None = None
    y_exp: int | None = None
    s0: int | None = None
    s1: int | None = None
    eps_plus: str | None = None
    eps_minus: str | None = None
    k_plus: str | None = None
    k_minus: str | None = None
    p_tilde: str | None = None
    seed: int = 1
    tol: float = 1e-9
    draws: int = 3

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; pick from {SUITES}")
        if not self.dims:
            raise ConfigError("dims must list at least one representation dimension")
        if any(int(n) < 1 for n in self.dims):
            raise ConfigError("dims entries must be positive")
        if self.backend not in ("exact", "numeric"):
            raise ConfigError("backend must be 'exact' or 'numeric'")
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        try:
            tol_ok = math.isfinite(self.tol) and self.tol > 0
        except TypeError:
            tol_ok = False
        if not tol_ok:
            raise ConfigError(f"tol must be a finite number > 0 (got {self.tol!r})")
        for name in ("eps_plus", "eps_minus", "k_plus", "k_minus", "p_tilde"):
            text = getattr(self, name)
            if text is None or text == "":  # unpinned: drawn from the seed
                continue
            try:
                value = rational(str(text))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{name} must be a rational such as 3/7 (got {text!r})")
            if name.startswith("eps") and value == 0:
                raise ConfigError(f"{name} must be nonzero")
        for name in ("x_exp", "y_exp", "s0", "s1"):
            v = getattr(self, name)
            if v is not None and v != int(v):
                raise ConfigError(f"{name} must be an integer")

    def context(self) -> ScalarContext:
        """The ScalarContext of `backend` and `q`; the context's own ValueError
        (a numeric q not finite, or |q| <= 1) becomes a ConfigError."""
        if self.backend == "numeric":
            if self.q == "symbolic":
                raise ConfigError("numeric backend needs a complex q (e.g. 1.4+0.3i)")
            kw = {"q_value": _parse_complex(self.q)}
        elif self.q == "symbolic":
            kw = {}
        else:
            v = _rational_sqrt(self.q)
            if v is None:
                raise ConfigError(
                    f"exact backend with a pinned q needs a perfect-square rational "
                    f"(got {self.q!r}); q = v^2 must keep v = q^(1/2) rational")
            if v == 1:
                raise ConfigError("a pinned q must not be 1, where q - q^-1 vanishes")
            kw = {"v_value": v}
        try:
            return ScalarContext(**kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_complex(text: str) -> complex:
    t = str(text).strip().replace("i", "j").replace(" ", "")
    try:
        return complex(t)
    except ValueError:
        try:
            return complex(float(rational(text)))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse q value {text!r}")


def _rational_sqrt(text: str):
    """sqrt of 'p/r' when both parts are perfect squares, else None; a q
    that is not positive is a ConfigError."""
    try:
        q = rational(str(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse q value {text!r}")
    if q <= 0:
        raise ConfigError(f"a pinned q must be a positive rational (got {text!r})")
    p, r = int(q.numerator), int(q.denominator)
    sp, sr = math.isqrt(p), math.isqrt(r)
    if sp * sp != p or sr * sr != r:
        return None
    return rational(sp, sr)


# ---------------------------------------------------------------------------
# Parameter drawing
# ---------------------------------------------------------------------------

class Drawer:
    """Seeded source of rational boundary parameters and spectral points."""

    def __init__(self, config: SuiteConfig, rng):
        self.config = config
        self.rng = rng

    def rational_str(self, nonzero=True) -> str:
        num = self.rng.randint(1, 20)
        den = self.rng.randint(1, 20)
        sign = self.rng.choice(("", "-"))
        if not nonzero and self.rng.random() < 0.2:
            return "0"
        return f"{sign}{num}/{den}"

    def gradation(self, pin) -> int:
        return pin if pin is not None else self.rng.choice(GRADATIONS)

    def exponent(self, pin) -> int:
        return pin if pin is not None else self.rng.choice(SPECTRAL_EXPONENTS)

    def spectral(self, ctx, pin_exp) -> Spectral:
        if ctx.is_exact or pin_exp is not None:
            return Spectral.q_power(self.exponent(pin_exp))
        radius = 0.5 + 1.5 * self.rng.random()
        angle = 2 * math.pi * self.rng.random()
        return Spectral.of(cmath.rect(radius, angle))

    def points(self, ctx, *pins) -> list:
        """One spectral point per pin, drawn in order (`spectral`)."""
        return [self.spectral(ctx, pin) for pin in pins]

    def params(self, ctx, fam=None, need=False):
        """Boundary parameters: pins as given, the rest drawn in the order
        eps+, eps-, k+, k-, p~, s0, s1 (redrawn while eps+ = -eps-).  `fam`,
        a VARIANTS row, sets the k's its family zeroes to 0 (None zeroes
        neither); with `need`, a k it leaves free must not be pinned to 0."""
        c = self.config
        zeroed = (fam.k_plus_zero, fam.k_minus_zero) if fam else (False, False)
        # a drawn rational is never 0, so only a pin can zero a needed k
        for key, zero in zip(("k_plus", "k_minus"), zeroed):
            pin = getattr(c, key)
            if need and not zero and pin and rational(pin) == 0:
                raise ConfigError(f"{key} is pinned to 0; this check needs {key} != 0")
        if c.eps_plus and c.eps_minus and rational(c.eps_plus) + rational(c.eps_minus) == 0:
            raise ConfigError("eps_plus = -eps_minus is pinned: a telescoping pole")
        for _ in range(100):
            ep = c.eps_plus or self.rational_str()
            em = c.eps_minus or self.rational_str()
            kp = "0" if zeroed[0] else (c.k_plus or self.rational_str())
            km = "0" if zeroed[1] else (c.k_minus or self.rational_str())
            pt = c.p_tilde or self.rational_str(nonzero=False)
            s0 = self.gradation(c.s0)
            s1 = self.gradation(c.s1)
            # eps+ = -eps- collides with a telescoping factor at exponent 0
            if rational(ep) + rational(em) != 0:
                return make_params(ctx, ep, em, kp, km, s0, s1, pt)
        raise ConfigError("could not draw admissible parameters; "
                          "check the pinned values")


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def run_suite(config: SuiteConfig) -> list:
    """Execute the configured checks; returns the (sorted, timed) reports."""
    import random

    config.validate()
    ctx = config.context()
    rng = random.Random(config.seed)
    drawer = Drawer(config, rng)
    reps = {n: make_irrep(ctx, n) for n in config.dims}
    suites = _SUITE_RUNNERS if config.suite == "all" else (config.suite,)
    reports = []
    for name in suites:
        for check, *args in _SUITE_RUNNERS[name](ctx, config, drawer, reps):
            reports.extend(_run(ctx, drawer, check, args))
    # the reports of one check share their params dict: encode it once
    texts = {}

    def key(r):
        text = texts.get(id(r.params))
        if text is None:
            text = texts[id(r.params)] = json.dumps(r.params, sort_keys=True,
                                                    default=str)
        return r.name, text

    reports.sort(key=key)
    return reports


class _Draw(dict):
    """Argument slot that `_run` fills with `Drawer.params(ctx, **self)`."""


def _run(ctx, drawer, check, args) -> list:
    """Call the named check and return its reports.

    The check is looked up in this module's namespace at call time, so a
    wrapped `check_*` attribute is the one called (a wrapper may return one
    placeholder report instead of a list).  A `_Draw` slot is drawn before
    the call and redrawn when the check hits a telescoping pole or a
    repeated eigenvalue of a spectral argument.  On the numeric backend a
    float overflow (a non-finite residual included), a division by a float
    that underflowed to zero or a product that does not converge is a
    configuration error: q is too large, or too close to 1, for floats.
    """
    redraw = any(isinstance(a, _Draw) for a in args)
    for _ in range(20):
        call = [drawer.params(ctx, **a) if isinstance(a, _Draw) else a
                for a in args]
        try:
            out = globals()[check](*call)
        except (PoleError, RepeatedEigenvalueError):
            if redraw:
                continue
            raise
        except (OverflowError, ZeroDivisionError, NonConvergenceError) as exc:
            if ctx.is_exact:
                raise
            raise ConfigError(
                f"{check} breaks down in floating point at q = {ctx.q_value}: "
                f"{type(exc).__name__}: {exc}") from exc
        return [out] if isinstance(out, CheckReport) else out
    raise ConfigError("persistent pole or eigenvalue collisions; pinned "
                      "parameters sit on a vanishing telescoping factor or "
                      "give the spectral argument a repeated eigenvalue")


# Each suite yields (check name, *positional arguments), drawing its inputs
# lazily: `_run` finishes one call before the next one's inputs are drawn.
# `reps` maps each configured dimension to its irrep, built once per run.

def _per_draw(config, reps, inner=(None,)):
    """(irrep, item) for each entry of `config.dims` in order (a repeated
    dimension repeats), each item of `inner` and each draw, in that order:
    the one walk of every suite but the matrix-level reflection."""
    for n in config.dims:
        for item in inner:
            for _ in range(config.draws):
                yield reps[n], item


def _suite_ybe(ctx, config, drawer, reps):
    for rep, _ in _per_draw(config, reps):
        params = drawer.params(ctx)
        x, y, z = drawer.points(ctx, config.x_exp, config.y_exp, None)
        for kind in YBE_KINDS:
            yield "check_ybe", ctx, kind, rep, params, x, y, z


def _suite_reflection(ctx, config, drawer, reps):
    pins = config.x_exp, config.y_exp
    for _ in range(config.draws):
        yield ("check_reflection", ctx, None, None, _Draw(need=True),
               *drawer.points(ctx, *pins))
    for rep, variant in _per_draw(config, reps, _TRIANGULAR):
        yield ("check_reflection", ctx, variant, rep,
               _Draw(fam=VARIANTS[variant]), *drawer.points(ctx, *pins))


def _suite_intertwining(ctx, config, drawer, reps):
    # each family's relations, then the aux lemmas (None) of the k- = 0 one
    for rep, variant in _per_draw(config, reps, (*_TRIANGULAR, None)):
        x = drawer.spectral(ctx, config.x_exp)
        if variant is None:
            yield "check_aux_lemmas", ctx, rep, _Draw(fam=VARIANTS["upper"]), x
        else:
            yield ("check_intertwining", ctx, variant, rep,
                   _Draw(fam=VARIANTS[variant]), x)


def _suite_coideal(ctx, config, drawer, reps):
    for rep, _ in _per_draw(config, reps):
        params = drawer.params(ctx)
        x = drawer.spectral(ctx, config.x_exp)
        yield "check_coideal_algebras", ctx, rep, params, x
    for rep, m in _per_draw(config, reps, config.dims):
        params = drawer.params(ctx)
        yield ("check_coideal_coproduct", ctx, rep, reps[m], params,
               *drawer.points(ctx, config.x_exp, config.y_exp))


def _suite_appendix(ctx, config, drawer, reps):
    halves = (-2, -1, 0, 1, 2, 3)
    for rep, _ in _per_draw(config, reps):
        a = drawer.rational_str()
        b = Fraction(drawer.rng.choice(halves), 2)
        c = Fraction(drawer.rng.choice(halves), 2)
        for ident in _APPENDIX:
            yield "check_appendix", ctx, ident, rep, a, b, c


def _suite_symmetries(ctx, config, drawer, reps):
    for rep, _ in _per_draw(config, reps):
        params = drawer.params(ctx)
        x = drawer.spectral(ctx, config.x_exp)
        yield "check_symmetries", ctx, rep, params, x


def _suite_onsager(ctx, config, drawer, reps):
    # generic k+ k- != 0, then the triangular degenerations, which satisfy
    # both relations
    draws = [_Draw(fam=VARIANTS[v], need=True)
             for v in ("onsager_candidate", "upper", "lower")]
    for rep, _ in _per_draw(config, reps):
        x = drawer.spectral(ctx, config.x_exp)
        for draw in draws:
            yield "check_onsager_candidate", ctx, rep, draw, x


_SUITE_RUNNERS = {
    "ybe": _suite_ybe,
    "reflection": _suite_reflection,
    "intertwining": _suite_intertwining,
    "coideal": _suite_coideal,
    "appendix": _suite_appendix,
    "symmetries": _suite_symmetries,
    "onsager": _suite_onsager,
}
# `--suite all` runs every suite in this order
SUITES = ("all", *_SUITE_RUNNERS)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _status(r: CheckReport, tol: float) -> str:
    if r.is_finding:
        return "FINDING"
    return "ok" if r.passed(tol) else "FAIL"


def summarize(reports, tol: float) -> dict:
    statuses = [_status(r, tol) for r in reports]
    return {"passed": statuses.count("ok"), "failed": statuses.count("FAIL"),
            "findings": statuses.count("FINDING")}


def report_to_dict(r: CheckReport) -> dict:
    out = {"name": r.name, "params": r.params}
    if r.exact_zero is not None:
        out["exact_zero"] = r.exact_zero
    if r.residual is not None:
        out["residual"] = r.residual
    if r.detail:
        out["detail"] = r.detail
    if r.is_finding:
        out["finding"] = True
    out["elapsed_ms"] = r.elapsed_ms
    return out


class _Rendered:
    """A value's JSON text, rendered already: `_json_text` emits it as it is."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_text(value, indent: str = "\n") -> str:
    """The text json.dumps(value, indent=2, default=str) gives `value` when
    it sits on a line that starts with `indent` (a newline and the line's
    indentation).  Strings go through json's own ASCII escaping, floats
    through float.__repr__ with json's spelling of the non-finite ones, and
    the types are tested in the encoder's order."""
    if type(value) is _Rendered:
        return value.text
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        return "-Infinity" if value == -math.inf else float.__repr__(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "".join(("[", inner, sep.join([_json_text(v, inner) for v in value]),
                        indent, "]"))
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = ["{"]
        for k, v in value.items():
            parts += (sep if len(parts) > 1 else inner, encode_basestring_ascii(k),
                      ": ", _json_text(v, inner))
        parts += (indent, "}")
        return "".join(parts)
    return encode_basestring_ascii(str(value))


_EMIT_BATCH = 64  # report texts per joined piece of the checks list


def _checks_text(reports) -> str:
    """The text of the nonempty "checks" list of the JSON report.  Each
    report's dict is built and rendered in turn, the params dict that the
    reports of one check share is rendered once, and the report texts are
    joined a batch at a time: a list of all of them would take several
    times the text's size."""
    inner = "\n    "  # the line start of a report in the list
    sep = "," + inner
    params_texts = {}
    pieces, batch = ["[", inner], []
    for i, r in enumerate(reports, 1):
        doc = report_to_dict(r)
        text = params_texts.get(id(r.params))
        if text is None:
            text = params_texts[id(r.params)] = _Rendered(
                _json_text(r.params, inner + "  "))
        doc["params"] = text
        batch.append(_json_text(doc, inner))
        if len(batch) == _EMIT_BATCH or i == len(reports):
            pieces += (sep.join(batch), sep)
            batch = []
    pieces[-1] = "\n  ]"  # the separator after the last batch closes the list
    return "".join(pieces)


def emit_report(reports, fmt: str, config: SuiteConfig) -> str:
    """The report of a run of `config` as "json" or "text"; statuses are
    judged at `config.tol`.  The JSON text is json.dumps(doc, indent=2,
    default=str) of the document {suite, config, checks, summary}, rendered
    by `_json_text` (the checks by `_checks_text`)."""
    tol = config.tol
    summary = summarize(reports, tol)
    if fmt == "json":
        # the document is dropped before the newline is appended, so at
        # most two copies of the text are alive at once
        text = _json_text({
            "suite": config.suite,
            "config": {**asdict(config), "dims": list(config.dims)},
            "checks": _Rendered(_checks_text(reports)) if reports else [],
            "summary": summary,
        })
        return text + "\n"
    if fmt != "text":
        raise ConfigError(f"unknown report format {fmt!r}")
    lines = []
    width = max((len(r.name) for r in reports), default=20) + 2
    for r in reports:
        status = _status(r, tol)
        if r.exact_zero is not None:
            value = "exact zero" if r.exact_zero else "NONZERO"
        else:
            value = f"residual {r.residual:.3e}"
        line = f"{r.name:<{width}} {status:<8} {value}"
        if r.detail and (status != "ok"):
            line += f"  [{r.detail}]"
        lines.append(line)
    lines.append(f"passed {summary['passed']}  failed {summary['failed']}  "
                 f"findings {summary['findings']}")
    return "\n".join(lines) + "\n"
