"""Golden fixed-seed reports: the JSON report of a seeded config is pinned
byte for byte (timings removed), so a refactor that moves a seeded draw, a
verdict, a residual float or a detail string shows up here.

A change that alters a report on purpose updates the hash and says why.
The numeric hash also depends on the platform's IEEE double arithmetic; the
exact hash depends on nothing but the code.

The exact golden config, and one seeded config at each of dims 4, 5, 6 and
8, is also run with q pinned to rational squares, a second route to every
exact verdict: at a pinned q every scalar is a constant, so none of the
polynomial multiply, division and gcd code runs, nor the lcm of the
denominators that an exact linear combination takes.

The hash covers the parsed document, not its text.  The text layout
(indent, separators, key order) is pinned by its own test against one
`json.dumps` of the whole document, and a second test bounds the memory
that emitting the text takes.
"""

import functools
import hashlib
import json
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import pytest

from qreflect.checks import CheckReport
from qreflect.suite import (
    SuiteConfig,
    emit_report,
    report_to_dict,
    run_suite,
    summarize,
)

GOLDEN = [
    # the two t < 0 onsager/int_W0 details show an entry of the residual
    # cleared by P (P C^-1 D P); every verdict is as before.  Both hashes
    # moved once when the appendix reports began to name a by the drawn
    # rational string ("-11/1", not a scalar's text), which also reorders
    # the appendix reports among themselves; nothing else changed.  The
    # exact hash moved once more when the reflection/operator/* and
    # intertwining/* reports dropped their params' "form": "factored" (K is
    # now built in closed form); with that key removed the document is the
    # same, and every report keeps its place, since sort_keys puts "form" at
    # one spot in every key of one name
    (dict(seed=7, dims=(2, 3)),
     "a49557a7536c054c758b0c78cca356632cab4ddddb779123f94ec5c0c240384e"),
    # the numeric hash moved once more when triangular spectral arguments
    # (k+ = 0 or k- = 0) took Parlett's recurrence in place of substitution
    # eigenvectors, and aux/similarity_to_cartan took ev_x(T1) from its
    # affine expression: the k+- = 0 onsager/int_W0 and int_W1 and the
    # aux/similarity_to_cartan residuals and details change in the last
    # bits; every verdict is as before.  It moved once more when those
    # triangular arguments took one closed-form product per entry of f(M)
    # in place of Parlett's recurrence: only the k+ k- = 0 onsager/int_W0
    # and int_W1 residuals and details move (16 reports, all below 4e-15);
    # every verdict is as before.  It moved once more when every triangular
    # K took the closed-form entries in place of the factored q-exponential
    # conjugation, the numeric Pochhammer ratio became one product of factor
    # ratios, and the "form" param was dropped: the residuals and details of
    # 146 aux, intertwining, onsager and reflection/operator reports move;
    # every verdict is as before.  It moved once more when the candidate at
    # k+ k- != 0 took the sum of its spectral projectors at the closed-form
    # eigenvalues, each eigenvector from one twisted factorization, in place
    # of numpy.linalg.eig and inv: only the residuals and details of those
    # 12 onsager/int_W0 and int_W1 reports move, and no verdict or summary
    # count.  The hash is the same on CPython 3.10, 3.11, 3.12 and 3.13.
    # It moved once more when the appendix series took the q-exponential's
    # coefficients c_j in place of 1 / (step; step)_j and the similarity
    # lemma was multiplied through by exp (exp T1 = e- q^-H exp), with
    # `_long_bracket` taking its ratio from `_hk_ratio`: the residuals and
    # details of 48 appendix, 4 aux/similarity_to_cartan and 3
    # aux/long_bracket reports move; every summary count is as before, and
    # the hash is again the same on those four CPython versions
    (dict(seed=7, dims=(2, 3), backend="numeric", q="1.4+0.3i"),
     "2338b2f5859aac61860b4d00c1ba6859b2e1be3b3b7c782cf6565012fa4c83af"),
    # a repeated dimension: every suite walks the dims in order, a repeated
    # one again, and the coideal coproduct pairs each with each
    (dict(seed=5, dims=(2, 3, 2), draws=2),
     "b4c315dabc28c567d3c12849f8d425a2659867d25709fb6281537d912e3e5fba"),
    # the rest of the byte-identity gate a refactor is held to: larger
    # single dims, the exact backend at a pinned q, and the numeric
    # backend over dims 2-6
    (dict(seed=3, dims=(4,)),
     "34c202faaf3f8d7673a099ed4240230102dbbc9830ca7c3356964964345e1ac1"),
    (dict(seed=7, dims=(6,)),
     "f3bedc2ddf8b91a3aa337ada54fc8fcc4c4ac05656fd798c40093cc0a5f4b307"),
    (dict(seed=11, dims=(2, 3), q="49/25"),
     "fd6389d36f38599534898ff6c6cbf463a4a87f4c685bc719d2466dd911f00da2"),
    (dict(seed=1, dims=(2, 3, 4, 5, 6), backend="numeric", q="1.4+0.3i"),
     "1a0fe75d597d5bb3ea86b32f336533fb6cccd507bc7f2ab5d4681716b07c0ac9"),
]


def golden_id(cfg: dict) -> str:
    """The backend alone for the seed-7 dims (2, 3) configs, else the
    backend with the dims, draws and seed, and a q pinned on the exact
    backend."""
    backend = cfg.get("backend", "exact")
    if cfg["seed"] == 7 and cfg["dims"] == (2, 3):
        return backend
    dims = ",".join(map(str, cfg["dims"]))
    out = f"{backend}-dims{dims}-draws{cfg.get('draws', 3)}-seed{cfg['seed']}"
    return f"{out}-{cfg['q']}" if backend == "exact" and "q" in cfg else out


def canonical_sha256(config: SuiteConfig) -> str:
    doc = json.loads(emit_report(run_suite(config), "json", config))
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def verdicts(config: SuiteConfig) -> dict:
    """(name, params) -> the (exact_zero, is_finding) of its reports."""
    out = {}
    for r in run_suite(config):
        key = (r.name, json.dumps(r.params, sort_keys=True, default=str))
        out.setdefault(key, []).append((r.exact_zero, r.is_finding))
    return out


# the golden config's cases keep the bare q as their id
PINNED_CONFIGS = [GOLDEN[0][0], dict(seed=3, dims=(4,)), dict(seed=5, dims=(5,)),
                  dict(seed=7, dims=(6,)), dict(seed=7, dims=(8,))]
PINNED = [pytest.param(cfg, q, id=q if cfg is GOLDEN[0][0]
                       else f"dims{cfg['dims'][0]}-seed{cfg['seed']}-{q}")
          for cfg in PINNED_CONFIGS for q in ("49/25", "9/4", "121/49")]


@functools.cache
def symbolic_verdicts(seed: int, dims: tuple) -> dict:
    return verdicts(SuiteConfig(seed=seed, dims=dims))


@pytest.mark.parametrize("kwargs,q", PINNED)
def test_pinned_q_agrees_with_symbolic_verdicts(kwargs, q):
    symbolic = symbolic_verdicts(**kwargs)
    pinned = verdicts(SuiteConfig(**kwargs, q=q))
    # a key that is missing here had its parameters redrawn after a pole
    # at this q, so it has nothing to compare against
    shared = symbolic.keys() & pinned.keys()
    assert shared
    disagree = [k for k in shared if pinned[k] != symbolic[k]]
    assert not disagree, disagree[:5]


@pytest.mark.parametrize("kwargs,digest", GOLDEN,
                         ids=[golden_id(cfg) for cfg, _ in GOLDEN])
def test_fixed_seed_report_is_unchanged(kwargs, digest):
    assert canonical_sha256(SuiteConfig(**kwargs)) == digest


def one_shot_json(reports: list, config: SuiteConfig) -> str:
    """The reference layout: one json.dumps of the whole report document."""
    doc = {
        "suite": config.suite,
        "config": {**asdict(config), "dims": list(config.dims)},
        "checks": [report_to_dict(r) for r in reports],
        "summary": summarize(reports, config.tol),
    }
    return json.dumps(doc, indent=2, default=str) + "\n"


def crafted_reports() -> list:
    """Reports whose values a run seldom or never emits: non-ASCII text,
    nested containers, a Fraction (encoded through default=str), exponent
    and non-finite floats; two of them share one params dict, as the
    reports of one check do."""
    shared = {
        "name \u00e9\"q\"": "x \u2192 y \u2713\n\ttab",
        "nested": {"list": [1, [2.5, []], {}, None], "pair": (3, "a"),
                   "flags": [True, False], "empty": {}},
        "a": Fraction(-3, 7), "big": 2.5e+20, "tiny": 5e-324, "neg": -1.0e-7,
        "inf": float("inf"), "-inf": float("-inf"), "nan": float("nan"),
        "n": -12, "raw": "\u00fc\U0001d11e",
    }
    return [
        CheckReport(name="crafted/\u00fc", params=shared, residual=1.5e-300,
                    detail="worst \u2260 0", is_finding=True, elapsed_ms=3),
        CheckReport(name="crafted/second", params=shared, exact_zero=False,
                    detail="d"),
        CheckReport(name="crafted/third", params={}, residual=0.0),
    ]


@pytest.mark.parametrize("kwargs", [GOLDEN[0][0], GOLDEN[1][0], None, "crafted"],
                         ids=["exact", "numeric", "empty", "crafted"])
def test_json_report_layout_is_one_shot_dumps(kwargs):
    if kwargs is None:
        config, reports = SuiteConfig(suite="ybe", dims=(2,)), []
    elif kwargs == "crafted":
        config, reports = SuiteConfig(suite="ybe", dims=(2,)), crafted_reports()
    else:
        config = SuiteConfig(**kwargs)
        reports = run_suite(config)
    assert emit_report(reports, "json", config) == one_shot_json(reports, config)


# Peak traced memory of emitting the exact golden report (501 reports, 165 KB
# of text), over the length of the text.  Encoded a bounded batch of chunks
# at a time it measured 2.6x on CPython 3.11: the joined pieces and the final
# text take 2x, the report dicts the rest.  One json.dumps of the document
# lists every chunk of the pure-Python encoder (indent set) before joining
# them and measured 8.1x.  The bound leaves room for the object sizes of
# other CPython versions and stays well below the one-shot figure.
EMIT_PEAK_PER_CHAR = 4.0


def test_json_report_emission_memory_is_bounded():
    config = SuiteConfig(**GOLDEN[0][0])
    reports = run_suite(config)
    tracemalloc.start()
    try:
        text = emit_report(reports, "json", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EMIT_PEAK_PER_CHAR * len(text), peak / len(text)
