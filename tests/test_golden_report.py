"""Golden fixed-seed reports: the JSON report of a seeded config is pinned
byte for byte (timings removed), so a refactor that moves a seeded draw, a
verdict, a residual float or a detail string shows up here.

A change that alters a report on purpose updates the hash and says why.
The numeric hash also depends on the platform's floating point and LAPACK
(numpy.linalg.eig); the exact hash depends on nothing but the code.

The exact golden config is also run with q pinned to rational squares, a
second route to every exact verdict: at a pinned q every scalar is a
constant, so none of the polynomial multiply, division and gcd code runs.
"""

import hashlib
import json

import pytest

from qreflect.suite import SuiteConfig, emit_report, run_suite

GOLDEN = [
    # the two t < 0 onsager/int_W0 details show an entry of the residual
    # cleared by P (P C^-1 D P); every verdict is as before.  Both hashes
    # moved once when the appendix reports began to name a by the drawn
    # rational string ("-11/1", not a scalar's text), which also reorders
    # the appendix reports among themselves; nothing else changed
    (dict(seed=7, dims=(2, 3)),
     "a519ff07be876020059c55dc50caf302dbf2b754e710e5177d55b9de69883741"),
    # the numeric hash moved once more when sigma and iota became matrix
    # maps (index reversal, and D (.)^T D^-1) in place of generator-word
    # images: the symmetry/iota_L and iota_Lbar residuals change in the
    # last bits, and the zero-residual symmetry/sigma_* and ev_sigma_*
    # details name another zero entry; every verdict is as before
    (dict(seed=7, dims=(2, 3), backend="numeric", q="1.4+0.3i"),
     "778eb3759b8b3b75287edab14cdf7beac74277749ef6111fd996c31247ae65c8"),
]


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


@pytest.fixture(scope="module")
def symbolic_verdicts():
    return verdicts(SuiteConfig(**GOLDEN[0][0]))


@pytest.mark.parametrize("q", ["49/25", "9/4", "121/49"])
def test_pinned_q_agrees_with_symbolic_verdicts(q, symbolic_verdicts):
    pinned = verdicts(SuiteConfig(**GOLDEN[0][0], q=q))
    # a key that is missing here had its parameters redrawn after a pole
    # at this q, so it has nothing to compare against
    shared = symbolic_verdicts.keys() & pinned.keys()
    assert shared
    disagree = [k for k in shared if pinned[k] != symbolic_verdicts[k]]
    assert not disagree, disagree[:5]


@pytest.mark.parametrize("kwargs,digest", GOLDEN,
                         ids=[cfg.get("backend", "exact") for cfg, _ in GOLDEN])
def test_fixed_seed_report_is_unchanged(kwargs, digest):
    assert canonical_sha256(SuiteConfig(**kwargs)) == digest
