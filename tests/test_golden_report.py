"""Golden fixed-seed reports: the JSON report of a seeded config is pinned
byte for byte (timings removed), so a refactor that moves a seeded draw, a
verdict, a residual float or a detail string shows up here.

A change that alters a report on purpose updates the hash and says why.
The numeric hash also depends on the platform's floating point and LAPACK
(numpy.linalg.eig); the exact hash depends on nothing but the code.
"""

import hashlib
import json

import pytest

from qreflect.suite import SuiteConfig, emit_report, run_suite

GOLDEN = [
    # the two t < 0 onsager/int_W0 details show an entry of the residual
    # cleared by P (P C^-1 D P); every verdict is as before
    (dict(seed=7, dims=(2, 3)),
     "138b0aac1eea1dcb9e94c757ff654c5ea040e34cda9cb1a51792f8152b969774"),
    (dict(seed=7, dims=(2, 3), backend="numeric", q="1.4+0.3i"),
     "23281b402a7abef3b370eecf6df7d2d3feb7eeecdfd2a91a14ac6d352e6029c3"),
]


def canonical_sha256(config: SuiteConfig) -> str:
    doc = json.loads(emit_report(run_suite(config), "json", config))
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kwargs,digest", GOLDEN,
                         ids=[cfg.get("backend", "exact") for cfg, _ in GOLDEN])
def test_fixed_seed_report_is_unchanged(kwargs, digest):
    assert canonical_sha256(SuiteConfig(**kwargs)) == digest
