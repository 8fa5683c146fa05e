"""Mutation test: each planted sign or exponent error must be caught.

Every mutant copies the package under tmp_path, changes one line and runs
`verify --suite all --dims 2,3 --seed 7` on the copy.  A mutant that exits 0
means some identity no longer checks what it claims to: fix the check that
should have caught it, never this list.

A core mutant weakens the certifier itself, so that it calls nonzero
residuals zero.  Every check then passes, and only a finding, a residual
expected to be nonzero, can show it: the run must report more of its
findings "unexpectedly zero" than the unmutated copy does, which at this
seed already reports two.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qreflect

PACKAGE = Path(qreflect.__file__).parent
COMMAND = ["--suite", "all", "--dims", "2,3", "--seed", "7"]

# (module, original text, mutated text); each original occurs exactly once
MUTANTS = {
    "frame-alt-prefactor-sign": (
        "koperators.py",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, p.s1"),
    "frame-base-prefactor-sign": (
        "koperators.py",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, -p.s0"),
    "q-exp-base": (
        "koperators.py",
        "fact_plus * q_integer(ctx, k, -2)",
        "fact_plus * q_integer(ctx, k, 2)"),
    "inverse-sign": (
        "koperators.py",
        "-(one / fact_minus) if k % 2 else one / fact_minus",
        "one / fact_minus"),
    "hadamard-commutator-power": (
        "checks.py",
        "ctx.q(-2 * (k - 1))",
        "ctx.q(-2 * k)"),
    "onsager-w0-f-coefficient": (
        "representations.py",
        "(params.k_minus, (f_atom(1),)),",
        "(params.k_minus * q1, (f_atom(1),)),"),
    "variant-lower-row": (
        "koperators.py",
        '"lower": Variant(k_plus_zero=True, k_minus_zero=False, lower=True)',
        '"lower": Variant(k_plus_zero=True, k_minus_zero=False, lower=False)'),
    "frame-base-eps-swap": (
        "koperators.py",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0",
        "return p.eps_plus, p.eps_minus, p.s0, -1, plus, minus, p.s0"),
    "frame-alt-gradation": (
        "koperators.py",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1",
        "return p.eps_plus, p.eps_minus, p.s0, 1, minus, plus, -p.s1"),
    "core-telescoping-exponent": (
        "koperators.py",
        "ctx.q(2 * (t - k + 1))",
        "ctx.q(2 * (t - k))"),
    "core-pochhammer-shift": (
        "koperators.py",
        "x, s, -k)",
        "x, s, k)"),
    "triangular-t0-e-coefficient": (
        "representations.py",
        "((k * q1, (e_atom(1), hq_atom(1, 1)))",
        "((k, (e_atom(1), hq_atom(1, 1)))"),
    "triangular-p1t-prefactor-sign": (
        "representations.py",
        "pre = -(q2 - ctx.q(-2))",
        "pre = q2 - ctx.q(-2)"),
    "variant-upper-alt-row": (
        "koperators.py",
        '"upper_alt": Variant(k_plus_zero=True, k_minus_zero=False, alt=True)',
        '"upper_alt": Variant(k_plus_zero=True, k_minus_zero=False, alt=False)'),
    "variant-lower-alt-row": (
        "koperators.py",
        "k_minus_zero=True, alt=True,",
        "k_minus_zero=True, alt=False,"),
    "frame-base-cartan-sign": (
        "koperators.py",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0",
        "return p.eps_minus, p.eps_plus, p.s0, 1, plus, minus, p.s0"),
    "frame-base-terms-swap": (
        "koperators.py",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0",
        "return p.eps_minus, p.eps_plus, p.s0, -1, minus, plus, p.s0"),
    "frame-base-gradation": (
        "koperators.py",
        "return p.eps_minus, p.eps_plus, p.s0, -1, plus, minus, p.s0",
        "return p.eps_minus, p.eps_plus, p.s1, -1, plus, minus, p.s0"),
    "frame-alt-cartan-sign": (
        "koperators.py",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1",
        "return p.eps_plus, p.eps_minus, p.s1, -1, minus, plus, -p.s1"),
    "frame-alt-terms-swap": (
        "koperators.py",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1",
        "return p.eps_plus, p.eps_minus, p.s1, 1, plus, minus, -p.s1"),
    "frame-alt-eps-swap": (
        "koperators.py",
        "return p.eps_plus, p.eps_minus, p.s1, 1, minus, plus, -p.s1",
        "return p.eps_minus, p.eps_plus, p.s1, 1, minus, plus, -p.s1"),
    "onsager-w1-e-coefficient": (
        "representations.py",
        "(params.k_minus * q1, (e_atom(0), hq_atom(0, 1))),",
        "(params.k_minus, (e_atom(0), hq_atom(0, 1))),"),
    "onsager-w1-f-coefficient": (
        "representations.py",
        "(params.k_plus, (f_atom(0),)),",
        "(params.k_plus * q1, (f_atom(0),)),"),
    "onsager-w0-cartan-index": (
        "representations.py",
        "(params.eps_plus, (hq_atom(1, 1),)))",
        "(params.eps_plus, (hq_atom(0, 1),)))"),
    "triangular-t1-f-index": (
        "representations.py",
        "t1 = ((k, (f_atom(0),))",
        "t1 = ((k, (f_atom(1),))"),
    "triangular-p1t-f-coefficient": (
        "representations.py",
        "pre * eps_minus * q1",
        "pre * eps_minus"),
    "triangular-p1t-bracket-power": (
        "representations.py",
        "k * ctx.q(-1)",
        "k * ctx.q(1)"),
    "q-exp-inverse-base": (
        "koperators.py",
        "fact_minus * q_integer(ctx, k, 2)",
        "fact_minus * q_integer(ctx, k, -2)"),
    "core-divided-difference-base": (
        "koperators.py",
        "/ (1 - ctx.q(-2 * k)))",
        "/ (1 - ctx.q(2 * k)))"),
    "core-beta-sign": (
        "koperators.py",
        "beta = -(ctx.q(-1) * ctx.x_power(x, -s) / eps)",
        "beta = ctx.q(-1) * ctx.x_power(x, -s) / eps"),
    "core-end-node": (
        "koperators.py",
        "nodes[i + k] if h < 0 else nodes[i]",
        "nodes[i] if h < 0 else nodes[i + k]"),
    "l-diagonal-power": (
        "loperators.py",
        "mqx = -(ctx.q(-1) * xs)",
        "mqx = -(ctx.q(1) * xs)"),
    "lbar-f-gradation": (
        "loperators.py",
        "x01 = ctx.x_power(x, params.s0 if not bar else -params.s1)",
        "x01 = ctx.x_power(x, params.s0 if not bar else -params.s0)"),
    "r-corner-power": (
        "loperators.py",
        "corner = ctx.q(1) - ctx.q(-1) * xs",
        "corner = ctx.q(-1) - ctx.q(-1) * xs"),
    "r-mid-sign": (
        "loperators.py",
        "mid = one - xs",
        "mid = one + xs"),
    "triangular-t0-cartan-power": (
        "representations.py",
        "(eps_plus, (hq_atom(1, 1),)))",
        "(eps_plus, (hq_atom(1, -1),)))"),
    "triangular-t1-cartan-power": (
        "representations.py",
        "(eps_minus, (hq_atom(0, 1),)))",
        "(eps_minus, (hq_atom(0, -1),)))"),
    "triangular-p1t-e-index": (
        "representations.py",
        "((pre * eps_plus, (e_atom(0),)),)",
        "((pre * eps_plus, (e_atom(1),)),)"),
    "onsager-w0-e-coefficient": (
        "representations.py",
        "w0 = ((params.k_plus * q1, (e_atom(1), hq_atom(1, 1))),",
        "w0 = ((params.k_plus, (e_atom(1), hq_atom(1, 1))),"),
    "onsager-w1-cartan-power": (
        "representations.py",
        "(params.eps_minus, (hq_atom(0, 1),)))",
        "(params.eps_minus, (hq_atom(0, -1),)))"),
    "variant-upper-row": (
        "koperators.py",
        '"upper": Variant(k_plus_zero=False, k_minus_zero=True)',
        '"upper": Variant(k_plus_zero=False, k_minus_zero=True, lower=True)'),
    # every exact sum scaled as if its terms shared one denominator
    "combination-common-denominator": (
        "linalg.py",
        "_ONE if d is common or d == common",
        "_ONE if True"),
}

# (module, original text, mutated text, the finding that must turn zero)
CORE_MUTANTS = {
    # equal denominators alone taken as equal sides
    "residual-equal-sides": (
        "linalg.py",
        "lhs.den == rhs.den and lhs.entries == rhs.entries",
        "lhs.den == rhs.den",
        "onsager/int_W0"),
    # every exact matrix taken as zero
    "exact-is-zero": (
        "linalg.py",
        "return not self.entries",
        "return True",
        "onsager/int_W0"),
}


def run_copy(tmp_path, mutant=None):
    """Run the command on a copy of the package, with `mutant` applied."""
    shutil.copytree(PACKAGE, tmp_path / "qreflect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, old, new = (MUTANTS.get(mutant) or CORE_MUTANTS[mutant])[:3]
        path = tmp_path / "qreflect" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{mutant}: the original text is not unique"
        path.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-m", "qreflect.cli", *COMMAND], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True,
        text=True, timeout=300)


@pytest.fixture(scope="module")
def unmutated(tmp_path_factory):
    """The command's run on an unmutated copy, made once for this module."""
    return run_copy(tmp_path_factory.mktemp("unmutated"))


def test_unmutated_copy_passes(unmutated):
    assert unmutated.returncode == 0, unmutated.stderr
    assert "failed 0" in unmutated.stdout


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, mutant):
    done = run_copy(tmp_path, mutant)
    assert done.returncode == 1, done.stderr
    assert " FAIL " in done.stdout


def unexpected_zeros(stdout: str, finding: str) -> int:
    """How many report lines of `finding` read "unexpectedly zero"."""
    return sum(line.split()[:1] == [finding] and "unexpectedly zero" in line
               for line in stdout.splitlines())


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS))
def test_core_mutant_turns_a_finding_zero(tmp_path, unmutated, mutant):
    finding = CORE_MUTANTS[mutant][3]
    done = run_copy(tmp_path, mutant)
    assert done.returncode in (0, 1), done.stderr
    assert (unexpected_zeros(done.stdout, finding)
            > unexpected_zeros(unmutated.stdout, finding)), done.stdout[-2000:]
