"""Mutation test: each planted sign or exponent error must be caught.

Every mutant copies the package under tmp_path, changes one line and runs
`verify --suite all --dims 2,3 --seed 7` on the copy.  A mutant that exits 0
means some identity no longer checks what it claims to: fix the check that
should have caught it, never this list.
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
        "base = 2 if inverse else -2",
        "base = 2 if inverse else 2"),
    "hadamard-commutator-power": (
        "checks.py",
        "ctx.q(-2 * (k - 1))",
        "ctx.q(-2 * k)"),
    "onsager-w0-f-coefficient": (
        "representations.py",
        "(params.k_minus, (f_atom(1),)),",
        "(params.k_minus * q1, (f_atom(1),)),"),
}


def run_copy(tmp_path, mutant=None):
    """Run the command on a copy of the package, with `mutant` applied."""
    shutil.copytree(PACKAGE, tmp_path / "qreflect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, old, new = MUTANTS[mutant]
        path = tmp_path / "qreflect" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{mutant}: the original text is not unique"
        path.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-m", "qreflect.cli", *COMMAND], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True,
        text=True, timeout=300)


def test_unmutated_copy_passes(tmp_path):
    done = run_copy(tmp_path)
    assert done.returncode == 0, done.stderr
    assert "failed 0" in done.stdout


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, mutant):
    done = run_copy(tmp_path, mutant)
    assert done.returncode == 1, done.stderr
    assert " FAIL " in done.stdout
