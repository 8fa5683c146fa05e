"""Suite runner and command-line driver: config handling, determinism,
report round-trips, exit codes."""

import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from qreflect import checks, cli
from qreflect.checks import CheckReport
from qreflect.cli import config_from_args, build_arg_parser, main, parse_config_file
from qreflect.scalars import ScalarContext
from qreflect.suite import (
    ConfigError,
    SuiteConfig,
    _parse_complex,
    emit_report,
    run_suite,
    summarize,
)


def small_config(**kw):
    base = dict(suite="ybe", dims=(2,), draws=1, seed=9)
    base.update(kw)
    return SuiteConfig(**base)


def test_run_suite_ybe_exact_passes():
    reports = run_suite(small_config())
    assert reports
    assert all(r.exact_zero for r in reports)
    assert summarize(reports, 1e-9) == {"passed": len(reports), "failed": 0,
                                        "findings": 0}


def test_run_suite_deterministic_content():
    """Same config and seed give identical reports up to wall-clock timings."""
    a = run_suite(small_config(suite="reflection"))
    b = run_suite(small_config(suite="reflection"))
    for r in a + b:
        r.elapsed_ms = 0
    da = emit_report(a, "json", small_config(suite="reflection"))
    db = emit_report(b, "json", small_config(suite="reflection"))
    assert da == db


def test_each_report_of_a_call_is_timed_on_its_own(monkeypatch):
    """A fake clock advances 1 ms per read, and each residual reads it once
    per matrix row, so a larger identity takes longer.  Every report of one
    check call used to carry the call's total time."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) / 1000)
    residual = checks.residual

    def sized_residual(lhs, rhs):
        for _ in range(lhs.size):
            time.perf_counter()
        return residual(lhs, rhs)

    monkeypatch.setattr(checks, "residual", sized_residual)
    reports = run_suite(small_config(suite="symmetries"))
    elapsed = {r.name: r.elapsed_ms for r in reports}
    assert len(reports) == len(elapsed) == 22  # one check_symmetries call
    assert len(set(elapsed.values())) > 1
    # L on V_2 (x) C^2 is 4x4, an evaluated generator 2x2
    assert elapsed["symmetry/sigma_L"] > elapsed["symmetry/ev_sigma_e0"]


def test_json_report_round_trip():
    config = small_config(suite="onsager", backend="numeric", q="1.4")
    reports = run_suite(config)
    doc = json.loads(emit_report(reports, "json", config))
    assert doc["suite"] == "onsager"
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["findings"] >= 1
    by_name = {}
    for entry in doc["checks"]:
        by_name.setdefault(entry["name"], []).append(entry)
    for r in reports:
        entries = by_name[r.name]
        if r.residual is not None:
            assert any(e.get("residual") == r.residual for e in entries)
        else:
            assert any(e.get("exact_zero") == r.exact_zero for e in entries)


def test_emit_text_and_failure_counting():
    good = CheckReport(name="demo/pass", params={}, exact_zero=True)
    bad = CheckReport(name="demo/fail", params={}, residual=0.5,
                      detail="worst entry at (0, 1)")
    finding = CheckReport(name="demo/find", params={}, residual=0.2,
                          is_finding=True)
    summary = summarize([good, bad, finding], tol=1e-9)
    assert summary == {"passed": 1, "failed": 1, "findings": 1}
    text = emit_report([good, bad, finding], "text", small_config())
    assert "FAIL" in text and "FINDING" in text
    assert "passed 1  failed 1  findings 1" in text


def test_empty_checks_summary():
    assert summarize([], 1e-9) == {"passed": 0, "failed": 0, "findings": 0}
    doc = json.loads(emit_report([], "json", small_config()))
    assert doc["summary"] == {"passed": 0, "failed": 0, "findings": 0}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(suite="nope").validate()
    with pytest.raises(ConfigError):
        small_config(dims=()).validate()
    with pytest.raises(ConfigError):
        small_config(eps_plus="0").validate()
    with pytest.raises(ConfigError):
        small_config(eps_minus=0).validate()
    with pytest.raises(ConfigError):
        small_config(backend="numeric", q="symbolic").context()
    with pytest.raises(ConfigError):
        small_config(q="2/3").context()
    with pytest.raises(ConfigError):
        small_config(backend="numeric", q="0.5").context()


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "ybe", "--dims", "2", "--draws", "1",
                 "--seed", "4", "--report", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    assert main(["--suite", "reflection", "--dims", "2", "--eps-plus", "0"]) == 2
    assert main(["--suite", "ybe", "--dims", ""]) == 2
    assert main(["--suite", "ybe", "--dims", "2", "--q", "2/3"]) == 2
    # flag values are parsed and validated with the config, not by argparse
    assert main(["--suite", "ybe", "--dims", "2", "--draws", "x"]) == 2
    assert main(["--suite", "nope", "--dims", "2"]) == 2


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_cli_rejects_tolerance_that_is_not_finite_positive(tol, capsys):
    # before validation these ran and failed every numeric check (exit 1)
    code = main(["--suite", "ybe", "--dims", "2", "--backend", "numeric",
                 "--q", "1.4+0.3i", "--tol", tol])
    assert code == 2
    assert "tol" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="tol"):
        small_config(tol=float(tol)).validate()


@pytest.mark.parametrize("q", ["nan", "nan+1i", "1+nani", "1e309",
                               "1.5e308+1.5e308i"])
def test_cli_rejects_numeric_q_that_is_not_finite(q, capsys):
    # before this check nan ran and reported residual nan on every check
    # (exit 1); 1e309 and an |q| past the float range ended in an
    # OverflowError traceback
    code = main(["--suite", "ybe", "--dims", "2", "--draws", "1",
                 "--backend", "numeric", "--q", q])
    assert code == 2
    assert "finite q" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="finite q"):
        small_config(backend="numeric", q=q).context()
    with pytest.raises(ValueError, match="finite q"):
        ScalarContext(q_value=_parse_complex(q))


@pytest.mark.parametrize("q", ["1", "4/4"])
def test_cli_rejects_pinned_q_equal_to_one(q, capsys):
    # before this check q = 1 divided by q - q^-1 = 0 (a ZeroDivisionError
    # traceback) in reflection, intertwining and appendix
    code = main(["--suite", "reflection", "--dims", "2", "--draws", "1",
                 "--q", q])
    assert code == 2
    assert "q must not be 1" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="q must not be 1"):
        small_config(q=q).context()
    small_config(q="9/4").context()


@pytest.mark.parametrize("q", ["0", "-4"])
def test_cli_rejects_pinned_q_that_is_not_positive(q, capsys):
    # 0 = 0^2 and -4 used to be told they need a perfect-square rational
    code = main(["--suite", "ybe", "--dims", "2", "--q", q])
    assert code == 2
    err = capsys.readouterr().err
    assert "a pinned q must be a positive rational" in err
    assert "perfect-square" not in err
    with pytest.raises(ConfigError, match="positive rational"):
        small_config(q=q).context()


@pytest.mark.parametrize("q,suite,check,error", [
    ("1e308+1e308i", "appendix", "check_appendix", "residual nan"),
    ("1e308+1e308i", "ybe", "check_ybe", "residual nan"),
    ("1e308+1e308i", "coideal", "check_coideal_algebras", "residual nan"),
    ("1.0001", "reflection", "check_reflection", "NonConvergenceError"),
    ("1e308+1e308i", "symmetries", "check_symmetries", "ZeroDivisionError"),
])
def test_cli_numeric_float_breakdown_is_a_config_error(q, suite, check, error,
                                                       capsys):
    # q^2 overflows at 1e308: appendix used to end in an OverflowError
    # traceback, ybe and coideal in a FAIL of every check with residual nan
    # (exit 1); the infinite q-Pochhammer products need too many factors
    # near q = 1.  On V_3 an entry of the iota conjugator underflows to 0,
    # and symmetries ended in a ZeroDivisionError traceback
    code = main(["--suite", suite, "--dims", "2,3", "--backend", "numeric",
                 f"--q={q}"])
    assert code == 2
    err = capsys.readouterr().err
    assert check in err and error in err and "at q = " in err


@pytest.mark.parametrize("key,text", [
    ("eps_plus", "abc"), ("eps_minus", "1/0"), ("k_plus", "1/x"),
    ("k_minus", "1/0"), ("p_tilde", "x"),
])
def test_cli_rejects_malformed_pinned_rationals(key, text, capsys):
    # before validation these ended in a ValueError or ZeroDivisionError
    # traceback, or (p_tilde) in a message that did not name the key
    flag = "--" + key.replace("_", "-")
    assert main(["--suite", "ybe", "--dims", "2", flag, text]) == 2
    assert key in capsys.readouterr().err
    with pytest.raises(ConfigError, match=key):
        small_config(**{key: text}).validate()
    small_config(**{key: "-3/7"}).validate()


def test_cli_onsager_findings_do_not_fail(tmp_path, capsys):
    code = main(["--suite", "onsager", "--dims", "2", "--draws", "1",
                 "--backend", "numeric", "--q", "1.4", "--seed", "2",
                 "--report", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "FINDING" in captured.out
    assert "failed 0" in captured.out


@pytest.mark.parametrize("q,k_minus", [("2", "-9"), ("3", "-256/9")])
def test_cli_pinned_repeated_eigenvalue_is_a_config_error(q, k_minus, capsys):
    # eps- = 4, k+ = 1 and these k- give A B = 4 = eps-^2 / 4, so A = B and
    # ev_x(W1) on V_2 has a double eigenvalue, which the closed-form
    # spectrum finds before any eigenvector is taken; a test of computed
    # eigenvalues raised an uncaught RepeatedEigenvalueError at q = 2 and
    # missed the collision at q = 3, where onsager/int_W1 failed at 3e-9
    code = main(["--suite", "onsager", "--dims", "2", "--backend", "numeric",
                 f"--q={q}", "--eps-minus", "4", "--k-plus", "1",
                 f"--k-minus={k_minus}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "telescoping factor" in err and "repeated eigenvalue" in err


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_onsager_suite_runs_without_numpy(backend, tmp_path):
    """With numpy unimportable (sys.modules["numpy"] = None) `verify --suite
    onsager` runs to the end on both backends, the numeric one through the
    candidate at k+ k- != 0, so the package needs no numpy."""
    out = tmp_path / "report.json"
    argv = ["--suite", "onsager", "--dims", "2,3", "--seed", "7",
            "--backend", backend, "--report", "json", "--out", str(out)]
    if backend == "numeric":
        argv += ["--q", "1.4+0.3i"]
    code = ('import sys; sys.modules["numpy"] = None; '
            'from qreflect.cli import main; sys.exit(main(sys.argv[1:]))')
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(out.read_text())["checks"]
    assert any(c["params"]["k_plus"] != "0" and c["params"]["k_minus"] != "0"
               for c in checks if c["name"] == "onsager/int_W1")


@pytest.mark.parametrize("args,key", [
    (["--suite", "onsager", "--k-minus", "0"], "k_minus"),
    (["--suite", "reflection", "--k-plus", "0"], "k_plus"),
    (["--suite", "reflection", "--eps-plus", "1/2", "--eps-minus=-1/2"], "eps_plus"),
])
def test_cli_unsatisfiable_pin_is_named_before_any_draw(args, key, capsys):
    # no draw can satisfy these pins; they were rejected only after 100
    # futile draws, by a message that named no key
    assert main(args + ["--dims", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_numeric_pinned_spectral_exponents_give_the_exact_verdicts():
    """Pinned x = q^2 and y = q^-1 meet drawn complex points on the numeric
    backend (ybe divides x by its drawn z); that ended in a ValueError
    traceback.  Every identity now gets the exact run's verdict."""
    def verdicts(**kw):
        config = SuiteConfig(suite="all", dims=(2,), seed=7, x_exp=2,
                             y_exp=-1, **kw)
        return Counter((r.name, r.is_finding, r.passed(config.tol))
                       for r in run_suite(config))

    assert verdicts() == verdicts(backend="numeric", q="1.4+0.3i")
    assert main(["--suite", "all", "--dims", "2", "--seed", "7", "--backend",
                 "numeric", "--q", "1.4+0.3i", "--x-exp", "2"]) == 0


def test_cli_tiny_eps_triangular_argument_passes(capsys):
    # the nodes eps- q^(+-j) of the triangular degenerations differ by about
    # eps-.  Parlett's recurrence divided by those differences: at 1e-11 it
    # gave 13 false onsager/int_W0 FAILs at dims 2,3,4, and at 1e-13 its
    # refusal ended the run in a config error.  The closed-form entries
    # divide by no difference of nodes
    for dims, eps_minus in (("2,3,4", "1/100000000000"),
                            ("2", "1/10000000000000")):
        code = main(["--suite", "onsager", "--dims", dims, "--backend",
                     "numeric", "--q", "1.4+0.3i", "--eps-minus", eps_minus])
        out, err = capsys.readouterr()
        assert code == 0, (dims, err)
        assert "FAIL" not in out + err, dims


def test_cli_tiny_eps_fails_only_the_similarity_transform(capsys):
    # the factored triangular K cancelled in its q-exponential conjugation
    # at a small eps-: at 1e-11 it gave 72 false intertwining, aux and
    # reflection/operator FAILs at dims 2,3,4, and at 1e-13 the two
    # truncated products of a Pochhammer ratio overflowed to nan, a config
    # error.  The closed-form K and the one-loop ratio leave only
    # aux/similarity_to_cartan, which still conjugates by q-exponentials
    for eps_minus in ("1/100000000000", "1/10000000000000"):
        code = main(["--suite", "all", "--dims", "2,3,4", "--backend",
                     "numeric", "--q", "1.4+0.3i", "--eps-minus", eps_minus])
        out, err = capsys.readouterr()
        fails = [line for line in out.splitlines() if "FAIL" in line]
        assert all(line.startswith("aux/similarity_to_cartan ")
                   for line in fails), (eps_minus, fails)
        assert code == (1 if fails else 0), (eps_minus, err)


def readme_verify_lines():
    """The `verify ...` command lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("verify ")]


def test_readme_command_lines_run(tmp_path):
    lines = readme_verify_lines()
    assert len(lines) == 3
    for k, line in enumerate(lines):
        out = tmp_path / f"report{k}"
        argv = shlex.split(line)[1:] + ["--dims", "2", "--out", str(out)]
        assert main(argv) == 0, line
        assert out.read_text()


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = reflection\ndims = 2\nseed = 12\ndraws = 1\n"
                   "# comment line\ntol = 1e-8\n")
    ap = build_arg_parser()
    args = ap.parse_args(["--config", str(cfg), "--suite", "ybe"])
    config = config_from_args(args)
    assert config.suite == "ybe"  # flag wins
    assert config.dims == (2,)
    assert config.seed == 12
    assert config.tol == 1e-8


def test_config_file_and_flags_agree(tmp_path):
    values = {"suite": "coideal", "dims": "2,4", "backend": "numeric",
              "q": "1.4+0.3i", "x_exp": "-1", "y_exp": "2", "s0": "0",
              "s1": "-1", "eps_plus": "3/7", "eps_minus": "-2",
              "k_plus": "1/5", "k_minus": "0", "p_tilde": "7/2", "seed": "11",
              "tol": "1e-8", "draws": "2"}
    assert set(values) == set(SuiteConfig.__dataclass_fields__)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    ap = build_arg_parser()
    from_file = config_from_args(ap.parse_args(["--config", str(cfg)]))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
    from_flags = config_from_args(ap.parse_args(flags))
    assert from_file == from_flags
    assert from_file.dims == (2, 4) and from_file.x_exp == -1
    assert from_file.tol == 1e-8 and from_file.k_plus == "1/5"
    cfg.write_text("suite = ybe\ndraws = x\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}:2: draws")):
        config_from_args(ap.parse_args(["--config", str(cfg)]))


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dims 2,3\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(bad))
    assert "expected key = value" in str(err.value)
    bad.write_text("seed = x\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(bad))
    assert "seed" in str(err.value)
    bad.write_text("frobnicate = 1\n")
    ap = build_arg_parser()
    args = ap.parse_args(["--config", str(bad)])
    with pytest.raises(ConfigError):
        config_from_args(args)


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_cli_unreadable_config_file_is_a_config_error(kind, tmp_path, capsys):
    # these ended in a FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError traceback with exit 1, the code of a failed check
    path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
            "binary": tmp_path / "binary.cfg"}[kind]
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00seed = 1\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


def test_cli_report_path_in_missing_directory_is_a_config_error(tmp_path,
                                                                capsys):
    # this ended in a FileNotFoundError traceback with exit 1
    out = tmp_path / "missing" / "r.json"
    assert main(["--suite", "ybe", "--dims", "2", "--draws", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert not out.parent.exists()


def test_cli_checks_the_report_path_before_the_run(tmp_path, monkeypatch,
                                                   capsys):
    # an unwritable --out path used to be reported only after the whole run
    def reached(config):
        raise AssertionError("the suite ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", reached)
    out = tmp_path / "missing" / "r.json"
    assert main(["--suite", "ybe", "--dims", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err


def test_appendix_reports_share_keys_across_backends():
    """The appendix reports name a by the drawn rational, so the exact and
    the numeric run of one seed can be paired by (name, params)."""
    def keys(**kw):
        config = SuiteConfig(suite="appendix", dims=(2, 3), seed=7, **kw)
        return [(r.name, json.dumps(r.params, sort_keys=True))
                for r in run_suite(config)]

    exact = keys()
    assert exact and exact == keys(backend="numeric", q="1.4+0.3i")


def test_numeric_suite_residuals_small():
    config = small_config(suite="intertwining", backend="numeric", q="1.4+0.3i",
                          dims=(2, 3))
    reports = run_suite(config)
    assert reports
    for r in reports:
        assert r.residual is not None and r.residual < 1e-9, r.name
