"""Command-line driver.

    verify --suite ybe --dims 2,3 --backend exact --q symbolic --seed 7

Flags mirror the flat key=value config-file keys one to one; command-line
values override file values.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import typing

from .suite import (
    ConfigError,
    SuiteConfig,
    emit_report,
    run_suite,
    summarize,
)


# help strings of the flags that have one; each flag is named after its
# SuiteConfig key (--x-exp sets x_exp)
_HELP = {
    "dims": "comma-separated representation dimensions, e.g. 2,3,4",
    "q": "'symbolic', an exact rational 'p/r' (perfect square), or a "
         "complex like 1.4+0.3i",
    "x_exp": "pin the spectral exponent m of x = q^m",
}


def _settable_keys() -> dict:
    """key -> int, float, tuple or str, as SuiteConfig declares it."""
    hints = typing.get_type_hints(SuiteConfig)
    out = {}
    for f in dataclasses.fields(SuiteConfig):
        types = typing.get_args(hints[f.name]) or (hints[f.name],)
        out[f.name] = next((t for t in (int, float, tuple) if t in types), str)
    return out


_KEYS = _settable_keys()


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="Verify boundary quantum-integrability identities "
                    "(Yang-Baxter, reflection, intertwining, coideal, "
                    "appendix conjugations) exactly or numerically.")
    ap.add_argument("--config", help="flat key=value config file; flags override")
    for key in _KEYS:
        ap.add_argument(_flag(key), dest=key, help=_HELP.get(key))
    ap.add_argument("--report", choices=("json", "text"), default="text")
    ap.add_argument("--out", help="write the report here instead of stdout")
    return ap


def _parse_value(key: str, text: str, where: str):
    kind = _KEYS.get(key, str)
    if kind is tuple:
        return _parse_dims(text, where)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {key} must be {noun}")


def parse_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not a text file"
        raise ConfigError(f"cannot read config file {path}: {reason}")
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        out[key] = _parse_value(key, value.strip(), f"{path}:{lineno}")
    return out


def _parse_dims(text: str, where: str) -> tuple:
    parts = [p for p in str(text).replace(" ", "").split(",") if p]
    if not parts:
        raise ConfigError(f"{where}: empty dims list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where}: dims must be integers")


def config_from_args(args) -> SuiteConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _KEYS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse_value(key, text, _flag(key))
    unknown = set(values) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = SuiteConfig(**values)
    config.validate()
    return config


def _report_stream(path):
    """stdout, or the --out file opened before the run, so that an unwritable
    path is a config error at once; like a shell redirection, it truncates."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {path}: {exc.strerror}")


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        config = config_from_args(args)
        with _report_stream(args.out) as out:
            reports = run_suite(config)
            text = emit_report(reports, args.report, config)
            try:
                out.write(text)
                out.flush()
            except OSError as exc:
                raise ConfigError(f"cannot write the report to "
                                  f"{args.out or 'stdout'}: {exc.strerror}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(reports, config.tol)
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
