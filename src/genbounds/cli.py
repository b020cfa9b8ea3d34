"""Command-line surface: compute bound panels, run the verification suite,
and sweep a bound panel along a parameter axis.

Exit codes: 0 success, 1 invariant failure (verify), 2 usage/config error,
3 enumeration budget exceeded. Output is deterministic: the same config
(and, for verify, the same --seed) produces byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys as _sys
from pathlib import Path
from typing import Any, Mapping

from . import verify as vfy
from .engine import view_of
from .measures import T_INF, normalize_order
from .models import _integral, _number, _real, expected_gen, load_problem
from .prob import BudgetExceededError, InvalidDistributionError, read_json

SCHEMA_VERSION = 1

REPORT_COLUMNS = ("schema_version", "bound_id", "flavor", "scope", "epsilon",
                  "feasible", "delta", "t", "alpha", "gamma", "sigma", "C",
                  "n", "abs_expected_gen", "quantile")

# the config keys each command reads; any other key is refused
_REPORT_KEYS = ("problem", "deltas", "bounds", "t", "alpha")
CONFIG_KEYS = {"report": _REPORT_KEYS, "sweep": _REPORT_KEYS + ("axis", "values"),
               "verify": ("instances", "deltas", "sigma_scale")}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _fmt(value: Any) -> Any:
    """Serialize a cell; infinities become the strings 'inf' and '-inf', and
    None (an empty CSV cell) stays None."""
    if value is T_INF or value == math.inf:
        return "inf"
    return "-inf" if value == -math.inf else value


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path!r} is not a JSON object")
    return config


def _load_system(config: Mapping[str, Any]):
    if "problem" not in config:
        raise ConfigError("config lacks a 'problem' entry")
    try:
        return load_problem(config["problem"])[1]
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid problem definition: {exc}")


def _deltas(config: Mapping[str, Any]) -> list[float]:
    deltas = config.get("deltas", [0.1])
    if not isinstance(deltas, list):
        raise ConfigError("config field 'deltas' must be a list of levels")
    deltas = [_number("deltas", d) for d in deltas]
    if not deltas or any(not 0.0 < d < 1.0 for d in deltas):
        raise ConfigError("deltas must be a nonempty subset of (0, 1)")
    return deltas


def _report_rows(system, config: Mapping[str, Any]) -> list[dict]:
    """Report rows of ``system``, each with |E[gen]| and the exact
    (1 - delta)-quantile of the absolute value the bounds hold with
    probability 1 - delta: gen, or the test-minus-train gap."""
    panel = vfy.panel_ids(system.setting)
    bounds = config.get("bounds", list(panel))
    if not isinstance(bounds, list):
        raise ConfigError("config field 'bounds' must be a list of bound ids")
    if not bounds:
        raise ConfigError("empty bound selection")
    for bound_id in bounds:
        if bound_id not in panel:
            raise ConfigError(f"{bound_id!r} is not a data-independent "
                              f"{system.setting} bound id")
    t = _number("t", config.get("t", 2), normalize_order)
    alpha = _number("alpha", config.get("alpha", 2.0), _order)
    deltas = _deltas(config)
    abs_gen = abs(expected_gen(system))
    rows = []
    for delta in deltas:
        quantile = vfy.abs_quantile(system, 1.0 - delta)
        for bound_id in bounds:
            result = vfy.BOUNDS[bound_id].evaluate(system, delta, t, alpha, "auto")
            row = {k: _fmt(result.params.get(k)) for k in ("t", "alpha", "gamma", "sigma", "C")}
            rows.append(dict(row, schema_version=SCHEMA_VERSION, bound_id=bound_id,
                             flavor=result.flavor, scope=result.scope,
                             epsilon=_fmt(result.epsilon), feasible=result.feasible,
                             delta=delta, n=system.n, abs_expected_gen=abs_gen,
                             quantile=quantile))
    return rows


def _emit(rows: list[dict], columns: tuple, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[k]) for k in columns] for row in rows)
        text = buf.getvalue()
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out!r}: {exc}") from exc
    else:
        _sys.stdout.write(text)


def cmd_report(config: Mapping[str, Any], out: str | None, fmt: str) -> int:
    system = _load_system(config)
    rows = _report_rows(system, config)
    _emit(rows, REPORT_COLUMNS, fmt, out)
    return 0


def cmd_verify(config: Mapping[str, Any], seed: int) -> int:
    result = vfy.run_verification_suite(
        seed=seed,
        n_instances=_number("instances", config.get("instances", 50), _integral),
        deltas=tuple(_deltas(config)) if "deltas" in config else (0.3, 0.1, 0.05),
        sigma_scale=_number("sigma_scale", config.get("sigma_scale", 1.0)),
    )
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    print(f"{result['checks']} checks, {len(result['failures'])} failures "
          f"(seed {result['seed']})")
    return 0 if result["passed"] else 1


SWEEP_AXES = ("delta", "t", "alpha", "beta", "n")


def _subset_columns(system) -> dict:
    """Tightness-comparison columns for subset problems: the mutual
    information between W and the supersample vs the conditional one."""
    if system.setting != "subset":
        return {"mi_w_supersample": "", "cmi_w_selector": ""}
    view = view_of(system)
    return {"mi_w_supersample": view.mi_w_supersample, "cmi_w_selector": view.table.mean}


def _order(value: Any) -> float:
    """An order alpha as a float: a number, or the string "inf"."""
    return math.inf if value == "inf" else _real(value)


def _at(config: Mapping[str, Any], axis: str, value: Any) -> dict:
    """The config with the swept parameter (or problem entry) set to value."""
    if axis == "t":
        return dict(config, t=value)
    value = _number("values", value, {"n": _integral, "alpha": _order}.get(axis, _real))
    if axis == "delta":
        return dict(config, deltas=[value])
    if axis == "alpha":
        return dict(config, alpha=value)
    doc = config["problem"]
    doc = _load_config(doc) if isinstance(doc, str) else read_json(doc, "problem")
    doc = json.loads(json.dumps(doc))
    if axis == "beta":
        learner = doc.get("learner")
        if not isinstance(learner, Mapping) or learner.get("kind") != "gibbs":
            raise ConfigError("beta sweep requires a gibbs learner")
        learner["beta"] = value
    else:
        doc["n"] = value
    return dict(config, problem=doc)


def cmd_sweep(config: Mapping[str, Any], out: str | None, fmt: str) -> int:
    axis = config.get("axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    values = config.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep requires a nonempty 'values' list")
    # the delta, t and alpha axes keep one system, whose view computes its
    # law and density table once
    fixed = None if axis in ("beta", "n") else _load_system(config)
    rows = []
    for value in values:
        sub = _at(config, axis, value)
        system = fixed or _load_system(sub)
        extra = _subset_columns(system)
        for row in _report_rows(system, sub):
            rows.append(dict(row, axis=axis, axis_value=value, **extra))
    columns = REPORT_COLUMNS + ("axis", "axis_value", "mi_w_supersample",
                                "cmi_w_selector")
    _emit(rows, columns, fmt, out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbounds",
        description="Exact information-theoretic generalization bounds on "
                    "finite problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("report", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        if name == "verify":  # the seed of its random instances
            p.add_argument("--seed", type=int, default=0)
        else:  # verify prints its summary as text
            p.add_argument("--out", default=None)
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


# Built once per process: parse_args keeps no state between calls, so main
# may be called again and again and pays only for the parse.
_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = _load_config(args.config)
        unknown = [key for key in config if key not in CONFIG_KEYS[args.command]]
        if unknown:
            raise ConfigError(f"config key {unknown[0]!r} is not read by {args.command}")
        if args.command == "report":
            return cmd_report(config, args.out, args.format)
        if args.command == "verify":
            return cmd_verify(config, args.seed)
        return cmd_sweep(config, args.out, args.format)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except (ConfigError, InvalidDistributionError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
