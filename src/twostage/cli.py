"""Configuration-driven command line front end.

Commands: ``gen-pop`` (synthetic population to CSV), ``estimate`` (one
two-stage draw and its estimates), ``bootstrap`` (adds the PSU bootstrap),
``mc`` (Monte Carlo study grids) and ``verify`` (coupling bound/decay
checks).  Every command reads a JSON config; ``--seed``, ``--threads`` and
``--out`` override the config file.  Unknown config keys are errors, and a key
the config omits takes the default of the library spec it goes to.  All
randomness derives from the mandatory seed (never the clock), data outputs
are written atomically, and re-running a command with the same config and
seed reproduces them byte for byte at any thread count.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap_variance, percentile_ci, resample_wr, studentized_ci
from .coupling import (_DECAY_METRICS, check_bound, check_decay, verify_decay,
                       verify_hajek_bound, verify_sir_si_bound)
from .designs import (
    DesignSpec,
    check_second_stage,
    draw_be,
    draw_si,
    draw_sir,
    second_stage_estimates,
)
from .estimators import (
    CorrelationEstimand,
    ProportionEstimand,
    RatioEstimand,
    TotalEstimand,
    VHAT_METHODS,
    check_alpha,
    check_variables,
    check_variance_methods,
    estimand_columns,
    expansion_totals,
    ht_total_be,
    mean_total,
    normal_ci,
    variance_estimate,
)
from .frame import Frame, SyntheticConfig, frame_to_csv, generate_population, ingest_frame
from .montecarlo import Scenario, scaling_study
from .rng import GENERATOR_ID, substream

__all__ = ["parse_config", "execute", "main", "RunConfig", "ConfigError"]

COMMANDS = ("gen-pop", "estimate", "bootstrap", "mc", "verify")
# the config keys of the library's second-stage attributes
_SECOND_STAGE_KEYS = {"second_stage": "second_stage.method", "n0": "second_stage.n0"}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass
class RunConfig:
    command: str
    seed: int
    threads: int
    out: str
    payload: dict  # the command's config keys, as given
    plan: dict  # what the command's runner reads: library specs and the CLI's own settings


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


def _check_keys(obj: Mapping, allowed: Sequence[str], path: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")


def _require(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required key")
    return obj[key]


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def _as_num(value: Any, path: str) -> float:
    """A finite float: JSON reads 1e999 as inf, and an integer past 1.8e308 fits no float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    return number


def _as_str(value: Any, path: str, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
    return value


def _as_list(value: Any, path: str, as_item: Callable | None = None) -> list:
    """A nonempty list, each item typed by ``as_item`` if given."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return value if as_item is None else [as_item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_methods(value: Any, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return tuple(value)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return value


def _or_none(as_type: Callable) -> Callable:
    """``as_type`` that reads a null as None."""
    return lambda value, path: None if value is None else as_type(value, path)


def _given(obj: Mapping, path: str, **types: Callable) -> dict:
    """Each key of ``types`` that ``obj`` holds, typed by its function.  A key the config
    omits is left out, so the library spec it goes to states its default."""
    return {key: as_type(obj[key], f"{path}.{key}") for key, as_type in types.items() if key in obj}


def _spec(build: Callable, path: str, keys: Mapping[str, str] | None = None) -> Any:
    """``build()``; a spec's ValueError "<attribute>[index] <reason>" becomes a ConfigError
    naming the config key under ``path``, which ``keys`` gives where it has another name."""
    try:
        return build()
    except ValueError as exc:
        name, index, reason = re.match(r"([\w.]+)(\[.*?\])? (.*)", str(exc), re.S).groups()
        raise ConfigError(f"{path}.{(keys or {}).get(name, name)}{index or ''}: {reason}") from None


def _parse_population(obj: Any, path: str, seed: int) -> SyntheticConfig:
    names = [f.name for f in fields(SyntheticConfig) if f.name != "seed"]
    _check_keys(obj, names, path)
    pop: dict[str, Any] = {}
    for name in names:
        value, where = _require(obj, name, path), f"{path}.{name}"
        if name == "n_psus":
            pop[name] = _as_int(value, where)
        elif name == "icc_targets":
            pop[name] = tuple(_as_list(value, where, _as_num))
        else:
            pop[name] = _as_num(value, where)
    return _spec(lambda: SyntheticConfig(seed=seed, **pop), path)


def _parse_estimand(obj: Any, path: str):
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{path}: expected an object")
    # each kind's class and fields; variable numbers are 1-based, matching the y1..yq names
    kinds = {"total": (TotalEstimand, ["var"]), "ratio": (RatioEstimand, ["num", "den"]),
             "correlation": (CorrelationEstimand, ["a", "b"]),
             "proportion": (ProportionEstimand, ["var", "category"])}
    kind = _as_str(_require(obj, "kind", path), f"{path}.kind", list(kinds))
    rho = _or_none(_as_num)(obj.get("rho"), f"{path}.rho")
    cls, names = kinds[kind]
    _check_keys(obj, ["kind", *names, "rho"], path)
    args = [_as_num(_require(obj, name, path), f"{path}.{name}") if name == "category"
            else _as_int(_require(obj, name, path), f"{path}.{name}", 1) - 1 for name in names]
    return cls(*args), kind, rho


def _parse_bootstrap(obj: Any, path: str, seed: int) -> BootstrapConfig:
    _check_keys(obj, ["replicates", "m", "alpha"], path)
    given = _given(obj, path, replicates=_as_int, m=_or_none(_as_int), alpha=_as_num)
    return _spec(lambda: BootstrapConfig(**given, seed=seed), path)


def _refuse_constant(name: str):  # json.load reads NaN and +-Infinity; JSON defines neither
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def parse_config(
    command: str,
    config_path: str | None,
    overrides: Mapping[str, Any] | None = None,
) -> RunConfig:
    """Load, merge and validate a run configuration.

    ``overrides`` (typically from command-line flags) replace top-level
    config values; validation is strict, rejects unknown keys and builds every library
    spec, so a rule that needs no frame fails before any frame is read or generated.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command: {command!r}")
    raw: dict = {}
    if config_path is not None:
        with open(config_path) as fh:
            try:
                raw = json.load(fh, parse_constant=_refuse_constant)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    common = ["seed", "threads", "out"]
    payload_keys = {
        "gen-pop": ["population", "format"],
        "estimate": ["frame", "design", "second_stage", "estimands",
                     "variance_methods", "alpha"],
        "bootstrap": ["frame", "design", "second_stage", "estimands",
                      "variance_methods", "alpha", "bootstrap", "studentized"],
        "mc": ["population", "population_label", "frame", "scenario"],
        "verify": ["bounds", "decay"],
    }[command]
    _check_keys(raw, common + payload_keys, "config")

    if "seed" not in raw:
        raise ConfigError("config.seed: a seed is mandatory (no wall-clock default)")
    seed = _as_int(raw["seed"], "config.seed", 0)
    threads = _as_int(raw.get("threads", 1), "config.threads", 1)
    if "out" not in raw:
        raise ConfigError("config.out: an output directory is required")
    out = _as_str(raw["out"], "config.out")

    payload = {k: raw[k] for k in payload_keys if k in raw}
    return RunConfig(command, seed, threads, out, payload, _VALIDATORS[command](payload, seed))


def _validate_genpop(payload: dict, seed: int) -> dict:
    return {"population": _parse_population(_require(payload, "population", "config"),
                                            "config.population", seed),
            "format": _as_str(payload.get("format", "csv"), "config.format", ["csv", "tsv"])}


def _parse_second_stage(obj: Any, path: str, as_n0: Callable = _as_int) -> dict:
    """``second_stage`` and, if given, ``n0`` (typed by ``as_n0``) of a ``{"method", "n0"}``."""
    _check_keys(obj, ["method", "n0"], path)
    method = _as_str(_require(obj, "method", path), f"{path}.method")
    return {"second_stage": method, **_given(obj, path, n0=_or_none(as_n0))}


def _validate_estimate(payload: dict, seed: int, bootstrap: bool = False) -> dict:
    frame = _as_str(_require(payload, "frame", "config"), "config.frame")
    design = _require(payload, "design", "config")
    _check_keys(design, ["kind", "n_I", "expected_n_I"], "config.design")
    kind = _as_str(_require(design, "kind", "config.design"), "config.design.kind",
                   ["SI", "SIR", "BE"])
    size, stray = ("expected_n_I", "n_I") if kind == "BE" else ("n_I", "expected_n_I")
    if stray in design:
        raise ConfigError(f"config.design.{stray}: not a parameter of a {kind} design")
    value = (_as_num if kind == "BE" else _as_int)(_require(design, size, "config.design"),
                                                   f"config.design.{size}")
    design = _spec(lambda: DesignSpec(kind, **{size: value}), "config.design")
    second = _parse_second_stage(_require(payload, "second_stage", "config"),
                                 "config.second_stage")
    method, n0 = second["second_stage"], second.get("n0")
    _spec(lambda: check_second_stage(method, n0), "config", _SECOND_STAGE_KEYS)
    ests = _as_list(_require(payload, "estimands", "config"), "config.estimands")
    estimands = [_parse_estimand(e, f"config.estimands[{i}]") for i, e in enumerate(ests)]
    methods = _as_methods(payload.get("variance_methods", []), "config.variance_methods")
    _spec(lambda: check_variance_methods(methods, method), "config")
    alpha = _as_num(payload.get("alpha", 0.025), "config.alpha")
    _spec(lambda: check_alpha(alpha, "alpha"), "config")
    plan = dict(frame=frame, design=design, method=method, n0=n0, estimands=estimands,
                variance_methods=methods, alpha=alpha, bootstrap=None)
    if bootstrap:
        if kind != "SI":
            raise ConfigError("config.design.kind: the PSU bootstrap runs on SI designs")
        if design.n_I < 2:
            raise ConfigError(f"config.design.n_I: must be >= 2 to bootstrap, got {design.n_I}")
        plan["bootstrap"] = _parse_bootstrap(payload.get("bootstrap", {}), "config.bootstrap", seed)
        plan["studentized"] = _as_bool(payload.get("studentized", False), "config.studentized")
    return plan


def _validate_mc(payload: dict, seed: int) -> dict:
    """Build and check every cell's Scenario: the plan's cells are (row metadata, scenario)."""
    if ("population" in payload) == ("frame" in payload):
        raise ConfigError("config: provide exactly one of 'population' or 'frame'")
    if "population" in payload:
        plan = {"population": _parse_population(payload["population"], "config.population", seed)}
    else:
        plan = {"frame": _as_str(payload["frame"], "config.frame")}
    label = _as_str(payload.get("population_label", "pop"), "config.population_label")
    path = "config.scenario"
    scn = _require(payload, "scenario", "config")
    _check_keys(scn, ["first_stage", "second_stage", "estimands", "variance_methods",
                      "bootstrap", "studentized", "alpha", "replicates", "true_run"], path)
    first = _require(scn, "first_stage", path)
    _check_keys(first, ["kind", "n_I", "allocations"], f"{path}.first_stage")
    kind = _as_str(_require(first, "kind", f"{path}.first_stage"), f"{path}.first_stage.kind",
                   ["SI", "STRAT_SI"])
    if kind == "SI":
        grid = _require(first, "n_I", f"{path}.first_stage")
        sizes = [{"n_I": n} for n in _as_list(grid, f"{path}.first_stage.n_I", _as_int)]
    else:
        alloc = _require(first, "allocations", f"{path}.first_stage")
        if not isinstance(alloc, Mapping):
            raise ConfigError(f"{path}.first_stage.allocations: expected an object")
        sizes = [{"allocations": {k: _as_int(n, f"{path}.first_stage.allocations[{k}]")
                                  for k, n in alloc.items()}}]
    designs = [_spec(lambda: DesignSpec(kind, **size), f"{path}.first_stage") for size in sizes]
    second = _parse_second_stage(_require(scn, "second_stage", path), f"{path}.second_stage",
                                 partial(_as_list, as_item=_as_int))
    n0s = [{}] if second.get("n0") is None else [{"n0": n0} for n0 in second["n0"]]
    ests = _as_list(_require(scn, "estimands", path), f"{path}.estimands")
    plan["estimands"] = [_parse_estimand(e, f"{path}.estimands[{i}]") for i, e in enumerate(ests)]
    given = dict(estimands=tuple(e for e, _, _ in plan["estimands"]))
    if "population" in plan:  # two variables per ICC target: the rule needs no frame
        n_vars = 2 * len(plan["population"].icc_targets)
        _spec(lambda: check_variables(given["estimands"], n_vars, "population"), path)
    given |= _given(scn, path, studentized=_as_bool, variance_methods=_as_methods,
                    bootstrap=_or_none(partial(_parse_bootstrap, seed=seed)),
                    alpha=_as_num, replicates=_as_int, true_run=_as_int)
    if "alpha" in given:
        given["ci_alpha"] = given.pop("alpha")
    # the Scenario attributes whose config keys have other names
    keys = {"ci_alpha": "alpha", **_SECOND_STAGE_KEYS}
    plan["cells"] = []
    for n0 in n0s:
        for design in designs:
            scenario = Scenario(design, second["second_stage"], **n0, **given)
            _spec(scenario.check, path, keys)
            n_I = design.n_I if kind == "SI" else sum(design.allocations.values())
            meta = {"population": label, "n0": n0.get("n0", ""), "nI": n_I}
            plan["cells"].append((meta, scenario))
    return plan


# the keys that each kind of verify frame reads, each with its type
_VERIFY_FRAME_KEYS = {
    "range": {"n_psus": partial(_as_int, minimum=2)},
    "normal": {"n_psus": partial(_as_int, minimum=2), "mean": _as_num, "sd": _as_num},
    "path": {"path": _as_str},
}


def _parse_verify_frame(obj: Any, path: str) -> dict:
    _check_keys(obj, ["kind", "n_psus", "mean", "sd", "path"], path)
    kind = _as_str(_require(obj, "kind", path), f"{path}.kind", list(_VERIFY_FRAME_KEYS))
    for key in obj:
        if key != "kind" and key not in _VERIFY_FRAME_KEYS[kind]:
            raise ConfigError(f"{path}.{key}: not a parameter of a {kind} frame")
    for key, as_type in _VERIFY_FRAME_KEYS[kind].items():
        as_type(_require(obj, key, path), f"{path}.{key}")
    return dict(obj)


def _verify_args(spec: dict, path: str, frames: Sequence[dict], check: Callable,
                 **args: Any) -> dict:
    """The library arguments of a bound or the decay, checked by ``check``."""
    args["n_I"] = _as_int(_require(spec, "n_I", path), f"{path}.n_I")
    args["replicates"] = _as_int(spec.get("replicates", 100000), f"{path}.replicates")
    if "second_stage" in spec:
        args.update(_parse_second_stage(spec["second_stage"], f"{path}.second_stage"))
    _spec(lambda: check(**args), path, _SECOND_STAGE_KEYS)
    if (args.get("n0") or 0) > 1 and any(f["kind"] != "path" for f in frames):
        raise ConfigError(f"{path}.second_stage.n0: the PSUs of a generated frame "
                          "hold one SSU each, so n0 must be 1")
    return args


def _validate_verify(payload: dict, seed: int) -> dict:
    """Type and check each check and its frames: the plan holds each one's library arguments."""
    bounds = [] if payload.get("bounds") is None else payload["bounds"]  # null: no bounds
    if not isinstance(bounds, list):
        raise ConfigError("config.bounds: expected a list")
    if not bounds and not payload.get("decay"):
        raise ConfigError("config: verify needs 'bounds' and/or 'decay'")
    plan: dict[str, Any] = {"bounds": [], "decay": None}
    for i, spec in enumerate(bounds):
        path = f"config.bounds[{i}]"
        _check_keys(spec, ["check", "n_I", "replicates", "frame", "second_stage"], path)
        check = _as_str(_require(spec, "check", path), f"{path}.check", ["be_si", "sir_si"])
        frame = _parse_verify_frame(_require(spec, "frame", path), f"{path}.frame")
        plan["bounds"].append((check, frame, _verify_args(spec, path, [frame], check_bound)))
    decay = payload.get("decay")
    if decay is not None:
        path = "config.decay"
        _check_keys(decay, ["n_I", "m", "replicates", "frames", "second_stage"], path)
        frames = [_parse_verify_frame(spec, f"{path}.frames[{i}]") for i, spec in
                  enumerate(_as_list(_require(decay, "frames", path), f"{path}.frames"))]
        m = _given(decay, path, m=_or_none(_as_int))
        plan["decay"] = (frames, _verify_args(decay, path, frames,
                                              partial(check_decay, len(frames)), **m))
    return plan


_VALIDATORS = {
    "gen-pop": _validate_genpop,
    "estimate": _validate_estimate,
    "bootstrap": partial(_validate_estimate, bootstrap=True),
    "mc": _validate_mc,
    "verify": _validate_verify,
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj: Any) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt(value: Any) -> Any:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _fmt_column(column: Sequence[Any]) -> list:
    """``_fmt`` of every value of a column; a numeric array is formatted at once."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return column.tolist()
    return list(map(_fmt, column))


def _write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    """Write one CSV row per index of ``columns``, one column per header name."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(_fmt_column, columns)))
    _atomic_write(path, buf.getvalue())


def _manifest(cfg: RunConfig, written: list[str], started: float) -> dict:
    return {
        "command": cfg.command,
        "config": cfg.payload,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "rng": GENERATOR_ID,
        "version": __version__,
        "outputs": sorted(os.path.basename(p) for p in written),
        # the numpy Generator algorithms differ across versions: byte identity needs these
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "wall_time_s": round(time.monotonic() - started, 3),  # timestamp-like field, manifest only
    }


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _run_genpop(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    pop_cfg = cfg.plan["population"]
    phase("frame")
    frame = generate_population(pop_cfg)
    phase("write")
    ext = cfg.plan["format"]
    frame_path = os.path.join(out, f"frame.{ext}")
    # frame_to_csv writes directly; route through a buffer for atomicity
    buf_path = frame_path + f".tmp.{os.getpid()}"
    frame_to_csv(frame, buf_path, delimiter="\t" if ext == "tsv" else ",")
    os.replace(buf_path, frame_path)
    sidecar = {
        "population": {k: v for k, v in asdict(pop_cfg).items() if k != "seed"},
        "seed": cfg.seed,
        "rng": GENERATOR_ID,
        "n_psus": frame.n_psus,
        "n_ssus": frame.n_ssus,
        "n_vars": frame.n_vars,
    }
    meta_path = os.path.join(out, "frame.meta.json")
    _write_json(meta_path, sidecar)
    return [frame_path, meta_path]


def _run_estimate(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    """``estimate``: one two-stage draw and its estimates; ``bootstrap`` adds each estimand's
    PSU bootstrap and writes its replicates."""
    plan = cfg.plan
    design, estimands, methods = plan["design"], plan["estimands"], plan["variance_methods"]
    boot_cfg: BootstrapConfig | None = plan["bootstrap"]
    phase("frame")
    frame = ingest_frame(plan["frame"])
    phase("compute")
    rng, N = substream(cfg.seed, "estimate"), frame.n_psus
    if design.kind == "BE":
        draw = draw_be(N, design.expected_n_I / N, rng)
    else:
        draw = (draw_si if design.kind == "SI" else draw_sir)(N, design.n_I, rng)
    columns, subtotals, index, slices = estimand_columns(frame, [e for e, _, _ in estimands])
    yhat, vhat = second_stage_estimates(frame, columns, subtotals, draw.order[None], plan["method"],
                                        plan["n0"], (rng,),
                                        with_vhat=any(vm in VHAT_METHODS for vm in methods))
    del columns, subtotals  # the (N, p) column matrix is not held through the bootstrap
    # np.take keeps the (k, p_total) estimates row-major, as yhat[0][:, index] would not,
    # so the sums over their columns below add in the order they always have
    yhat = np.take(yhat[0], index, axis=1)
    vhat = None if vhat is None else np.take(vhat[0], index, axis=1)
    skipped = notes["skipped_variance_methods"] = []
    dropped = {}  # each estimand's studentized replicates without a pivot
    entries, labels, theta_star, se_star = [], [], [], []
    for (est, est_kind, rho), sl in zip(estimands, slices):
        if design.kind == "BE":
            totals = expansion_totals(yhat[:, sl], N, design.expected_n_I)
        else:
            totals = N * yhat[:, sl].mean(axis=0)
        entry = {"estimand": est.label, "kind": est_kind,
                 "point": float(est.evaluate(totals[None, :])[0])}
        if rho is not None:
            entry["rho"] = rho
        entries.append(entry)
        total = None
        if isinstance(est, TotalEstimand):
            total_fn = ht_total_be if design.kind == "BE" else mean_total
            total = total_fn(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
        if total is not None and methods:
            variances = entry["variance_by_method"] = {}
            cis = entry["ci_by_method"] = {}
            for vm in methods:
                try:
                    variances[vm] = variance_estimate(total, vm)
                except ValueError as exc:  # method/design mismatch: left out of the report
                    skipped.append({"estimand": est.label, "method": vm, "message": str(exc)})
                    continue
                cis[vm] = list(normal_ci(entry["point"], variances[vm], plan["alpha"]))
        if boot_cfg is None:
            continue
        # each estimand resamples on its own stream; only the totals get se*
        (reps,) = resample_wr(yhat[:, sl], N, boot_cfg, (est,),
                              substream(cfg.seed, "bootstrap", est.label),
                              compute_se=plan["studentized"])
        entry["bootstrap_variance"] = bootstrap_variance(reps)
        entry["ci_percentile"] = list(percentile_ci(reps, boot_cfg.alpha))
        if reps.se_star is not None:
            base_se = float(np.sqrt(variance_estimate(total, "SIMPLIFIED")))
            entry["ci_studentized"] = list(studentized_ci(reps, base_se, boot_cfg.alpha))
            dropped[est.label] = int(np.count_nonzero(~reps.pivotal))
        labels += [est.label] * reps.theta_star.size
        theta_star.append(reps.theta_star)
        se_star += [""] * reps.theta_star.size if reps.se_star is None else reps.se_star.tolist()

    report = {"design": draw.to_dict(), "second_stage": cfg.payload["second_stage"],
              "alpha": plan["alpha"], "seeds": {"master": cfg.seed, "stream": "estimate"},
              "estimates": entries}
    if boot_cfg is not None:
        notes["studentized_dropped_replicates"] = dropped
        # the bootstrap also draws on each estimand's ("bootstrap", label) stream
        report["seeds"] = {"master": cfg.seed}
        report["bootstrap"] = {"replicates": boot_cfg.replicates, "m": boot_cfg.m,
                               "alpha": boot_cfg.alpha}
    phase("write")
    report_path = os.path.join(out, "estimate.json" if boot_cfg is None else "bootstrap.json")
    _write_json(report_path, report)
    if boot_cfg is None:
        draw_path = os.path.join(out, "draw.json")
        _write_json(draw_path, draw.to_dict())
        return [report_path, draw_path]
    reps_path = os.path.join(out, "replicates.csv")
    r = np.concatenate([np.arange(t.size) for t in theta_star])
    _write_csv(reps_path, ["r", "estimand", "theta_star", "se_star"],
               [r, labels, np.concatenate(theta_star), se_star])
    return [report_path, reps_path]


def _run_mc(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    plan = cfg.plan
    phase("frame")
    if "population" in plan:
        frame = generate_population(plan["population"])
    else:
        frame = ingest_frame(plan["frame"])
    phase("compute")
    rows = scaling_study(frame, plan["cells"], cfg.seed, threads=cfg.threads)
    kind_rho = {e.label: (kind, rho) for e, kind, rho in plan["estimands"]}

    by_kind: dict[str, list] = {}
    for row in rows:
        kind, rho = kind_rho[row["estimand"]]
        by_kind.setdefault(kind, []).append(
            [row["population"], "" if rho is None else rho, row["n0"], row["nI"],
             row["estimand"], row["metric"], row["value"], row["mc_se"]]
        )
    phase("write")
    written = []
    header = ["population", "rho", "n0", "nI", "estimand", "metric", "value", "mc_se"]
    for kind, kind_rows in sorted(by_kind.items()):
        path = os.path.join(out, f"mc_{kind}.csv")
        _write_csv(path, header, list(zip(*kind_rows)))
        written.append(path)
    return written


def _verify_frame(spec: dict, seed: int, index: int) -> Frame:
    if spec["kind"] == "path":
        return ingest_frame(spec["path"])
    n = spec["n_psus"]
    if spec["kind"] == "range":
        subtotals = np.arange(1.0, n + 1.0)
    else:
        rng = substream(seed, "verify-frame", index)
        subtotals = spec["mean"] + spec["sd"] * rng.standard_normal(n)
    return Frame(subtotals[:, None], np.ones(n, dtype=np.int64))


def _write_records(out: str, name: str, records: list[dict], doc: Any) -> list[str]:
    """Write ``records`` as name.csv (keys as header, one row each) and ``doc`` as name.json."""
    csv_path = os.path.join(out, f"{name}.csv")
    _write_csv(csv_path, list(records[0]), list(zip(*(r.values() for r in records))))
    json_path = os.path.join(out, f"{name}.json")
    _write_json(json_path, doc)
    return [csv_path, json_path]


def _run_verify(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    written = []
    bounds = []
    for i, (check, spec, args) in enumerate(cfg.plan["bounds"]):
        phase("frame")
        frame = _verify_frame(spec, cfg.seed, i)
        phase("compute")
        fn = verify_hajek_bound if check == "be_si" else verify_sir_si_bound
        bounds.append(fn(frame, seed=cfg.seed, **args).to_dict())
    if bounds:
        phase("write")
        written += _write_records(out, "bounds", bounds, bounds)

    if cfg.plan["decay"] is not None:
        specs, args = cfg.plan["decay"]
        phase("frame")
        frames = [_verify_frame(spec, cfg.seed, 1000 + i) for i, spec in enumerate(specs)]
        phase("compute")
        report = verify_decay(frames, seed=cfg.seed, **args)
        rows = [r.to_dict() for r in report.rows]
        phase("write")
        written += _write_records(out, "decay", rows, {
            "rows": rows,
            "strictly_decreasing": {m: report.strictly_decreasing(m) for m in _DECAY_METRICS},
        })
    return written


_RUNNERS = {
    "gen-pop": _run_genpop,
    "estimate": _run_estimate,
    "bootstrap": _run_estimate,
    "mc": _run_mc,
    "verify": _run_verify,
}


def execute(cfg: RunConfig) -> int:
    """Run a validated configuration; returns the process exit status."""
    started = time.monotonic()
    os.makedirs(cfg.out, exist_ok=True)
    notes: dict = {}  # what the run skipped and how long it took, for the manifest only
    marks = [("compute", started)]  # each phase the runner enters, from when
    written = _RUNNERS[cfg.command](cfg, cfg.out, notes,
                                    lambda phase: marks.append((phase, time.monotonic())))
    seconds = dict.fromkeys(("frame", "compute", "write"), 0.0)
    for (phase, since), (_, until) in zip(marks, marks[1:] + [("", time.monotonic())]):
        seconds[phase] += until - since
    # whole milliseconds rounded down never add up to more than the wall time
    notes["phase_s"] = {phase: int(s * 1000) / 1000 for phase, s in seconds.items()}
    manifest_path = os.path.join(cfg.out, "manifest.json")
    _write_json(manifest_path, {**_manifest(cfg, written, started), **notes})
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Two-stage survey sampling: estimation, bootstrap, Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--threads", type=int, help="worker processes for MC replicates")
        p.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(
            args.command,
            args.config,
            {"seed": args.seed, "threads": args.threads, "out": args.out},
        )
        return execute(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "config", "message": str(exc)}}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface downstream errors as JSON
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
