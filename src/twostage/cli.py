"""Configuration-driven command line front end.

Commands: ``gen-pop`` (synthetic population to CSV), ``estimate`` (one
two-stage draw and its estimates), ``bootstrap`` (adds the PSU bootstrap),
``mc`` (Monte Carlo study grids) and ``verify`` (coupling bound/decay
checks).  Every command reads a JSON config; ``--seed``, ``--threads`` and
``--out`` override the config file.  Unknown config keys are errors.  All
randomness derives from the mandatory seed (never the clock), data outputs
are written atomically, and re-running a command with the same config and
seed reproduces them byte for byte at any thread count.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
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
from .coupling import (check_bound, check_decay, verify_decay, verify_hajek_bound,
                       verify_sir_si_bound)
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
    check_alpha,
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
    payload: dict


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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _as_str(value: Any, path: str, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return value


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
            pop[name] = tuple(_as_num(v, f"{where}[{i}]")
                              for i, v in enumerate(_as_list(value, where)))
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
    rho = obj.get("rho")
    if rho is not None:
        rho = _as_num(rho, f"{path}.rho")
    cls, names = kinds[kind]
    _check_keys(obj, ["kind", *names, "rho"], path)
    args = [_as_num(_require(obj, name, path), f"{path}.{name}") if name == "category"
            else _as_int(_require(obj, name, path), f"{path}.{name}", 1) - 1 for name in names]
    return cls(*args), kind, rho


def _parse_bootstrap(obj: Any, path: str, seed: int) -> BootstrapConfig:
    _check_keys(obj, ["replicates", "m", "alpha"], path)
    m = None if obj.get("m") is None else _as_int(obj["m"], f"{path}.m")
    replicates = _as_int(obj.get("replicates", 1000), f"{path}.replicates")
    alpha = _as_num(obj.get("alpha", 0.025), f"{path}.alpha")
    return _spec(lambda: BootstrapConfig(replicates, m, alpha, seed), path)


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
                raw = json.load(fh)
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
    _VALIDATORS[command](payload, seed)
    return RunConfig(command, seed, threads, out, payload)


def _validate_genpop(payload: dict, seed: int) -> None:
    payload["_population"] = _parse_population(
        _require(payload, "population", "config"), "config.population", seed)
    if "format" in payload:
        _as_str(payload["format"], "config.format", ["csv", "tsv"])


def _parse_second_stage(obj: Any, path: str) -> tuple[str, int | None]:
    """(method, n0) of a ``{"method", "n0"}`` second stage, typed but not yet checked."""
    _check_keys(obj, ["method", "n0"], path)
    method = _as_str(_require(obj, "method", path), f"{path}.method")
    return method, None if obj.get("n0") is None else _as_int(obj["n0"], f"{path}.n0")


def _validate_estimate(payload: dict, seed: int, bootstrap: bool = False) -> None:
    _as_str(_require(payload, "frame", "config"), "config.frame")
    design = _require(payload, "design", "config")
    _check_keys(design, ["kind", "n_I", "expected_n_I"], "config.design")
    kind = _as_str(_require(design, "kind", "config.design"), "config.design.kind",
                   ["SI", "SIR", "BE"])
    size, stray = ("expected_n_I", "n_I") if kind == "BE" else ("n_I", "expected_n_I")
    if stray in design:
        raise ConfigError(f"config.design.{stray}: not a parameter of a {kind} design")
    value = (_as_num if kind == "BE" else _as_int)(_require(design, size, "config.design"),
                                                   f"config.design.{size}")
    payload["_design"] = _spec(lambda: DesignSpec(kind, **{size: value}), "config.design")
    method, n0 = payload["_second_stage"] = _parse_second_stage(
        _require(payload, "second_stage", "config"), "config.second_stage")
    _spec(lambda: check_second_stage(method, n0), "config", _SECOND_STAGE_KEYS)
    ests = _as_list(_require(payload, "estimands", "config"), "config.estimands")
    payload["_estimands"] = [_parse_estimand(e, f"config.estimands[{i}]")
                             for i, e in enumerate(ests)]
    methods = payload.get("variance_methods", [])
    if not isinstance(methods, list):
        raise ConfigError("config.variance_methods: expected a list")
    _spec(lambda: check_variance_methods(methods, method), "config")
    alpha = _as_num(payload.get("alpha", 0.025), "config.alpha")
    _spec(lambda: check_alpha(alpha, "alpha"), "config")
    if bootstrap:
        if kind != "SI":
            raise ConfigError("config.design.kind: the PSU bootstrap runs on SI designs")
        payload["_bootstrap"] = _parse_bootstrap(payload.get("bootstrap", {}),
                                                 "config.bootstrap", seed)
        if "studentized" in payload and not isinstance(payload["studentized"], bool):
            raise ConfigError("config.studentized: expected a boolean")


def _validate_mc(payload: dict, seed: int) -> None:
    """Build and check every cell's Scenario: its (row metadata, scenario) pairs go to _cells."""
    if ("population" in payload) == ("frame" in payload):
        raise ConfigError("config: provide exactly one of 'population' or 'frame'")
    if "population" in payload:
        payload["_population"] = _parse_population(
            payload["population"], "config.population", seed)
    else:
        _as_str(payload["frame"], "config.frame")
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
        grid = _as_list(_require(first, "n_I", f"{path}.first_stage"), f"{path}.first_stage.n_I")
        sizes = [{"n_I": _as_int(n, f"{path}.first_stage.n_I[{i}]")} for i, n in enumerate(grid)]
    else:
        alloc = _require(first, "allocations", f"{path}.first_stage")
        if not isinstance(alloc, Mapping):
            raise ConfigError(f"{path}.first_stage.allocations: expected an object")
        sizes = [{"allocations": {k: _as_int(n, f"{path}.first_stage.allocations[{k}]")
                                  for k, n in alloc.items()}}]
    designs = [_spec(lambda: DesignSpec(kind, **size), f"{path}.first_stage") for size in sizes]
    second = _require(scn, "second_stage", path)
    _check_keys(second, ["method", "n0"], f"{path}.second_stage")
    method = _as_str(_require(second, "method", f"{path}.second_stage"),
                     f"{path}.second_stage.method")
    n0s = [None] if second.get("n0") is None else [
        _as_int(n0, f"{path}.second_stage.n0[{i}]")
        for i, n0 in enumerate(_as_list(second["n0"], f"{path}.second_stage.n0"))]
    if not isinstance(scn.get("studentized", False), bool):
        raise ConfigError(f"{path}.studentized: expected a boolean")
    if not isinstance(scn.get("variance_methods", []), list):
        raise ConfigError(f"{path}.variance_methods: expected a list")
    ests = _as_list(_require(scn, "estimands", path), f"{path}.estimands")
    scn["_estimands"] = [_parse_estimand(e, f"{path}.estimands[{i}]") for i, e in enumerate(ests)]
    common = dict(
        estimands=tuple(e for e, _, _ in scn["_estimands"]),
        variance_methods=tuple(scn.get("variance_methods", [])),
        bootstrap=(None if scn.get("bootstrap") is None
                   else _parse_bootstrap(scn["bootstrap"], f"{path}.bootstrap", seed)),
        studentized=scn.get("studentized", False),
        ci_alpha=_as_num(scn.get("alpha", 0.025), f"{path}.alpha"),
        replicates=_as_int(scn.get("replicates", 1000), f"{path}.replicates"),
        true_run=_as_int(scn.get("true_run", 20000), f"{path}.true_run"),
    )
    # the Scenario attributes whose config keys have other names
    keys = {"ci_alpha": "alpha", **_SECOND_STAGE_KEYS}
    payload["_cells"] = []
    for n0 in n0s:
        for design in designs:
            scenario = Scenario(design, method, n0, **common)
            _spec(scenario.check, path, keys)
            n_I = design.n_I if kind == "SI" else sum(design.allocations.values())
            meta = {"population": label, "n0": "" if n0 is None else n0, "nI": n_I}
            payload["_cells"].append((meta, scenario))


def _parse_verify_frame(obj: Any, path: str) -> dict:
    _check_keys(obj, ["kind", "n_psus", "mean", "sd", "path"], path)
    kind = _as_str(_require(obj, "kind", path), f"{path}.kind", ["range", "normal", "path"])
    if kind == "path":
        _as_str(_require(obj, "path", path), f"{path}.path")
    else:
        _as_int(_require(obj, "n_psus", path), f"{path}.n_psus", 2)
        if kind == "normal":
            _as_num(_require(obj, "mean", path), f"{path}.mean")
            _as_num(_require(obj, "sd", path), f"{path}.sd")
    return dict(obj)


def _verify_args(spec: dict, path: str, frames: Sequence[dict], check: Callable,
                 **args: Any) -> dict:
    """The library arguments of a bound or the decay (a census by default), checked by ``check``."""
    args["n_I"] = _as_int(_require(spec, "n_I", path), f"{path}.n_I")
    args["replicates"] = _as_int(spec.get("replicates", 100000), f"{path}.replicates")
    args["second_stage"], args["n0"] = _parse_second_stage(
        spec.get("second_stage", {"method": "CENSUS"}), f"{path}.second_stage")
    _spec(lambda: check(**args), path, _SECOND_STAGE_KEYS)
    if (args["n0"] or 0) > 1 and any(f["kind"] != "path" for f in frames):
        raise ConfigError(f"{path}.second_stage.n0: the PSUs of a generated frame "
                          "hold one SSU each, so n0 must be 1")
    return args


def _validate_verify(payload: dict, seed: int) -> None:
    """Type each check and its frames, then check it: its library arguments go to _args."""
    if not payload.get("bounds") and not payload.get("decay"):
        raise ConfigError("config: verify needs 'bounds' and/or 'decay'")
    for i, spec in enumerate(payload.get("bounds", [])):
        path = f"config.bounds[{i}]"
        _check_keys(spec, ["check", "n_I", "replicates", "frame", "second_stage"], path)
        _as_str(_require(spec, "check", path), f"{path}.check", ["be_si", "sir_si"])
        frame = _parse_verify_frame(_require(spec, "frame", path), f"{path}.frame")
        spec["_args"] = _verify_args(spec, path, [frame], check_bound)
    decay = payload.get("decay")
    if decay is not None:
        path = "config.decay"
        _check_keys(decay, ["n_I", "m", "replicates", "frames", "second_stage"], path)
        frames = [_parse_verify_frame(spec, f"{path}.frames[{i}]") for i, spec in
                  enumerate(_as_list(_require(decay, "frames", path), f"{path}.frames"))]
        m = None if decay.get("m") is None else _as_int(decay["m"], f"{path}.m")
        decay["_args"] = _verify_args(decay, path, frames, partial(check_decay, len(frames)), m=m)


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


def _strip_private(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {k: _strip_private(v) for k, v in obj.items() if not str(k).startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_strip_private(v) for v in obj]
    return obj


def _manifest(cfg: RunConfig, written: list[str], started: float) -> dict:
    payload = _strip_private(cfg.payload)
    return {
        "command": cfg.command,
        "config": payload,
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
    pop_cfg = cfg.payload["_population"]
    phase("frame")
    frame = generate_population(pop_cfg)
    phase("write")
    ext = cfg.payload.get("format", "csv")
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


def _one_draw_estimates(cfg: RunConfig, frame: Frame):
    """One two-stage draw; returns (draw, yhat, vhat, [(estimand, slice, point entry)])."""
    payload = cfg.payload
    design = payload["_design"]
    method, n0 = payload["_second_stage"]
    estimands = payload["_estimands"]
    rng = substream(cfg.seed, "estimate")

    if design.kind == "SI":
        draw = draw_si(frame.n_psus, design.n_I, rng)
    elif design.kind == "SIR":
        draw = draw_sir(frame.n_psus, design.n_I, rng)
    else:
        draw = draw_be(frame.n_psus, design.expected_n_I / frame.n_psus, rng)

    columns, subtotals, index, slices = estimand_columns(frame, [est for est, _, _ in estimands])
    need_vhat = any(vm in ("UNBIASED", "BERNOULLI") for vm in payload.get("variance_methods", []))
    yhat, vhat = second_stage_estimates(
        frame, columns, subtotals, draw.order[None], method, n0, (rng,), with_vhat=need_vhat
    )
    # np.take keeps the (k, p_total) estimates row-major, as yhat[0][:, index] would not,
    # so the sums over their columns below add in the order they always have
    yhat = np.take(yhat[0], index, axis=1)
    vhat = None if vhat is None else np.take(vhat[0], index, axis=1)
    points = []
    for (est, est_kind, rho), sl in zip(estimands, slices):
        if design.kind == "BE":
            totals = expansion_totals(yhat[:, sl], frame.n_psus, design.expected_n_I)
        else:
            totals = frame.n_psus * yhat[:, sl].mean(axis=0)
        entry = {"estimand": est.label, "kind": est_kind,
                 "point": float(est.evaluate(totals[None, :])[0])}
        if rho is not None:
            entry["rho"] = rho
        points.append((est, sl, entry))
    return draw, yhat, vhat, points


def _run_estimate(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    payload = cfg.payload
    phase("frame")
    frame = ingest_frame(payload["frame"])
    phase("compute")
    alpha = payload.get("alpha", 0.025)
    kind = payload["_design"].kind
    draw, yhat, vhat, points = _one_draw_estimates(cfg, frame)
    skipped = notes["skipped_variance_methods"] = []

    for est, sl, entry in points:
        if isinstance(est, TotalEstimand) and payload.get("variance_methods"):
            total_fn = ht_total_be if kind == "BE" else mean_total
            total = total_fn(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
            variances = {}
            cis = {}
            for vm in payload["variance_methods"]:
                try:
                    v = variance_estimate(total, vm)
                except ValueError as exc:  # method/design mismatch: left out of the report
                    skipped.append({"estimand": est.label, "method": vm, "message": str(exc)})
                    continue
                variances[vm] = v
                lo, hi = normal_ci(entry["point"], v, alpha)
                cis[vm] = [lo, hi]
            entry["variance_by_method"] = variances
            entry["ci_by_method"] = cis

    report = {
        "design": draw.to_dict(),
        "second_stage": payload["second_stage"],
        "alpha": alpha,
        "seeds": {"master": cfg.seed, "stream": "estimate"},
        "estimates": [entry for _, _, entry in points],
    }
    phase("write")
    report_path = os.path.join(out, "estimate.json")
    _write_json(report_path, report)
    draw_path = os.path.join(out, "draw.json")
    _write_json(draw_path, draw.to_dict())
    return [report_path, draw_path]


def _run_bootstrap(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    payload = cfg.payload
    phase("frame")
    frame = ingest_frame(payload["frame"])
    phase("compute")
    alpha = payload.get("alpha", 0.025)
    boot_cfg: BootstrapConfig = payload["_bootstrap"]
    studentized = payload.get("studentized", False)
    draw, yhat, vhat, points = _one_draw_estimates(cfg, frame)
    dropped = notes["studentized_dropped_replicates"] = {}  # replicates without a pivot

    labels: list[str] = []
    theta_star: list[np.ndarray] = []
    se_star: list = []
    for est, sl, entry in points:
        want_se = studentized and isinstance(est, TotalEstimand)
        reps = resample_wr(
            yhat[:, sl], frame.n_psus, boot_cfg, estimand=est,
            rng=substream(cfg.seed, "bootstrap", est.label),
            compute_se=want_se,
        )
        entry["bootstrap_variance"] = bootstrap_variance(reps)
        entry["ci_percentile"] = list(percentile_ci(reps, boot_cfg.alpha))
        if want_se:
            base_v = variance_estimate(mean_total(draw, (yhat[:, sl], None)), "SIMPLIFIED")
            entry["ci_studentized"] = list(
                studentized_ci(reps, float(np.sqrt(base_v)), boot_cfg.alpha)
            )
            dropped[est.label] = int(np.count_nonzero(~reps.pivotal))
        labels += [est.label] * reps.theta_star.size
        theta_star.append(reps.theta_star)
        se_star += [""] * reps.theta_star.size if reps.se_star is None else reps.se_star.tolist()

    report = {
        "design": draw.to_dict(),
        "second_stage": payload["second_stage"],
        "alpha": alpha,
        "bootstrap": {"replicates": boot_cfg.replicates, "m": boot_cfg.m, "alpha": boot_cfg.alpha},
        "seeds": {"master": cfg.seed},
        "estimates": [entry for _, _, entry in points],
    }
    phase("write")
    report_path = os.path.join(out, "bootstrap.json")
    _write_json(report_path, report)
    reps_path = os.path.join(out, "replicates.csv")
    r = np.concatenate([np.arange(t.size) for t in theta_star])
    _write_csv(reps_path, ["r", "estimand", "theta_star", "se_star"],
               [r, labels, np.concatenate(theta_star), se_star])
    return [report_path, reps_path]


def _run_mc(cfg: RunConfig, out: str, notes: dict, phase: Callable) -> list[str]:
    payload = cfg.payload
    phase("frame")
    if "_population" in payload:
        frame = generate_population(payload["_population"])
    else:
        frame = ingest_frame(payload["frame"])
    phase("compute")
    rows = scaling_study(frame, payload["_cells"], cfg.seed, threads=cfg.threads)
    kind_rho = {e.label: (kind, rho) for e, kind, rho in payload["scenario"]["_estimands"]}

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
    payload = cfg.payload
    written = []
    bounds = []
    for i, spec in enumerate(payload.get("bounds", [])):
        phase("frame")
        frame = _verify_frame(spec["frame"], cfg.seed, i)
        phase("compute")
        fn = verify_hajek_bound if spec["check"] == "be_si" else verify_sir_si_bound
        bounds.append(fn(frame, seed=cfg.seed, **spec["_args"]).to_dict())
    if bounds:
        phase("write")
        written += _write_records(out, "bounds", bounds, bounds)

    decay = payload.get("decay")
    if decay is not None:
        phase("frame")
        frames = [
            _verify_frame(spec, cfg.seed, 1000 + i) for i, spec in enumerate(decay["frames"])
        ]
        phase("compute")
        report = verify_decay(frames, seed=cfg.seed, **decay["_args"])
        rows = [r.to_dict() for r in report.rows]
        phase("write")
        written += _write_records(out, "decay", rows, {
            "rows": rows,
            "strictly_decreasing": {
                m: report.strictly_decreasing(m)
                for m in ("mean_sq_diff", "abs_s2_diff", "boot_sq_diff")
            },
        })
    return written


_RUNNERS = {
    "gen-pop": _run_genpop,
    "estimate": _run_estimate,
    "bootstrap": _run_bootstrap,
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
