"""From-outside layer trace: wrap the library's public functions at their import sites.

Each wrapped call records a span ``(name, start_ns, end_ns, parent, op)`` in
memory.  A span's self time is its duration minus the durations of its direct
children; spans nest strictly (one thread), so the self times of one op sum
exactly to the duration of the op's root span.

A function is wrapped wherever a ``twostage`` module holds a reference to
it (``twostage.montecarlo.si_order``, ``twostage.coupling.si_order_excluding``
and so on), so calls between library modules are seen.  A name that a later
version of the library no longer has is skipped and reports zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# layer name -> (defining module, function names); several names may share a layer
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "rng.substream": ("twostage.rng", ("substream",)),
    "frame.generate_population": ("twostage.frame", ("generate_population",)),
    "frame.frame_to_csv": ("twostage.frame", ("frame_to_csv",)),
    "frame.ingest_frame": ("twostage.frame", ("ingest_frame",)),
    "designs.si_order": ("twostage.designs", ("si_order",)),
    "designs.si_order_excluding": ("twostage.designs", ("si_order_excluding",)),
    "designs.psu_subtotal_estimates": ("twostage.designs", ("psu_subtotal_estimates",)),
    "designs.draw_first_stage": ("twostage.designs", ("draw_si", "draw_sir", "draw_be")),
    "estimators.normal_ci": ("twostage.estimators", ("normal_ci",)),
    "estimators.variance_estimate": ("twostage.estimators", ("variance_estimate",)),
    "estimators.theoretical_variance": ("twostage.estimators", ("theoretical_variance",)),
    "bootstrap.multinomial_weights": ("twostage.bootstrap", ("multinomial_weights",)),
    "bootstrap.resample_wr": ("twostage.bootstrap", ("resample_wr",)),
    "bootstrap.replicate_se": ("twostage.bootstrap", ("replicate_se",)),
    "coupling.coupled_be_si": ("twostage.coupling", ("coupled_be_si",)),
    "coupling.coupled_sir_si": ("twostage.coupling", ("coupled_sir_si",)),
    "coupling.verify": (
        "twostage.coupling", ("verify_hajek_bound", "verify_sir_si_bound", "verify_decay"),
    ),
    "montecarlo.approximate_true_variance": (
        "twostage.montecarlo", ("approximate_true_variance",),
    ),
    "montecarlo.run_scenario": ("twostage.montecarlo", ("run_scenario",)),
    "cli.main": ("twostage.cli", ("main",)),
}

# plug-in evaluation is a method on every estimand class
EVALUATE_LAYER = "estimators.evaluate"
ESTIMAND_CLASSES = ("TotalEstimand", "RatioEstimand", "CorrelationEstimand", "ProportionEstimand")

# the root span of every op; its self time is the time spent outside every wrapped function
OP_LAYER = "bench.op"

LAYER_NAMES = (OP_LAYER, *LAYERS, EVALUATE_LAYER)


def _mb_gathered(args, kwargs, result) -> float:
    """psu_subtotal_estimates: k PSUs x n0 SSUs x p columns x 8 bytes (computed)."""
    columns, psu_indices, n0 = args[1], args[2], args[4]
    return len(psu_indices) * n0 * columns.shape[1] * 8 / 1e6


def _mb_weights(args, kwargs, result) -> float:
    """multinomial_weights: an (R, n) float64 matrix (computed)."""
    return args[1] * args[2] * 8 / 1e6


def _repaired(args, kwargs, result) -> float:
    """coupled_be_si: 1 when the Bernoulli sample size needed repair."""
    return float(result.be_indices.size != result.si_indices.size)


def _written_mb(args, kwargs, result) -> float:
    """frame_to_csv(frame, path, ...): bytes of the file written."""
    return os.path.getsize(args[1]) / 1e6


def _read_mb(args, kwargs, result) -> float:
    """ingest_frame(path, ...): bytes of the file read."""
    return os.path.getsize(args[0]) / 1e6


# layer -> (counter name, function of (args, kwargs, result)); summed over calls
COUNTERS = {
    "designs.psu_subtotal_estimates": ("designs.psu_subtotal_estimates.mb", _mb_gathered),
    "bootstrap.multinomial_weights": ("bootstrap.multinomial_weights.mb", _mb_weights),
    "coupling.coupled_be_si": ("coupling.coupled_be_si.repaired", _repaired),
    "frame.frame_to_csv": ("frame.frame_to_csv.file_mb", _written_mb),
    "frame.ingest_frame": ("frame.ingest_frame.file_mb", _read_mb),
}


class Tracer:
    """Collects spans and counters from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        counter = COUNTERS.get(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op)
            if counter is not None:
                name, count = counter
                self.counters[name] = self.counters.get(name, 0.0) + count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace every reference to a listed function in loaded twostage modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "twostage" or name.startswith("twostage."))]
        for layer, (home, names) in LAYERS.items():
            home_mod = sys.modules.get(home)
            for fname in names:
                original = getattr(home_mod, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        estimators = sys.modules.get("twostage.estimators")
        for cls_name in ESTIMAND_CLASSES:
            cls = getattr(estimators, cls_name, None)
            original = vars(cls).get("evaluate") if cls is not None else None
            if original is not None:
                self._patched.append((cls, "evaluate", original))
                setattr(cls, "evaluate", self.wrap(EVALUATE_LAYER, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Root span of one op; every wrapped call inside it becomes a descendant."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (OP_LAYER, start, end, -1, op)

    def self_times(self) -> list[int]:
        """Self time in ns of every span: duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """Write the spans as CSV: name, start_ns, end_ns, parent, op, self_ns."""
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,self_ns\n")
            for i, ((name, start, end, parent, op), s) in enumerate(zip(self.spans, own)):
                fh.write(f"{i},{name},{start},{end},{parent},{op},{s}\n")
