"""In-process spans around the public names cbfcert's modules call into.

The engine looks these names up as module globals at call time, so rebinding
them on the module objects routes every call through a span without editing
the package. Spans live in compact in-memory arrays (name, start, end, parent,
trace id = rollout seed) and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "rollout", "controller", "safety", "sysmodel", "bounds")

# (module, attribute, span name) rebound by Tracer.installed() with a plain
# span; run_experiment, run_rollout, PairTable and fast_control get wrappers
# that also count.
_WRAPPED = (
    ("cli", "certificate", "bounds.certificate"),
    ("rollout", "run_group", "rollout.run_group"),
    ("rollout", "margin_scores", "rollout.margin_scores"),
    ("rollout", "noise_array", "sysmodel.noise_array"),
    ("rollout", "sample_initial_state", "sysmodel.sample_initial_state"),
)


class Tracer:
    """Span recorder plus the counters read at the controller boundary."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace_id = array("q")
        self._stack: list[int] = []
        self._trace = -1
        self.qp_active_spans = array("q")
        self.relaxed_count = 0
        self.relaxed_slack_max = 0.0
        self.solver_errors = 0
        self.work_units = 0

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace_id.append(self._trace)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            index = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_run_rollout(self, fn):
        nid = self._id("rollout.run_rollout")

        def run_rollout(config, seed, *args, **kwargs):
            outer = self._trace
            self._trace = seed
            index = self.open(nid)
            try:
                return fn(config, seed, *args, **kwargs)
            finally:
                self.close(index)
                self._trace = outer

        return run_rollout

    def _wrap_run_experiment(self, fn):
        traced = self.wrap("rollout.run_experiment", fn)

        def run_experiment(config, *args, **kwargs):
            self.work_units += config.groups
            return traced(config, *args, **kwargs)

        return run_experiment

    def _wrap_fast_control(self, fn, solver_error, status_optimal):
        nid = self._id("controller.fast_control")

        def fast_control(*args, **kwargs):
            index = self.open(nid)
            try:
                u, status, slack = fn(*args, **kwargs)
            except solver_error:
                self.solver_errors += 1
                raise
            finally:
                self.close(index)
            if u.any():
                self.qp_active_spans.append(index)
            if status != status_optimal:
                self.relaxed_count += 1
                self.relaxed_slack_max = max(self.relaxed_slack_max, float(slack))
            return u, status, slack

        return fast_control

    def _traced_pair_table(self, base):
        init_id = self._id("safety.PairTable")
        margins_id = self._id("safety.weighted_margins")
        tracer = self

        class PairTable(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                index = tracer.open(init_id)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(index)

            def weighted_margins(self, u, psi):
                index = tracer.open(margins_id)
                try:
                    return super().weighted_margins(u, psi)
                finally:
                    tracer.close(index)

        return PairTable

    @contextlib.contextmanager
    def installed(self, cli, rollout, controller, errors):
        """Rebind the traced names on the given modules; restore them on exit."""
        modules = {"cli": cli, "rollout": rollout}
        replacements = [
            (modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))
            for mod, attr, name in _WRAPPED
        ]
        replacements += [
            (cli, "run_experiment", self._wrap_run_experiment(cli.run_experiment)),
            (rollout, "run_rollout", self._wrap_run_rollout(rollout.run_rollout)),
            (rollout, "PairTable", self._traced_pair_table(rollout.PairTable)),
            (
                rollout,
                "fast_control",
                self._wrap_fast_control(
                    rollout.fast_control, errors.SolverError, controller.STATUS_OPTIMAL
                ),
            ),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
        try:
            for module, attr, fn in replacements:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (the recorder can keep appending)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trace_id": np.frombuffer(self.trace_id, dtype=np.int64).copy(),
        }

    def dump(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-name and per-layer figures computed from the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root span.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        name_of = np.array(self.names, dtype=str)[a["name_id"]]

        def pick(name):
            return name_of == name

        def count(name):
            return int(np.count_nonzero(pick(name)))

        def total(name):
            return float(dur[pick(name)].sum())

        def self_total(name):
            return float(self_time[pick(name)].sum())

        def pct(mask, q, scale):
            sel = dur[mask]
            return float(np.percentile(sel, q)) * scale if sel.size else 0.0

        steps = count("sysmodel.noise_array")
        rollouts = count("rollout.run_rollout")
        fc_calls = count("controller.fast_control")
        active = np.zeros(dur.size, dtype=bool)
        active[np.array(self.qp_active_spans, dtype=np.int64)] = True
        out = {
            "rollout.self_us_per_step": self_total("rollout.run_rollout") / max(steps, 1) * 1e6,
            "rollout.run_rollout.count": rollouts,
            "rollout.run_rollout.p50_ms": pct(pick("rollout.run_rollout"), 50, 1e3),
            "rollout.run_rollout.p99_ms": pct(pick("rollout.run_rollout"), 99, 1e3),
            "rollout.run_group.max_s": float(dur[pick("rollout.run_group")].max(initial=0.0)),
            "rollout.run_experiment.work_units": self.work_units,
            "rollout.spawn_accept_ratio": rollouts / max(count("sysmodel.sample_initial_state"), 1),
            "rollout.margin_scores.total_ms": total("rollout.margin_scores") * 1e3,
            "controller.fast_control.count": fc_calls,
            "controller.fast_control.self_s": self_total("controller.fast_control"),
            "controller.fast_control.p50_us": pct(pick("controller.fast_control"), 50, 1e6),
            "controller.fast_control.p99_us": pct(pick("controller.fast_control"), 99, 1e6),
            "controller.qp_active_ratio": int(active.sum()) / max(fc_calls, 1),
            "controller.qp_active.p50_us": pct(active, 50, 1e6),
            "controller.qp_active.p99_us": pct(active, 99, 1e6),
            "controller.relaxed_count": self.relaxed_count,
            "controller.relaxed_slack_max": self.relaxed_slack_max,
            "controller.solver_errors": self.solver_errors,
            "safety.PairTable.count": count("safety.PairTable"),
            "safety.PairTable.total_s": total("safety.PairTable"),
            "safety.PairTable.p50_us": pct(pick("safety.PairTable"), 50, 1e6),
            "safety.weighted_margins.total_s": total("safety.weighted_margins"),
            "sysmodel.noise_array.count": steps,
            "sysmodel.noise_array.total_s": total("sysmodel.noise_array"),
            "sysmodel.noise_array.p50_us": pct(pick("sysmodel.noise_array"), 50, 1e6),
            "sysmodel.sample_initial_state.count": count("sysmodel.sample_initial_state"),
            "sysmodel.sample_initial_state.total_s": total("sysmodel.sample_initial_state"),
            "sysmodel.sample_initial_state.p99_ms": pct(pick("sysmodel.sample_initial_state"), 99, 1e3),
            "bounds.certificate.total_ms": total("bounds.certificate") * 1e3,
        }
        layer_of = np.array([n.split(".", 1)[0] for n in self.names], dtype=str)[a["name_id"]]
        covered = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[layer_of == layer].sum())
            covered += out[f"{layer}.self_s"]
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - covered
        out["trace.spans"] = int(dur.size)
        return out
