"""Per-layer spans timed from outside the package.

:class:`Tracer` wraps the public functions of each layer (see
:data:`TARGETS`) while a traced call runs, and restores the originals
afterwards.  Each wrapper records a span: calls, optionally rows, and self
time, which is the span's duration minus that of the wrapped spans it
encloses.  The root span is the ``api.run`` call; what no wrapped span
covers is ``run.unattributed_s``.  Kernel dispatches are not wrapped: the
package already counts them per op (``kernels.counters_snapshot()``).

Wrappers draw no random numbers and change no arguments, so a traced call
computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import kernels
from repro.kernels.common import OP_NAMES


def _rows_of_indices(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[int, int]:
    """``step_many(self, actions, indices)``: active rows out of the batch."""
    indices = kwargs["indices"] if "indices" in kwargs else args[2]
    return len(indices), args[0].n_replicas


def _rows_of_input(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[int, int]:
    """``BatchedQuantizedExecutor.forward(self, x, ...)``: rows of ``x``."""
    x = kwargs["x"] if "x" in kwargs else args[1]
    return len(x), args[0].n_replicas


RowsFn = Callable[[Tuple[Any, ...], Dict[str, Any]], Tuple[int, int]]

#: (module, qualified name, rows function).  A ``Class.method`` target is
#: wrapped on the class and on every subclass that overrides it.
TARGETS: Tuple[Tuple[str, str, Optional[RowsFn]], ...] = (
    ("repro.rl.tabular", "TabularQAgent.select_action", None),
    ("repro.rl.tabular", "TabularQAgent.observe", None),
    ("repro.rl.trainer", "train_agent", None),
    ("repro.envs.gridworld", "GridWorld.step", None),
    ("repro.envs.gridworld", "GridWorldBatch.step_many", _rows_of_indices),
    ("repro.quant.qformat", "QFormat.encode", None),
    ("repro.quant.qformat", "QFormat.decode", None),
    ("repro.quant.qformat", "QFormat.quantize", None),
    ("repro.core.injector", "FaultInjector.sample", None),
    ("repro.core.injector", "FaultInjector.reapply", None),
    ("repro.core.injector", "ReplicaFanoutHook.__call__", None),
    ("repro.core.fault_models", "FaultModel.inject", None),
    ("repro.core.sites", "apply_patterns_stacked", None),
    ("repro.quant.bitops", "random_bit_positions", None),
    ("repro.nn.buffers", "BatchedQuantizedExecutor.forward", _rows_of_input),
    ("repro.rl.evaluation", "greedy_rollouts", None),
    ("repro.rl.dqn", "DQNAgent.observe", None),
    ("repro.nn.network", "Sequential.backward", None),
    ("repro.nn.optim", "Optimizer.step", None),
    ("repro.envs.drone.batch", "DroneNavEnvBatch.step_many", _rows_of_indices),
    ("repro.envs.drone.world", "CorridorWorld.ray_distances", None),
    ("repro.envs.drone.camera", "DepthCamera.render_batch", None),
    ("repro.experiments.common", "train_tabular", None),
    ("repro.experiments.common", "train_grid_nn", None),
    ("repro.experiments.common", "build_drone_bundle", None),
)

#: Spans whose rows feed ``batch.replica_occupancy``.
STEP_MANY_SPANS = (
    "envs.gridworld.GridWorldBatch.step_many",
    "envs.drone.batch.DroneNavEnvBatch.step_many",
)


def span_name(module: str, qualname: str) -> str:
    return f"{module[len('repro.'):]}.{qualname}"


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced invocation reports, with its unit."""
    units: Dict[str, str] = {}
    for module, qualname, rows in TARGETS:
        name = span_name(module, qualname)
        units[f"{name}.calls"] = "count"
        if rows is not None:
            units[f"{name}.rows"] = "count"
        units[f"{name}.self_s"] = "s"
    for op in OP_NAMES:
        units[f"kernels.{op}.calls"] = "count"
    units["batch.replica_occupancy"] = "ratio"
    units["run.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


@dataclass
class Span:
    calls: int = 0
    rows: int = 0
    slots: int = 0
    self_s: float = 0.0


@dataclass
class TracedCall:
    """Per-layer record of one traced call."""

    spans: Dict[str, Span]
    kernel_calls: Dict[str, int]
    unattributed_s: float

    def counts(self) -> Dict[str, int]:
        """Every count, which must repeat exactly for the same call."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.rows"] = span.rows
        out.update({f"kernels.{op}.calls": n for op, n in self.kernel_calls.items()})
        return out


class Tracer:
    """Installs span wrappers for the duration of :meth:`trace`."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self._spans: Dict[str, Span] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def trace(self, fn: Callable[[], Any]) -> Tuple[Any, TracedCall]:
        """Run ``fn`` as the root span with every target wrapped."""
        self._spans = {span_name(m, q): Span() for m, q, _ in TARGETS}
        kernels_before = kernels.counters_snapshot()
        try:
            self._install()
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn()
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
        finally:
            self._uninstall()
        kernels_after = kernels.counters_snapshot()
        kernel_calls = {
            op: kernels_after.get(op, 0) - kernels_before.get(op, 0) for op in OP_NAMES
        }
        return result, TracedCall(self._spans, kernel_calls, elapsed - children)

    def _wrap(self, name: str, fn: Callable, rows: Optional[RowsFn]) -> Callable:
        stack = self._stack
        span = self._spans[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.self_s += elapsed - stack.pop()
                span.calls += 1
                if rows is not None:
                    active, width = rows(args, kwargs)
                    span.rows += active
                    span.slots += width
                if stack:
                    stack[-1] += elapsed

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        for module_name, qualname, rows in TARGETS:
            name = span_name(module_name, qualname)
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                for cls in _with_subclasses(getattr(module, class_name)):
                    original = cls.__dict__.get(attr)
                    if original is not None:
                        if not callable(original):
                            raise TypeError(f"{cls.__qualname__}.{attr} is not a plain method")
                        self._patch(cls, attr, self._wrap(name, original, rows))
                continue
            # A module-level function: patch it where it is defined and in
            # every module that bound it with ``from x import f``, since
            # callers look the name up in their own module.
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, rows)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(qualname) is original
                ):
                    self._patch(loaded, qualname, wrapper)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


def per_layer_metrics(
    traced: List[TracedCall], traced_cpu_s: float, untraced_cpu_s: float
) -> Dict[str, float]:
    """Fold the traced calls of one invocation into the per-layer metrics.

    Counts come from the first traced call (the caller checks they repeat);
    times are medians over the traced calls.
    """
    first = traced[0]
    metrics: Dict[str, float] = {}
    for module, qualname, rows in TARGETS:
        name = span_name(module, qualname)
        metrics[f"{name}.calls"] = first.spans[name].calls
        if rows is not None:
            metrics[f"{name}.rows"] = first.spans[name].rows
        metrics[f"{name}.self_s"] = median(call.spans[name].self_s for call in traced)
    for op in OP_NAMES:
        metrics[f"kernels.{op}.calls"] = first.kernel_calls[op]
    rows_stepped = sum(first.spans[name].rows for name in STEP_MANY_SPANS)
    slots = sum(first.spans[name].slots for name in STEP_MANY_SPANS)
    metrics["batch.replica_occupancy"] = rows_stepped / slots if slots else 0.0
    metrics["run.unattributed_s"] = median(call.unattributed_s for call in traced)
    metrics["trace.overhead_frac"] = traced_cpu_s / untraced_cpu_s - 1.0
    return metrics
