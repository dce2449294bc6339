"""Timing spans kept in memory, recorded around functions of the program.

A span is (name, start, end, parent). The benchmark opens the top-level
spans ("setup", "warmup", "op"); every other span comes from a
wrapper put around a function of the program by replacing the attribute
through which the program calls it. Self time is a span's duration minus
the durations of its direct children. Spans are written out at the end of
the run, never during it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# Functions whose calls and self time are reported per timed operation, as
# <name>.calls_per_op and <name>.self_ms_per_op, named "<module>.<attribute path>".
OP_FUNCTIONS = (
    "pipeline.AdamW.step",
    "tensor.named_gradients",
    "fusion.multi_head_attention",
    "fusion.agf_forward",
    "fusion.tem_forward",
    "fusion.fem_forward",
    "backbone.encoder_forward",
    "pipeline.seg_forward",
    "pipeline.cross_entropy",
    "augment.cma_apply",
    "pipeline.ConfusionMatrix.update",
    "gradcheck.check_fem",
    "gradcheck.check_tem",
    "gradcheck.check_agf",
    "gradcheck.check_head",
    "gradcheck.check_end_to_end",
    "pipeline.build_model",  # called inside verify's operations
)
# Functions whose calls and self time are reported per set-up, as
# <name>.calls_per_setup and <name>.self_ms_per_setup.
SETUP_FUNCTIONS = (
    "io_formats.read_pnm_file",
    "io_formats.read_pgm_labels",
    "io_formats.load_checkpoint",
    "pipeline.build_model",
    "pipeline.make_dataset",
)
WRAPPED = tuple(dict.fromkeys(OP_FUNCTIONS + SETUP_FUNCTIONS))
# Tape node kinds counted on one forward pass.
TAPE_OPS = ("leaf", "narrow", "matmul", "transpose", "softmax_rows", "concat")


def per_layer_units() -> dict:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in OP_FUNCTIONS:
        units[f"{name}.calls_per_op"] = "calls/op"
        units[f"{name}.self_ms_per_op"] = "ms/op"
    for name in SETUP_FUNCTIONS:
        units[f"{name}.calls_per_setup"] = "calls/setup"
        units[f"{name}.self_ms_per_setup"] = "ms/setup"
    units["tensor.nodes_per_forward"] = "count"
    for op in TAPE_OPS:
        units[f"tensor.nodes.{op}"] = "count"
    units["pipeline.predict.peak_alloc_mb"] = "MB"
    units["params.tensors"] = "count"
    units["params.values"] = "count"
    return units


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.traced_name = name
        return traced

    def install(self, package: str = "ivgf") -> None:
        """Wrap every traced function wherever a module of `package` binds it.

        A module that did `from .tensor import named_gradients` holds its own
        reference, so each loaded module attribute that is the original
        function object is replaced, not only the defining one.
        """
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name in WRAPPED:
            module_name, *path = name.split(".")
            owner = sys.modules[f"{package}.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            if hasattr(original, "traced_name"):
                raise RuntimeError(f"{name} is already wrapped as {original.traced_name}")
            wrapper = self._wrap(name, original)
            self._replace(owner, path[-1], wrapper)
            if len(path) == 1:
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def nesting_faults(self) -> list[str]:
        """Spans that end before they start, leave their parent or overlap a sibling.

        Self times add up to no more than the time of the top-level span
        only where every span nests; this checks that from the timestamps.
        """
        faults = []
        last_end: dict = {}  # parent index -> end of its latest child; children come in start order
        for i, p in enumerate(self.parents):
            start, end = self.starts[i], self.ends[i]
            if end < start:
                faults.append(f"span {i} ({self.names[i]}) ends before it starts")
            if p >= 0 and not self.starts[p] <= start <= end <= self.ends[p]:
                faults.append(f"span {i} ({self.names[i]}) leaves its parent {p} ({self.names[p]})")
            if start < last_end.get(p, start):
                faults.append(f"span {i} ({self.names[i]}) overlaps an earlier sibling")
            last_end[p] = end
        return faults

    def summary(self, root: str) -> tuple[dict, dict]:
        """Calls and self seconds per span name under top-level spans `root`."""
        n = len(self.names)
        child_s = [0.0] * n
        top = [0] * n
        for i in range(n):
            p = self.parents[i]
            top[i] = i if p < 0 else top[p]
            if p >= 0:
                child_s[p] += self.ends[i] - self.starts[i]
        calls: dict = {}
        self_s: dict = {}
        for i in range(n):
            if self.names[top[i]] != root:
                continue
            name = self.names[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child_s[i]
        return calls, self_s

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0,
                    "parent": self.parents[i],
                }) + "\n")
