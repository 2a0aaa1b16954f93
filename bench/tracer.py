"""Outside-in tracing of xsep's public functions.

`Tracer.installed()` replaces every binding of each traced function with a
wrapper that records one span per call: the module attribute, every
``from ... import`` alias in other xsep modules (``criteria.partial_transpose``,
``cli.fmt``) and re-exports in ``xsep`` itself. ``__post_init__`` of the X
dataclasses is wrapped on the class. Leaving the context puts every binding
back. Spans stay in memory, in flat arrays, until `save` writes them out.

A span has a layer, a parent span (-1 for a call made by the benchmark), the
operation it belongs to, start and end in nanoseconds and a size: the matrix
order for the eigensolver and determinant, the text length for the matrix
file codec. A layer's self time is its spans' time minus the part covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _order(args, result) -> int:
    return len(args[0])


def _text_in(args, result) -> int:
    return len(args[0])


def _text_out(args, result) -> int:
    return len(result)


# layer -> (module, attribute) targets; "Class.method" wraps on the class.
LAYERS = {
    "linalg.hermitian_eigenvalues": [("xsep.linalg", "hermitian_eigenvalues")],
    "linalg.det": [("xsep.linalg", "det")],
    "linalg.mul": [("xsep.linalg", "mul")],
    "linalg.checks": [
        ("xsep.linalg", name)
        for name in ("as_matrix", "hermiticity_defect", "frobenius_norm", "trace")
    ],
    "bipartite.partial_transpose": [("xsep.bipartite", "partial_transpose")],
    "xstate.XMatrix": [("xsep.xstate", "XMatrix.__post_init__")],
    "xstate.XParams": [("xsep.xstate", "XParams.__post_init__")],
    "xstate.x_eigenvalues": [("xsep.xstate", "x_eigenvalues")],
    "xstate.concurrence": [("xsep.xstate", "concurrence")],
    "xstate.build_factors": [("xsep.xstate", "build_factors")],
    "criteria.factor_report": [("xsep.criteria", "factor_report")],
    "criteria.ppt_verdict": [("xsep.criteria", "ppt_verdict")],
    "criteria.pt_gap": [("xsep.criteria", "pt_gap")],
    "criteria.theorem2_check": [("xsep.criteria", "theorem2_check")],
    "criteria.corollary1_check": [("xsep.criteria", "corollary1_check")],
    "matfile.format_float": [("xsep.matfile", "format_float")],
    "matfile.decode": [("xsep.matfile", "decode")],
    "matfile.encode": [("xsep.matfile", "encode")],
    "cli.main": [("xsep.cli", "main")],
}
SIZE_OF = {
    "linalg.hermitian_eigenvalues": _order,
    "linalg.det": _order,
    "matfile.decode": _text_in,
    "matfile.encode": _text_out,
}
SIZED_ORDERS = (4, 9, 16)

# Reported per-layer metrics: (layer, statistics). Each statistic is per
# traced operation, except nK_us, the mean self time of one call on an
# order-K matrix (0 when there was no such call).
REPORTED = (
    ("linalg.hermitian_eigenvalues", ("calls", "self_s", "n4_us", "n9_us", "n16_us")),
    ("linalg.det", ("calls", "self_s", "n4_us", "n9_us", "n16_us")),
    ("linalg.mul", ("calls", "self_s")),
    ("linalg.checks", ("self_s",)),
    ("bipartite.partial_transpose", ("calls", "self_s")),
    ("xstate.XMatrix", ("calls", "self_s")),
    ("xstate.x_eigenvalues", ("calls", "self_s")),
    ("xstate.concurrence", ("calls", "self_s")),
    ("xstate.build_factors", ("self_s",)),
    ("xstate.XParams", ("self_s",)),
    ("criteria.factor_report", ("self_s",)),
    ("criteria.ppt_verdict", ("self_s",)),
    ("criteria.pt_gap", ("self_s",)),
    ("criteria.theorem2_check", ("self_s",)),
    ("criteria.corollary1_check", ("self_s",)),
    ("matfile.format_float", ("calls", "self_s")),
    ("matfile.decode", ("self_s", "bytes")),
    ("matfile.encode", ("self_s", "bytes")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "calls/op", "self_s": "s/op", "bytes": "B/op"}
UNITS.update({f"n{k}_us": "us/call" for k in SIZED_ORDERS})


def _xsep_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "xsep" or name.startswith("xsep."))
    ]


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._size = array("q")
        self._state = [-1, -1]  # current span, current operation
        self._restore: list[tuple[object, str, object]] = []

    @property
    def span_count(self) -> int:
        return len(self._start)

    @property
    def ops(self) -> int:
        return self._state[1] + 1

    def begin_op(self) -> None:
        """Start a new operation; spans recorded until the next call belong to it."""
        self._state[1] += 1

    def _wrap(self, fn, layer_id: int, size_of):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, sizes = self._start, self._end, self._size
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            parent = state[0]
            names.append(layer_id)
            parents.append(parent)
            ops.append(state[1])
            sizes.append(0)
            ends.append(0)
            state[0] = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                state[0] = parent
            if size_of is not None:
                sizes[i] = size_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _xsep_modules()
        for layer_id, layer in enumerate(self.layers):
            for module_name, attr in LAYERS[layer]:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[method]
                    self._bind(cls, method, self._wrap(fn, layer_id, SIZE_OF.get(layer)))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(fn, layer_id, SIZE_OF.get(layer))
                for mod in modules:
                    for name in [k for k, v in vars(mod).items() if v is fn]:
                        self._bind(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _columns(self):
        name = np.array(self._name, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        dur = np.array(self._end, dtype=np.int64) - np.array(self._start, dtype=np.int64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        size = np.array(self._size, dtype=np.int64)
        return name, dur - child, size

    def counts(self) -> dict[str, int]:
        """Total calls recorded per layer."""
        name, _, _ = self._columns()
        calls = np.bincount(name, minlength=len(self.layers))
        return {layer: int(calls[i]) for i, layer in enumerate(self.layers)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The REPORTED per-layer statistics over every traced operation."""
        name, self_ns, size = self._columns()
        n_layers = len(self.layers)
        calls = np.bincount(name, minlength=n_layers)
        self_s = np.bincount(name, weights=self_ns, minlength=n_layers) / 1e9
        nbytes = np.bincount(name, weights=size, minlength=n_layers)
        ops = max(self.ops, 1)
        out = {}
        for layer, stats in REPORTED:
            i = self.layers.index(layer)
            for stat in stats:
                if stat == "calls":
                    value = calls[i] / ops
                elif stat == "self_s":
                    value = self_s[i] / ops
                elif stat == "bytes":
                    value = nbytes[i] / ops
                else:
                    sel = (name == i) & (size == int(stat[1:-3]))
                    value = float(self_ns[sel].mean()) / 1e3 if sel.any() else 0.0
                out[f"{layer}.{stat}"] = (float(value), UNITS[stat])
        return out

    def save(self, path: Path) -> None:
        """Write every span (and the layer names) to an .npz file."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
            size=np.frombuffer(self._size, dtype=np.int64),
        )
