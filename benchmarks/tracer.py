"""Spans around the public suslov names, for the traced benchmark run.

``Tracer.install`` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and item index.  ``uninstall``
puts the original functions back, so untraced passes run the library as
shipped.  Spans live in flat arrays in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind).  ``cli`` rows wrap what the CLI
# calls; the other rows wrap what the benchmark and ``suslov.cases`` call.
# kind: "field" wraps the returned field as cases.rhs, "packed" wraps the
# returned packed field as model.packed_rhs, "traj" counts output points,
# "csv" counts the bytes written.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "build_field", "cases.build_field", "field"),
    ("cli", "first_integrals", "cases.first_integrals", None),
    ("cli", "asymptotic_points", "cases.asymptotic_points", None),
    ("cli", "integrate", "integrate.integrate", "traj"),
    ("cli", "write_csv", "integrate.write_csv", "csv"),
    ("cli", "drift_report", "integrate.drift_report", None),
    ("cli", "detect_period", "integrate.detect_period", None),
    ("cli", "reparametrize", "integrate.reparametrize", None),
    ("cli", "divergence_fd", "model.divergence_fd", None),
    ("cli", "packed_reduced_field", "model.packed_field", "packed"),
    ("cli", "packed_suslov3d_field", "model.packed_field", "packed"),
    ("cases", "build_field", "cases.build_field", "field"),
    ("cases", "vector_field_reduced", "model.field.reduced", None),
    ("cases", "vector_field_3d", "model.field.vector3d", None),
    ("integrate", "integrate", "integrate.integrate", "traj"),
    ("integrate", "detect_period", "integrate.detect_period", None),
    ("kharlamova", "to_kharlamova", "kharlamova.to_kharlamova", None),
    ("kharlamova", "trajectory_polynomial", "kharlamova.trajectory_polynomial", None),
    ("kharlamova", "orbit_interval", "kharlamova.orbit_interval", None),
    ("kharlamova", "period", "kharlamova.period", None),
    ("clebsch", "integrals_f", "clebsch.integrals_f", None),
    ("clebsch", "torus_classify", "clebsch.torus_classify", None),
    ("clebsch", "frequencies", "clebsch.frequencies", None),
    ("clebsch", "rotation_numbers", "clebsch.rotation_numbers", None),
    ("clebsch", "energy_offset_constant", "clebsch.energy_offset_constant", None),
)

ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("H")
        self.item = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.item_index = 0
        self.pass_index = 0
        # counts recorded at boundaries: (pass, item, counter) -> total
        self.counts = {}
        self._saved = []

    def _intern(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _count(self, counter, value):
        key = (self.pass_index, self.item_index, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, span_name, fn, kind=None):
        code = self._intern(span_name)
        name, item, parent, start, end = (
            self.name, self.item, self.parent, self.start, self.end
        )
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(end)
            name.append(code)
            item.append(self.item_index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if kind is not None:
                result = self._post(kind, result, args)
            return result

        return traced

    def _post(self, kind, result, args):
        if kind == "field":
            field, constraints = result
            return self.wrap("cases.rhs", field), constraints
        if kind == "packed":
            return (self.wrap("model.packed_rhs", result[0]),) + tuple(result[1:])
        if kind == "traj":
            self._count("integrate.output_points", len(result))
        elif kind == "csv":
            self._count("integrate.csv_bytes", os.path.getsize(args[1]))
        return result

    def install(self, lib):
        for module, attr, span_name, kind in TARGETS:
            mod = getattr(lib, module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original, kind))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def run_item(self, index, fn):
        """Run one item under a root span tagged with its index."""
        self.item_index = index
        return self.wrap(ITEM_SPAN, fn)()

    def arrays(self):
        """Span table as numpy arrays plus each span's self time."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name": name,
            "item": np.frombuffer(self.item, dtype=np.uint16).astype(np.int64),
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path, item_ids):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            item_ids=np.array(item_ids),
            name=np.frombuffer(self.name, dtype=np.uint16),
            item=np.frombuffer(self.item, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
