"""Spans and counts around the calls into fockbox's public functions.

Each traced function is wrapped where it is looked up: ``fockbox.scenarios``
and ``fockbox.neqso`` bind names at import, so the wrapper replaces every
module-level binding of the function in the fockbox modules (and in the
benchmark's workload module), and a class is traced through its
``__init__``.  ``numpy.linalg.eigh`` and ``eigvalsh`` are counted, with the
cubes of their sizes.  Wrappers are installed only for the traced rounds and
record only while an operation runs, so the checks are never counted.

A span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions whose self time is reported as <module>.<name>_s
SPANNED = {
    "neqso": ("zeta_dynamics", "decay_time", "entropy_monitor", "macrostate_of"),
    "maxent": ("gibbs_state", "expectations", "kubo_gram", "match_expectations",
               "gauge_projector"),
    "fock": ("annihilation", "field_operator"),
    "lattice": ("build_hamiltonian", "current_ops"),
    "subdynamics": ("embedding_residual", "surface_term", "reduced_path"),
    "events": ("build_event_mixture", "shielded_expectation", "memory_witness"),
    "propagate": ("propagator", "evolve_state", "hermitian_eig"),
    "scenarios": ("write_csv", "write_summary"),
    "config": ("build_model",),
}
# module -> classes traced through __init__
CONSTRUCTORS = {"fock": ("FieldOperator",), "propagate": ("Dresser",)}
# spans whose call count is reported as <name>_calls
COUNTED = (
    "maxent.gibbs_state", "maxent.expectations", "maxent.kubo_gram",
    "maxent.match_expectations", "maxent.gauge_projector",
    "propagate.propagator", "propagate.evolve_state", "propagate.hermitian_eig",
    "fock.FieldOperator", "propagate.Dresser",
)
NOT_TIMED = ("propagate.Dresser",)
EIGH = ("eigh", "eigvalsh")


def layer_metrics():
    """(name, unit) of every per-layer metric the tracer yields."""
    out = []
    for module, names in list(SPANNED.items()) + list(CONSTRUCTORS.items()):
        for name in names:
            key = f"{module}.{name}"
            if key not in NOT_TIMED:
                out.append((f"{key}_s", "s"))
            if key in COUNTED:
                out.append((f"{key}_calls", "count"))
    out += [("linalg.eigh_calls", "count"), ("linalg.eigh_flops", "n3")]
    return out


class Tracer:
    """In-memory span recorder; ``install`` and ``uninstall`` patch fockbox."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent index]
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.eigh_n3 = 0
        self.recording = False
        self._stack = []      # [span index, child ns]
        self._undo = []

    # ---- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._stack.append([len(self.spans) - 1, 0])

    def _exit(self):
        index, child_ns = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        duration = span[2] - span[1]
        self.self_ns[span[0]] += duration - child_ns
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def op(self, name, call):
        """Run one operation as the root span and return its result."""
        self.recording = True
        self._enter(f"op:{name}")
        try:
            return call()
        finally:
            self._exit()
            self.recording = False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def _count_eigh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if tracer.recording:
                shape = np.shape(a)
                tracer.calls["linalg.eigh"] += 1
                tracer.eigh_n3 += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    # ---- patching ------------------------------------------------------------

    def install(self, extra_modules=()):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fockbox" or n.startswith("fockbox.")) and m is not None]
        modules += list(extra_modules)
        for short, names in SPANNED.items():
            source = sys.modules[f"fockbox.{short}"]
            for name in names:
                original = getattr(source, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for short, names in CONSTRUCTORS.items():
            for name in names:
                cls = getattr(sys.modules[f"fockbox.{short}"], name)
                self._patch(cls, "__init__", self._wrap(f"{short}.{name}", cls.__init__))
        for name in EIGH:
            self._patch(np.linalg, name, self._count_eigh(getattr(np.linalg, name)))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- results -------------------------------------------------------------

    def layer_values(self, rounds):
        """Per-layer metrics per traced round."""
        values = {}
        for metric, unit in layer_metrics():
            key = metric.rsplit("_", 1)[0]
            if metric == "linalg.eigh_flops":
                total = self.eigh_n3
            elif metric.endswith("_calls"):
                total = self.calls.get(key, 0)
            else:
                total = self.self_ns.get(key, 0) * 1e-9
            values[metric] = (total / rounds, unit)
        return values

    def write(self, path, meta):
        doc = dict(meta)
        doc["spans"] = self.spans
        doc["calls"] = dict(self.calls)
        doc["self_s"] = {k: v * 1e-9 for k, v in self.self_ns.items()}
        doc["eigh_n3"] = self.eigh_n3
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
