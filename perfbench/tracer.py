"""Traced runs: wrap each layer's public entry points from outside the program.

L1/L2 calls (linalg and the domain kernels) get a span (name, start, end,
parent) that is kept in memory.  Scalar operations (L0) get only a call
count and summed busy time, because a pass makes hundreds of thousands of
them.  ``install`` patches every binding of an entry point that the program
calls: the module attribute, the same function imported by name into other
modules (``rt_torus`` imports ``t_power`` and ``qint``), and class-level
aliases such as ``CycScalar.__rmul__``.  ``restore`` puts the originals back.
An untraced pass never creates a Tracer, so it patches nothing.
"""
from __future__ import annotations

import contextlib
import sys
import time

# metric prefix -> "module:Class.attr" or "module:attr"
SCALAR_ENTRIES = {
    "scalar.mul": "thetaforge.scalar:CycScalar.__mul__",
    "scalar.add": "thetaforge.scalar:CycScalar.__add__",
    "scalar.inverse": "thetaforge.scalar:CycScalar.inverse",
    "scalar.t_power": "thetaforge.scalar:t_power",
    "scalar.qint": "thetaforge.scalar:qint",
}
SPAN_ENTRIES = {
    "linalg.mat_mul": "thetaforge.linalg:mat_mul",
    "linalg.rowspan_add": "thetaforge.linalg:RowSpan.add",
    "linalg.rowspan_solve": "thetaforge.linalg:RowSpan.solve",
    "rt_torus.rho_word_exact": "thetaforge.rt_torus:rho_word_exact",
    "rt_torus.rho_kac_peterson": "thetaforge.rt_torus:rho_kac_peterson",
    "rt_torus.skein_from_matrix": "thetaforge.rt_torus:skein_from_matrix",
    "rt_torus.rt_rep_matrix": "thetaforge.rt_torus:rt_rep_matrix",
    "heisenberg.fourier_word_exact": "thetaforge.heisenberg:fourier_word_exact",
    "heisenberg.fourier_abelian": "thetaforge.heisenberg:fourier_abelian",
    "heisenberg.heis_reduce": "thetaforge.heisenberg:heis_reduce",
    "pillowcase.equivalence_check": "thetaforge.pillowcase:equivalence_check",
    "pillowcase.svn_irreducibility": "thetaforge.pillowcase:svn_irreducibility",
    "pillowcase.weyl_cos_matrix": "thetaforge.pillowcase:weyl_cos_matrix",
    "quantum_group.admissible_colorings": "thetaforge.quantum_group:admissible_colorings",
}


def _resolve(spec):
    """(owner, attr, original) for an entry spec; owner is a module or class."""
    module_name, path = spec.split(":")
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, original


def _bindings(owner, original, modules):
    """Every (namespace owner, attr) bound to ``original`` that the program can call."""
    if isinstance(owner, type):
        return [(owner, a) for a, v in list(vars(owner).items()) if v is original]
    return [(m, a) for m in modules for a, v in list(vars(m).items()) if v is original]


def self_times(spans):
    """{span name: (calls, summed self time)} of [name, start, end, parent] spans.

    A span's self time is its duration minus the durations of its children.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child[i])
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.scalar = {name: [0, 0.0] for name in SCALAR_ENTRIES}
        self.rowspan_useful = 0
        self.colorings_enumerated = 0
        self._patched = []  # (owner, attr, original)

    # -- patching ------------------------------------------------------------

    def install(self, extra_modules=()):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "thetaforge"]
        modules += list(extra_modules)
        for name, spec in SCALAR_ENTRIES.items():
            owner, _, original = _resolve(spec)
            self._patch(owner, original, self._scalar_wrapper(self.scalar[name], original), modules)
        for name, spec in SPAN_ENTRIES.items():
            owner, _, original = _resolve(spec)
            self._patch(owner, original, self._span_wrapper(name, original), modules)

    def _patch(self, owner, original, wrapper, modules):
        for target, attr in _bindings(owner, original, modules):
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapper)

    def restore(self):
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- wrappers ------------------------------------------------------------

    @staticmethod
    def _scalar_wrapper(stat, fn):
        clock = time.perf_counter

        def wrapped(*args):
            start = clock()
            result = fn(*args)
            stat[1] += clock() - start
            stat[0] += 1
            return result

        return wrapped

    def _span_wrapper(self, name, fn):
        span = self.span
        on_result = {
            "linalg.rowspan_add": self._count_useful,
            "quantum_group.admissible_colorings": self._count_colorings,
        }.get(name)

        def wrapped(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def _count_useful(self, grew):
        self.rowspan_useful += bool(grew)

    def _count_colorings(self, result):
        self.colorings_enumerated += len(result[1])

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; nested spans name it as their parent."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        idx = len(spans)
        spans.append([name, clock(), None, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = clock()

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric values of this pass, by metric name."""
        metrics = {}
        for name, (calls, busy) in self.scalar.items():
            metrics[name + "_calls"] = calls
            metrics[name + "_s"] = busy
        spans = self_times(self.spans)
        for name in SPAN_ENTRIES:
            calls, self_s = spans.get(name, (0, 0.0))
            metrics[name + "_calls"] = calls
            metrics[name + "_s"] = self_s
        adds = metrics["linalg.rowspan_add_calls"]
        metrics["linalg.rowspan_useful_ratio"] = self.rowspan_useful / adds if adds else 0.0
        metrics["quantum_group.colorings_enumerated"] = self.colorings_enumerated
        return metrics
