"""Outside-in span recorder for the traced benchmark run.

The tracer replaces the public functions of qlan's modules with timing
wrappers by setting module attributes.  qlan calls its layers through module
globals (``ch.prepare_blocks``, ``sw.block_basis``, ``pairing_matrix`` inside
``gram_matrix``), so the wrappers see every nested call without any change to
qlan itself.  ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped the same way,
as counters charged to the innermost open span.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

import numpy as np

# (module, attribute) pairs the traced run wraps.  A name that a later
# version of qlan deletes or moves is reported as absent, never an error.
TRACED = (
    ("tableaux", "enumerate_diagrams"),
    ("tableaux", "enumerate_m_vectors"),
    ("schur_weyl", "pairing_matrix"),
    ("schur_weyl", "gram_matrix"),
    ("schur_weyl", "orthonormalize"),
    ("schur_weyl", "block_basis"),
    ("schur_weyl", "mixed_overlap_matrix"),
    ("schur_weyl", "block_unitary"),
    ("models", "weight_prefactor"),
    ("models", "schur_poly"),
    ("models", "block_weight"),
    ("models", "block_state"),
    ("gaussian", "limit_state"),
    ("channels", "typical_diagrams"),
    ("channels", "build_isometry"),
    ("channels", "prepare_blocks"),
    ("channels", "forward_channel"),
    ("channels", "gaussian_box_mass"),
    ("channels", "reverse_channel"),
    ("metrics", "trace_distance"),
    ("metrics", "classical_l1"),
    ("metrics", "cq_distance"),
    ("metrics", "sn_distance"),
    # private: gives each n of a converge sweep its own span (traced run only)
    ("experiments", "_converge_point"),
    ("experiments", "run_converge"),
    ("experiments", "run_decompose"),
)

# numpy.linalg functions counted, not timed
COUNTED = ("eigh", "eigvalsh")

ROOTS = ("experiments.run_converge", "experiments.run_decompose")
# spans under which block preparation happens, per workload kind
PREP = ("channels.prepare_blocks", "experiments.run_decompose")

# Where each span finds its n: the first of these parameters the function
# has.  Spans of functions with none of them inherit their parent's n.
_N_SOURCES = {
    "n": lambda v: int(v),
    "lam": lambda v: sum(v),
    "basis": lambda v: sum(v.lam),
    "out": lambda v: v.n,
    "config": lambda v: v.n_list[0] if len(v.n_list) == 1 else None,
}


def _arg_getter(fn, name):
    """Fetch the argument bound to parameter ``name`` of ``fn``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs.get(name)

    return get


def _n_getter(fn):
    for pname, convert in _N_SOURCES.items():
        get = _arg_getter(fn, pname)
        if get is None:
            continue

        def n_of(args, kwargs, get=get, convert=convert):
            try:
                value = get(args, kwargs)
                return None if value is None else convert(value)
            except (AttributeError, TypeError, ValueError, IndexError):
                return None

        return n_of
    return lambda args, kwargs: None


def _is_identity(U) -> bool:
    U = np.asarray(U)
    return U.ndim == 2 and U.shape[0] == U.shape[1] and np.array_equal(U, np.eye(len(U)))


def _hooks(fn_by_name):
    """Per-function work counts taken from arguments and results."""
    hooks = {
        "tableaux.enumerate_m_vectors": lambda a, k, r: {"mvectors": len(r)},
        "schur_weyl.block_basis": lambda a, k, r: {"basis_states": r.size},
        "channels.prepare_blocks": lambda a, k, r: {"blocks": len(r)},
    }
    fn = fn_by_name.get("schur_weyl.pairing_matrix")
    get_u = _arg_getter(fn, "U") if fn else None
    if get_u:
        hooks["schur_weyl.pairing_matrix"] = lambda a, k, r: {
            "entries": int(np.asarray(r).size),
            "identity": int(_is_identity(get_u(a, k))),
        }
    fn = fn_by_name.get("metrics.cq_distance")
    get_out = _arg_getter(fn, "out") if fn else None
    if get_out:
        hooks["metrics.cq_distance"] = lambda a, k, r: {"cells": len(get_out(a, k).cells)}
    return hooks


class Span:
    __slots__ = ("id", "name", "parent", "thread", "n", "start", "end", "counts")

    def __init__(self, sid, name, parent, thread, n):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.n = n
        self.start = self.end = 0.0
        self.counts = {}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.unattributed: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self):
        found = {}
        for mod_name, attr in TRACED:
            mod = self.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if callable(fn):
                found[f"{mod_name}.{attr}"] = (mod, attr, fn)
            else:
                self.absent.append(f"{mod_name}.{attr}")
        hooks = _hooks({name: fn for name, (_m, _a, fn) in found.items()})
        for name, (mod, attr, fn) in found.items():
            self._patch(mod, attr, self._timed(name, fn, hooks.get(name)))
        for attr in COUNTED:
            fn = getattr(np.linalg, attr, None)
            if fn is None:
                self.absent.append(f"numpy.linalg.{attr}")
            else:
                self._patch(np.linalg, attr, self._counted(attr, fn))
        return self

    def __exit__(self, *exc):
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()
        return False

    def _patch(self, obj, attr, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _timed(self, name, fn, hook):
        n_of = _n_getter(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            n = n_of(args, kwargs)
            if n is None and parent is not None:
                n = parent.n
            span = Span(next(tracer._ids), name, parent, threading.get_ident(), n)
            if parent is None:
                tracer._root = span
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if tracer._root is span:
                    tracer._root = None
                tracer.spans.append(span)
            if hook is not None:
                try:
                    span.counts.update(hook(args, kwargs, result))
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass
            return result

        return traced

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                counts = stack[-1].counts
                counts[key] = counts.get(key, 0) + 1
            else:
                with tracer._lock:
                    tracer.unattributed[key] = tracer.unattributed.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        """Spans as plain data, times in seconds from the first span start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        return {
            "absent": self.absent,
            "unattributed": self.unattributed,
            "columns": ["id", "name", "parent", "thread", "n", "start", "end", "counts"],
            "spans": [
                [s.id, s.name, s.parent.id if s.parent else None, s.thread, s.n,
                 round(s.start - t0, 7), round(s.end - t0, 7), s.counts]
                for s in sorted(self.spans, key=lambda s: s.id)
            ],
        }


# ---------------------------------------------------------------------------
# per-layer metrics


def _chain(span: Span):
    while span is not None:
        yield span
        span = span.parent


def _under(span: Span, names) -> bool:
    return any(s.name in names for s in _chain(span))


def _root_of(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover
    (children of a sweep may run concurrently on pool threads)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def workload_spans(spans: list[Span]) -> list[Span]:
    """Spans that belong to a workload's public call (not the range probe)."""
    return [s for s in spans if _root_of(s).name in ROOTS]


def layer_table(spans: list[Span], selfs: dict[int, float]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if not any(a.name == s.name for a in _chain(s.parent)):
            row["s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    return table


def layer_metrics(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    """The per-layer metrics over a set of spans (a workload, or one n)."""
    table = layer_table(spans, selfs)

    def t(name, key="s"):
        return table.get(name, {}).get(key, 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    prep = [s for s in spans if _under(s, PREP)]
    blocks = sum(1 for s in prep if s.name == "schur_weyl.block_basis")
    identity = sum(s.counts.get("identity", 0) for s in prep
                   if s.name == "schur_weyl.pairing_matrix")
    eigh = sum(s.counts.get("eigh", 0) for s in prep
               if _under(s, ("schur_weyl.block_basis",)))
    eigvalsh = sum(s.counts.get("eigvalsh", 0) for s in spans
                   if _under(s, ("metrics.cq_distance",)))
    cells = count("metrics.cq_distance", "cells")
    return {
        "tableaux.enumerate_m_vectors.s": t("tableaux.enumerate_m_vectors"),
        "tableaux.enumerate_m_vectors.calls": calls("tableaux.enumerate_m_vectors"),
        "tableaux.mvectors": count("tableaux.enumerate_m_vectors", "mvectors"),
        "schur_weyl.pairing_matrix.s": t("schur_weyl.pairing_matrix"),
        "schur_weyl.pairing_matrix.calls": calls("schur_weyl.pairing_matrix"),
        "schur_weyl.pairing_matrix.entries": count("schur_weyl.pairing_matrix", "entries"),
        "schur_weyl.gram_matrix.s": t("schur_weyl.gram_matrix"),
        "schur_weyl.block_basis.s": t("schur_weyl.block_basis", "self_s"),
        "schur_weyl.block_unitary.s": t("schur_weyl.block_unitary"),
        "schur_weyl.basis_states": count("schur_weyl.block_basis", "basis_states"),
        "schur_weyl.identity_pairings_per_block": identity / blocks if blocks else 0.0,
        "schur_weyl.eigh_per_block": eigh / blocks if blocks else 0.0,
        "models.block_state.s": t("models.block_state", "self_s"),
        "models.block_weight.s": t("models.block_weight"),
        "models.block_weight.calls": calls("models.block_weight"),
        "gaussian.limit_state.s": t("gaussian.limit_state"),
        "channels.prepare_blocks.s": t("channels.prepare_blocks"),
        "channels.typical_diagrams.s": t("channels.typical_diagrams"),
        "channels.build_isometry.s": t("channels.build_isometry"),
        "channels.forward_channel.s": t("channels.forward_channel"),
        "channels.reverse_channel.s": t("channels.reverse_channel"),
        "channels.blocks": count("channels.prepare_blocks", "blocks"),
        "channels.gaussian_box_mass.calls": calls("channels.gaussian_box_mass"),
        "metrics.cq_distance.s": t("metrics.cq_distance"),
        "metrics.cq_distance.eigvalsh_calls": eigvalsh,
        "metrics.eigvalsh_per_cell": eigvalsh / cells if cells else 0.0,
        "metrics.sn_distance.s": t("metrics.sn_distance"),
        "experiments.run_converge.s": t("experiments.run_converge"),
        "experiments.run_decompose.s": t("experiments.run_decompose"),
    }
