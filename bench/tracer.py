"""In-memory span tracer that wraps beqpt's public names from outside.

A span is (name, parent, start, end, amount).  ``amount`` is a per-span
count: stacked matrices for a linalg kernel, report characters outside
``timings`` for ``report_json``.  Spans are kept in flat typed arrays,
so a see-saw solve with half a million kernel calls takes a few tens of
megabytes.  Self time of
a span is its duration minus the durations of its direct children; the
program is single-threaded, so spans nest properly.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the public functions it covers.
FUNCTION_SPANS = {
    "seesaw.optimize": [("beqpt.seesaw", "optimize")],
    "bipartite.realign": [("beqpt.bipartite", "realign")],
    "bipartite.singular_values": [("beqpt.bipartite", "singular_values")],
    "diagnostics.full_report": [("beqpt.diagnostics", "full_report")],
    "tomography.run_aaqpt": [("beqpt.tomography", "run_aaqpt")],
    "channels.apply_extended": [("beqpt.channels", "apply_extended")],
    "filtering.filter_analysis": [("beqpt.filtering", "filter_analysis")],
    "cli.main": [("beqpt.cli", "main")],
    "reports.report_json": [("beqpt.reports", "report_json")],
    "states.constructors": [("beqpt.states", name) for name in (
        "bell_state", "max_entangled_state", "werner_f", "werner_v",
        "isotropic", "cariello_gamma", "rho_ccnr", "rho_ccnr_3x3",
        "filtered_werner_closed_form", "random_density_matrix",
    )],
}
CLASS_SPANS = {"bipartite.DensityMatrix": ("beqpt.bipartite", "DensityMatrix")}
KERNELS = ("eigh", "eigvalsh", "svd", "pinv")


def _stacked(args, out) -> int:
    """Matrices in a (possibly stacked) linalg argument: the product of
    the leading batch dimensions."""
    shape = np.shape(args[0])
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _report_chars(args, out) -> int:
    """Characters of a serialized report outside its ``timings`` section,
    whose float digits vary from run to run."""
    return len(out) - len(json.dumps(args[0].get("timings", {}), indent=2, sort_keys=True))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, amount=None):
        """``fn`` recording one span per call; ``amount(args, result)``, if
        given, is stored with the span."""
        nid = self._id(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, amounts = self.start, self.end, self.amount
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            amounts.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if amount is not None:
                amounts[i] = amount(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every beqpt namespace that binds it,
        since modules import each other's names with ``from .x import y``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "beqpt" or modname.startswith("beqpt.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for span, targets in FUNCTION_SPANS.items():
            for modname, attr in targets:
                original = getattr(importlib.import_module(modname), attr)
                amount = _report_chars if span == "reports.report_json" else None
                self._rebind(original, self.wrap(span, original, amount))
        for span, (modname, attr) in CLASS_SPANS.items():
            cls = getattr(importlib.import_module(modname), attr)
            init = cls.__dict__["__init__"]
            cls.__init__ = self.wrap(span, init)
            self._restore.append((cls, "__init__", init))
        for kernel in KERNELS:
            original = getattr(np.linalg, kernel)
            setattr(np.linalg, kernel, self.wrap(f"linalg.{kernel}", original, _stacked))
            self._restore.append((np.linalg, kernel, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self, busy_s: float, projection_iters: int) -> dict:
        """Per-layer metrics for everything recorded so far; ``busy_s`` is
        the time spent inside the traced ops."""
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        amt = np.frombuffer(self.amount, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        amount = np.bincount(nid, weights=amt, minlength=k)

        def span(name):
            return self._ids.get(name, -1)

        def get(table, name):
            return table[span(name)].item() if span(name) >= 0 else 0

        def under(name):
            """Spans of ``name`` and of everything below them."""
            flag = nid == span(name)
            while True:
                grown = flag | (has_parent & flag[np.maximum(par, 0)])
                if (grown == flag).all():
                    return flag
                flag = grown

        def factorizations_under(name):
            f = under(name) & np.isin(nid, [span("linalg.svd"), span("linalg.pinv")])
            return int(amt[f].sum())

        in_opt = under("seesaw.optimize")
        is_eigh = in_opt & (nid == span("linalg.eigh"))
        is_svd = in_opt & (nid == span("linalg.svd"))
        eigh_calls = int(is_eigh.sum())
        eigh_mats = int(amt[is_eigh].sum())
        # each outer SVD follows one Dykstra projection, two eigh calls per
        # iteration; a projection that used the whole budget hit the cap
        eigh_before_svd = np.cumsum(is_eigh)[is_svd]
        gaps = np.diff(eigh_before_svd, prepend=0)
        m = {
            "seesaw.optimize.self_s": get(self_s, "seesaw.optimize"),
            "seesaw.eigh_calls": eigh_calls,
            "seesaw.eigh_matrices": eigh_mats,
            "seesaw.matrices_per_eigh_call": eigh_mats / eigh_calls if eigh_calls else 0.0,
            "seesaw.outer_steps": int(is_svd.sum()),
            "seesaw.projection_cap_hits": int((gaps == 2 * projection_iters).sum()),
        }
        kernel_s = 0.0
        for kernel in KERNELS:
            name = f"linalg.{kernel}"
            m[f"{name}.calls"] = int(get(calls, name))
            m[f"{name}.matrices"] = int(get(amount, name))
            m[f"{name}.s"] = get(self_s, name)
            kernel_s += get(self_s, name)
        m["linalg.share"] = kernel_s / busy_s if busy_s > 0 else 0.0
        for name in ("bipartite.realign", "bipartite.singular_values",
                     "bipartite.DensityMatrix", "diagnostics.full_report",
                     "tomography.run_aaqpt"):
            m[f"{name}.calls"] = int(get(calls, name))
            m[f"{name}.self_s"] = get(self_s, name)
        reports = get(calls, "diagnostics.full_report")
        runs = get(calls, "tomography.run_aaqpt")
        m["diagnostics.svd_per_report"] = (
            factorizations_under("diagnostics.full_report") / reports if reports else 0.0)
        m["tomography.svd_per_run"] = (
            factorizations_under("tomography.run_aaqpt") / runs if runs else 0.0)
        for name in ("channels.apply_extended", "filtering.filter_analysis",
                     "cli.main", "reports.report_json", "states.constructors"):
            m[f"{name}.self_s"] = get(self_s, name)
        m["reports.report_json.bytes"] = int(get(amount, "reports.report_json"))
        m["trace.spans"] = n
        return m
