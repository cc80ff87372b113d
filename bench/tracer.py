"""Outside-in tracer: times netenergy's layers by wrapping their entry points.

No file of the package changes.  ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``uninstall`` puts the originals
back.  A name bound with ``from .x import y`` is a separate reference in
every module that imports it, so each function is replaced wherever the
package holds it (``energy_form`` lives in ``energy``, ``solvers`` and
``verify``; ``solve_dipoles`` in ``solvers`` and ``operators``).

A span is ``[name, parent, start, end]``.  Spans stay in memory and are
written out by ``dump``.  Spans named ``bench.*`` belong to the benchmark:
``bench.hook`` covers the counting and residual checks done after a wrapped
call returns, and is left out of the traced wall time and of every layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from collections.abc import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from netenergy import cli, energy, generators, network, operators, solvers

LAYERS = ("generators", "network", "solvers", "energy", "operators", "cli")

HOOK = "bench.hook"


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "netenergy" or name.startswith("netenergy.")
    ]


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _relative_residual(net, rhs, out) -> float:
    """max over columns of ||L w - b|| / ||b|| on the reduced system."""
    pinned = net.ground_index if net.ground_index is not None else net.origin_index
    if isinstance(rhs, Mapping) or np.ndim(rhs) == 1:
        b = net.as_array(rhs)[:, None]
    else:
        b = np.asarray(rhs, dtype=float)
    w = np.asarray(out, dtype=float).reshape(net.n, -1)
    r = np.delete(net.laplacian_matrix @ w - b, pinned, axis=0)
    rn = np.linalg.norm(r, axis=0)
    bn = np.linalg.norm(np.delete(b, pinned, axis=0), axis=0)
    rel = np.where(bn > 0.0, rn / np.where(bn > 0.0, bn, 1.0), rn)
    return float(rel.max(initial=0.0))


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is timed; everything else passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Timing wrappers around netenergy's entry points, and the spans they record."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        self.active = False
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(span, result, *args, **kwargs)``
        runs once it returns, under a ``bench.hook`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                h = self._open(HOOK)
                try:
                    after(i, result, *args, **kwargs)
                finally:
                    self._close(h)
            return result

        return traced

    def phase(self, fn, *args):
        """Run ``fn(*args)`` under a root span; return (result, summary)."""
        self.counts.clear()
        self.maxima.clear()
        root = self._open("bench.phase")
        try:
            result = fn(*args)
        finally:
            self._close(root)
        return result, self._summary(root)

    def _summary(self, root: int) -> dict:
        spans = self.spans[root:]
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans[1:]:
            child[parent - root] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        inclusive_s: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        hooks = 0.0
        for j, (name, _, t0, t1) in enumerate(spans[1:], start=1):
            self_s[name] += (t1 - t0) - child[j]
            inclusive_s[name] += t1 - t0
            calls[name] += 1
            if name == HOOK:
                hooks += t1 - t0
        _, _, t0, t1 = spans[0]
        return {
            "wall_s": (t1 - t0) - hooks,
            "unattributed_s": (t1 - t0) - child[0],
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` in ``owner`` and in every
        package module that holds the same object."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        owners = [owner] + [m for m in _package_modules() if m is not owner]
        for mod in owners:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _function(self, owner, attr: str, span: str, after=None) -> None:
        self._replace(owner, attr, lambda fn: self.wrap(span, fn, after))

    def _method(self, cls, attr: str, span: str, after=None) -> None:
        if attr in vars(cls):
            self._set(cls, attr, self.wrap(span, vars(cls)[attr], after))

    def install(self) -> None:
        """Wrap every traced entry point and start recording."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._function(generators, "truncate", "generators.truncate")
        self._function(generators, "random_network", "generators.random_network")
        for cls in _subclasses(generators.GraphGenerator):
            self._method(cls, "level", "generators.level")
            self._method(cls, "neighbors", "generators.neighbors")

        net_cls = network.Network
        self._method(net_cls, "__init__", "network.build", self._after_build)
        for attr, prop in list(vars(net_cls).items()):
            if isinstance(prop, functools.cached_property):
                traced = functools.cached_property(self.wrap("network.assembly", prop.func))
                traced.__set_name__(net_cls, attr)
                self._set(net_cls, attr, traced)
        self._function(network, "load_network", "network.json_load")

        self._replace(scipy.sparse.linalg, "splu", self._wrap_splu)
        self._replace(scipy.sparse.linalg, "cg", self._wrap_cg)
        self._function(solvers, "solve_grounded", "solvers.grounded", self._after_grounded)
        self._function(solvers, "solve_dipoles", "solvers.dipoles")
        self._function(solvers, "transience_probe", "solvers.probe")

        self._function(energy, "energy_form", "energy.form")
        self._function(energy, "to_energy_vector", "energy.vector")
        self._function(energy, "energy_pairings", "energy.pairings", self._after_pairings)
        self._function(energy, "gram", "energy.gram")

        for attr in ("cho_factor", "cho_solve", "eigh", "lu_factor", "lu_solve"):
            self._function(scipy.linalg, attr, "operators.dense", self._after_dense)
        self._function(operators, "adjoint", "operators.adjoint")
        self._function(operators, "verify_pair", "operators.pair_check")
        self._function(operators, "network_kl", "operators.kl")
        self._function(operators, "krein_network_extension", "operators.krein")

        self._function(cli, "main", "cli.main")
        self._function(cli, "_write_json", "cli.serialize", self._after_write)
        self._method(operators.LinOp, "to_json", "cli.serialize")
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and put every original back."""
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_splu(self, splu):
        factor = self.wrap("solvers.factor", splu, self._after_factor)

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            if not self.active:
                return lu
            return _TracedLU(lu, self.wrap("solvers.solve", lu.solve, self._after_solve))

        return traced_splu

    def _wrap_cg(self, cg):
        traced = self.wrap("solvers.cg", cg)

        def count(_xk):
            self.counts["solvers.cg_iters"] += 1

        @functools.wraps(cg)
        def counting_cg(*args, **kwargs):
            if self.active and kwargs.get("callback") is None:
                kwargs["callback"] = count
            return traced(*args, **kwargs)

        return counting_cg

    # -- counters, run after the wrapped call returns ----------------------

    def _after_build(self, span, result, net, *args, **kwargs):
        self.counts["network.vertices"] += net.n
        self.counts["network.edges"] += net.n_edges

    def _after_factor(self, span, lu, a, *args, **kwargs):
        self.counts["solvers.factor_unknowns"] += a.shape[0]
        self.counts["solvers.matrix_nnz"] += a.nnz
        self.counts["solvers.fill_nnz"] += lu.L.nnz + lu.U.nnz - a.shape[0]

    def _after_solve(self, span, result, b, *args, **kwargs):
        self.counts["solvers.rhs"] += b.shape[1] if np.ndim(b) == 2 else 1

    def _after_grounded(self, span, out, net, rhs):
        self.counts["solvers.levels"] += 1
        inner = {s[0] for s in self.spans[span + 1 :]}
        if "solvers.factor" in inner:
            self.counts["solvers.path_direct"] += 1
        elif "solvers.cg" in inner:
            self.counts["solvers.path_cg"] += 1
        res = _relative_residual(net, rhs, out)
        self.maxima["solvers.residual_max"] = max(self.maxima["solvers.residual_max"], res)

    def _after_pairings(self, span, result, net, rows, cols):
        self.counts["energy.pairings_flops"] += 2.0 * len(rows) * len(cols) * net.n_edges

    def _after_dense(self, span, result, a, *args, **kwargs):
        mat = a[0] if isinstance(a, tuple) else a
        self.maxima["operators.dim"] = max(self.maxima["operators.dim"], np.shape(mat)[0])

    def _after_write(self, span, result, path, doc):
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    # -- output ------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        """Write every span, with times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "parent", "start_s", "end_s"]
        doc["spans"] = [
            [name, parent, round(t0 - origin, 7), round(t1 - origin, 7)]
            for name, parent, t0, t1 in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced operation (times are self times)."""
    self_s, calls = summary["self_s"], summary["calls"]
    counts, maxima = summary["counts"], summary["maxima"]

    def t(span):
        return self_s.get(span, 0.0)

    def n(span):
        return calls.get(span, 0)

    def c(key):
        return counts.get(key, 0.0)

    out = {
        "generators.level_s": t("generators.level"),
        "generators.neighbors_s": t("generators.neighbors"),
        "generators.neighbors_calls": n("generators.neighbors"),
        "generators.truncate_s": t("generators.truncate"),
        "generators.truncate_calls": n("generators.truncate"),
        "network.build_s": t("network.build"),
        "network.build_calls": n("network.build"),
        "network.vertices": c("network.vertices"),
        "network.edges": c("network.edges"),
        "network.json_load_s": t("network.json_load"),
        "network.assembly_s": t("network.assembly"),
        "solvers.factor_s": t("solvers.factor"),
        "solvers.factor_calls": n("solvers.factor"),
        "solvers.factor_unknowns": c("solvers.factor_unknowns"),
        "solvers.fill_nnz": c("solvers.fill_nnz"),
        "solvers.fill_ratio": (
            c("solvers.fill_nnz") / c("solvers.matrix_nnz") if c("solvers.matrix_nnz") else 0.0
        ),
        "solvers.solve_s": t("solvers.solve"),
        "solvers.rhs": c("solvers.rhs"),
        "solvers.cg_s": t("solvers.cg"),
        "solvers.cg_calls": n("solvers.cg"),
        "solvers.cg_iters": c("solvers.cg_iters"),
        "solvers.path_direct": c("solvers.path_direct"),
        "solvers.path_cg": c("solvers.path_cg"),
        "solvers.levels": c("solvers.levels"),
        "solvers.residual_max": maxima.get("solvers.residual_max", 0.0),
        "energy.form_s": t("energy.form"),
        "energy.form_calls": n("energy.form"),
        "energy.vector_s": t("energy.vector"),
        "energy.pairings_s": t("energy.pairings"),
        "energy.pairings_flops": c("energy.pairings_flops"),
        "energy.gram_s": t("energy.gram"),
        "operators.dense_s": t("operators.dense"),
        "operators.dense_calls": n("operators.dense"),
        "operators.dim": maxima.get("operators.dim", 0.0),
        "operators.adjoint_calls": n("operators.adjoint"),
        "operators.pair_check_s": t("operators.pair_check"),
        "cli.serialize_s": t("cli.serialize"),
        "cli.bytes_written": c("cli.bytes_written"),
        "trace.unattributed_share": summary["unattributed_s"] / summary["wall_s"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return out
