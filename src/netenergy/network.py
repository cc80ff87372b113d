"""Weighted resistance networks and their pointwise Laplacian.

A resistance network is a connected undirected graph with a positive
conductance on every edge and a distinguished origin vertex.  Vertex
functions are dense float arrays aligned with the vertex table, so the
Laplacian

    (lap u)(x) = sum_{y ~ x} c_xy * (u(x) - u(y))

is a sparse matrix-vector product with the (positive semidefinite) graph
Laplacian.  The net conductance c(x) = sum_y c_xy is the diagonal of that
matrix.

Truncations of unbounded graphs (see :mod:`netenergy.generators`) carry one
extra grounded vertex that absorbs every edge leaving the truncated region;
it is flagged on the network so solvers can pin it to potential zero.

Networks are immutable once constructed and all operations are pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

#: Conventional label of the grounded vertex added by wired truncation.
GROUND = "ground"


class NetworkError(ValueError):
    """A graph violated the resistance-network invariants."""


def label_key(label) -> str:
    """Stable string form of a vertex label, used for JSON object keys."""
    if isinstance(label, str):
        return label
    if isinstance(label, (tuple, list)):
        return ",".join(str(part) for part in label)
    return str(label)


class Network:
    """Finite connected resistance network with a distinguished origin.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, c)`` triples with hashable endpoint labels and
        conductance ``c > 0``.  Each undirected edge appears exactly once;
        duplicates and self loops are rejected.
    origin:
        Label of the origin vertex.
    vertices:
        Optional explicit vertex ordering.  Every listed vertex must be an
        endpoint of some edge (isolated vertices cannot be connected).
    ground:
        Optional label of the grounded boundary vertex of a wired
        truncation.  Must differ from the origin.
    """

    def __init__(self, edges, origin, vertices=None, ground=None):
        pairs: list[tuple] = []
        conds: list[float] = []
        for item in edges:
            try:
                u, v, c = item
                conds.append(float(c))
            except (TypeError, ValueError) as exc:
                raise NetworkError(f"malformed edge {item!r}") from exc
            pairs.append((u, v))
        ends = list(chain.from_iterable(pairs))

        order = list(dict.fromkeys(ends) if vertices is None else vertices)
        index = dict(zip(order, range(len(order))))
        if len(index) < len(order):
            first: dict = {}
            dup = next(v for i, v in enumerate(order) if first.setdefault(v, i) != i)
            raise NetworkError(f"duplicate vertex {dup!r}")
        try:
            ij = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends)).reshape(-1, 2)
        except KeyError as exc:
            raise NetworkError(f"edge endpoint {exc.args[0]!r} not in vertex list") from None
        heads, tails, c = ij.min(axis=1), ij.max(axis=1), np.array(conds, dtype=float)

        bad = np.flatnonzero(~(np.isfinite(c) & (c > 0.0)))
        if bad.size:
            raise NetworkError(f"edge {pairs[bad[0]]} has conductance {conds[bad[0]]}, need c > 0")
        loops = np.flatnonzero(heads == tails)
        if loops.size:
            raise NetworkError(f"self loop at {pairs[loops[0]][0]!r}")
        _, first_seen = np.unique(heads * len(order) + tails, return_index=True)
        if first_seen.size < c.size:
            k = np.setdiff1d(np.arange(c.size), first_seen)[0]
            raise NetworkError(f"duplicate edge {pairs[k]}")
        if not order:
            raise NetworkError("empty network")
        if origin not in index:
            raise NetworkError(f"origin {origin!r} is not a vertex")
        if ground is not None:
            if ground not in index:
                raise NetworkError(f"ground {ground!r} is not a vertex")
            if ground == origin:
                raise NetworkError("ground vertex cannot be the origin")

        self._labels = tuple(order)
        self._index = index
        self._heads = heads
        self._tails = tails
        self._conds = c
        self._origin = origin
        self._ground = ground

        if len(order) > 1:
            if not c.size:
                raise NetworkError("network with more than one vertex has no edges")
            ncomp, _ = connected_components(self.weight_matrix, directed=False)
            if ncomp != 1:
                raise NetworkError(f"graph is disconnected ({ncomp} components)")

    # -- basic structure ---------------------------------------------------

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def origin(self):
        return self._origin

    @property
    def ground(self):
        return self._ground

    @property
    def origin_index(self) -> int:
        return self._index[self._origin]

    @property
    def ground_index(self) -> int | None:
        if self._ground is None:
            return None
        return self._index[self._ground]

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list as parallel arrays ``(heads, tails, conductances)``."""
        return self._heads, self._tails, self._conds

    @property
    def n_edges(self) -> int:
        return len(self._conds)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise NetworkError(f"unknown vertex {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        extra = "" if self._ground is None else f", ground={self._ground!r}"
        return (
            f"Network({self.n} vertices, {self.n_edges} edges, "
            f"origin={self._origin!r}{extra})"
        )

    @cached_property
    def weight_matrix(self) -> sp.csr_matrix:
        """Symmetric conductance matrix W with W[x, y] = c_xy."""
        n = self.n
        rows = np.concatenate([self._heads, self._tails])
        cols = np.concatenate([self._tails, self._heads])
        vals = np.concatenate([self._conds, self._conds])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    @cached_property
    def conductances(self) -> np.ndarray:
        """Net conductance c(x) at every vertex, in table order."""
        c = np.asarray(self.weight_matrix.sum(axis=1)).ravel()
        c.flags.writeable = False
        return c

    @cached_property
    def laplacian_matrix(self) -> sp.csr_matrix:
        """Graph Laplacian diag(c) - W (positive semidefinite)."""
        return sp.diags(self.conductances) - self.weight_matrix

    # -- vertex functions --------------------------------------------------

    def as_array(self, u) -> np.ndarray:
        """Coerce a vertex function to a dense array in table order.

        Accepts an array of length ``n`` or a mapping from every vertex
        label to a value; a missing vertex is an error.
        """
        if isinstance(u, Mapping):
            vals = np.empty(self.n, dtype=float)
            for i, lbl in enumerate(self._labels):
                if lbl not in u:
                    raise NetworkError(f"function missing a value at vertex {lbl!r}")
                vals[i] = float(u[lbl])
            return vals
        arr = np.asarray(u, dtype=float)
        if arr.shape != (self.n,):
            raise NetworkError(
                f"function has shape {arr.shape}, expected ({self.n},)"
            )
        return arr

    def as_dict(self, u) -> dict:
        """Vertex function as a ``{label: value}`` mapping."""
        arr = self.as_array(u)
        return {lbl: float(arr[i]) for i, lbl in enumerate(self._labels)}

    def delta(self, x) -> np.ndarray:
        """Indicator function of the vertex ``x``."""
        out = np.zeros(self.n)
        out[self.index(x)] = 1.0
        return out

    # -- local operations --------------------------------------------------

    def laplacian(self, u) -> np.ndarray:
        """Apply the Laplacian: (lap u)(x) = sum_y c_xy (u(x) - u(y))."""
        arr = self.as_array(u)
        return self.conductances * arr - self.weight_matrix.dot(arr)

    def interior_indices(self, boundary=()) -> np.ndarray:
        """Indices of vertices outside ``boundary`` and off the ground."""
        excluded = [self.index(b) for b in boundary]
        if self.ground_index is not None:
            excluded.append(self.ground_index)
        return np.delete(np.arange(self.n), excluded)


def is_harmonic(net: Network, u, tol: float = 1e-10, boundary=()) -> bool:
    """True iff ``max |lap u|`` over interior vertices is at most ``tol``.

    Interior means every vertex that is neither the ground nor listed in
    ``boundary``.
    """
    lap = net.laplacian(u)
    interior = net.interior_indices(boundary)
    if interior.size == 0:
        return True
    return bool(np.max(np.abs(lap[interior])) <= tol)


# -- graph file format -----------------------------------------------------


def read_json(path, kind: str, error: type[Exception]):
    """Parse the JSON file at ``path``; bad JSON raises ``error`` naming the
    path and what the file should hold (``kind``)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"invalid {kind} JSON in {path}: {exc}") from exc


def _save_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _label_from_json(value):
    return tuple(value) if isinstance(value, list) else value


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def network_to_json(net: Network) -> dict:
    """Plain-dict form of a network: vertices, origin, edge list."""
    doc = {
        "vertices": [_label_to_json(v) for v in net.labels],
        "origin": _label_to_json(net.origin),
        "edges": [
            {
                "u": _label_to_json(net.labels[i]),
                "v": _label_to_json(net.labels[j]),
                "c": float(c),
            }
            for i, j, c in zip(*net.edge_arrays)
        ],
    }
    if net.ground is not None:
        doc["ground"] = _label_to_json(net.ground)
    return doc


def network_from_json(doc: Mapping) -> Network:
    try:
        vertices = [_label_from_json(v) for v in doc["vertices"]]
        origin = _label_from_json(doc["origin"])
        edges = [
            (_label_from_json(e["u"]), _label_from_json(e["v"]), float(e["c"]))
            for e in doc["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed graph document: {exc}") from exc
    ground = _label_from_json(doc["ground"]) if "ground" in doc else None
    return Network(edges, origin, vertices=vertices, ground=ground)


def save_network(net: Network, path) -> None:
    _save_json(network_to_json(net), path)


def load_network(path) -> Network:
    return network_from_json(read_json(path, "graph", NetworkError))


def function_to_json(net: Network, u) -> dict:
    """Vertex function as a JSON-friendly ``{key: value}`` map."""
    arr = net.as_array(u)
    keys = [label_key(lbl) for lbl in net.labels]
    if len(set(keys)) != len(keys):
        raise NetworkError("vertex labels collide under string keys")
    return {k: float(arr[i]) for i, k in enumerate(keys)}


def function_from_json(net: Network, doc: Mapping) -> np.ndarray:
    if not isinstance(doc, Mapping):
        raise NetworkError(
            f"function document must map vertex keys to values, got {type(doc).__name__}"
        )
    by_key = {label_key(lbl): i for i, lbl in enumerate(net.labels)}
    vals = np.empty(net.n)
    filled = np.zeros(net.n, dtype=bool)
    for key, value in doc.items():
        if key not in by_key:
            raise NetworkError(f"function value for unknown vertex key {key!r}")
        vals[by_key[key]] = float(value)
        filled[by_key[key]] = True
    if not filled.all():
        missing = net.labels[int(np.flatnonzero(~filled)[0])]
        raise NetworkError(f"function missing a value at vertex {missing!r}")
    return vals


def save_function(net: Network, u, path) -> None:
    _save_json(function_to_json(net, u), path)


def load_function(net: Network, path) -> np.ndarray:
    return function_from_json(net, read_json(path, "function", NetworkError))
