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

A network is built from index arrays by :meth:`Network.from_arrays`, the
one place where every invariant is checked.  The label constructor
``Network(edges, origin, ...)`` maps labels to positions and delegates.

Networks are immutable once constructed and all operations are pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Mapping
from functools import cached_property

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
        ends: list = []
        conds: list[float] = []
        for item in edges:
            try:
                u, v, c = item
                conds.append(float(c))
            except (TypeError, ValueError, OverflowError) as exc:
                raise NetworkError(f"malformed edge {item!r}") from exc
            ends += (u, v)
        try:
            labels = list(dict.fromkeys(ends) if vertices is None else vertices)
            index = _label_index(labels)
            ij = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))
        except KeyError as exc:
            raise NetworkError(f"edge endpoint {exc.args[0]!r} not in vertex list") from None
        except TypeError:
            raise NetworkError(f"vertex label {_unhashable(ends)!r} is not hashable") from None
        if origin not in labels:
            raise NetworkError(f"origin {origin!r} is not a vertex")
        if ground is not None and ground not in labels:
            raise NetworkError(f"ground {ground!r} is not a vertex")
        ground_index = None if ground is None else index[ground]
        net = Network.from_arrays(labels, ij[0::2], ij[1::2], conds, index[origin], ground_index)
        vars(self).update(vars(net))  # adopt the checked state

    @classmethod
    def from_arrays(cls, labels, u, v, conds, origin_index, ground_index=None) -> Network:
        """Network on ``labels`` whose k-th edge joins positions ``u[k]`` and
        ``v[k]`` with conductance ``conds[k]``.  Every check on a network runs
        here; an error names an edge's labels in the order given."""
        labels = tuple(labels)
        index = _label_index(labels)
        n = len(labels)
        u, v, c = np.asarray(u), np.asarray(v), np.asarray(conds, float)
        if not (u.shape == v.shape == c.shape == (c.size,)
                and all(a.dtype.kind in "iu" for a in (u, v) if a.size)
                and ((u >= 0) & (u < n) & (v >= 0) & (v < n)).all()):
            raise NetworkError(f"edge arrays must list integer positions 0..{n - 1}, one per edge")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        if not all(isinstance(i, (int, np.integer)) and 0 <= i < n
                   for i in (origin_index, ground_index) if i is not None):
            raise NetworkError(f"origin and ground must be integer positions 0..{n - 1}")

        def edge(k) -> tuple:
            return labels[u[k]], labels[v[k]]

        bad = np.flatnonzero(~(np.isfinite(c) & (c > 0.0)))
        if bad.size:
            raise NetworkError(f"edge {edge(bad[0])} has conductance {c[bad[0]]}, need c > 0")
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise NetworkError(f"self loop at {labels[u[loops[0]]]!r}")
        heads, tails = np.minimum(u, v), np.maximum(u, v)
        _, first_seen = np.unique(heads * n + tails, return_index=True)
        if first_seen.size < c.size:
            k = np.setdiff1d(np.arange(c.size), first_seen)[0]
            raise NetworkError(f"duplicate edge {edge(k)}")
        if ground_index == origin_index:
            raise NetworkError("ground vertex cannot be the origin")

        net = cls.__new__(cls)
        net._labels = labels
        net._index = index
        net._heads = heads
        net._tails = tails
        net._conds = c
        net._origin_index = int(origin_index)
        net._ground_index = None if ground_index is None else int(ground_index)
        if n > 1:
            if not c.size:
                raise NetworkError("network with more than one vertex has no edges")
            ncomp, _ = connected_components(net.weight_matrix, directed=False)
            if ncomp != 1:
                raise NetworkError(f"graph is disconnected ({ncomp} components)")
        return net

    # -- basic structure ---------------------------------------------------

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def origin(self):
        return self._labels[self._origin_index]

    @property
    def ground(self):
        return None if self._ground_index is None else self._labels[self._ground_index]

    @property
    def origin_index(self) -> int:
        return self._origin_index

    @property
    def ground_index(self) -> int | None:
        return self._ground_index

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list as parallel arrays ``(heads, tails, conductances)``, heads < tails."""
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
        extra = "" if self.ground is None else f", ground={self.ground!r}"
        return (
            f"Network({self.n} vertices, {self.n_edges} edges, "
            f"origin={self.origin!r}{extra})"
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
        """A vertex function as a float array in table order.

        In memory a vertex function is an array of ``n`` real numbers, one
        per vertex in the order of ``labels``; anything else (a mapping,
        strings, ``None``, the wrong length) is a ``NetworkError``.  Files
        key the values by :func:`label_key` strings instead (see
        :func:`function_from_json`).
        """
        arr = np.asarray(u)
        if arr.dtype.kind not in "iuf":
            got = type(u).__name__ if arr.ndim == 0 else f"{arr.dtype} entries"
            raise NetworkError(f"function values must be real numbers, got {got}")
        if arr.shape != (self.n,):
            raise NetworkError(f"function has shape {arr.shape}, expected ({self.n},)")
        return arr.astype(float, copy=False)

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


def _unhashable(labels):
    """The first of ``labels`` that cannot be hashed."""
    for label in labels:
        try:
            hash(label)
        except TypeError:
            return label


def _label_index(labels) -> dict:
    """``{label: position}`` over a vertex table; refuses an empty table and
    unhashable or repeated labels."""
    if not labels:
        raise NetworkError("empty network")
    try:
        index = dict(zip(labels, range(len(labels))))
    except TypeError:
        raise NetworkError(f"vertex label {_unhashable(labels)!r} is not hashable") from None
    if len(index) < len(labels):
        first: dict = {}
        dup = next(v for i, v in enumerate(labels) if first.setdefault(v, i) != i)
        raise NetworkError(f"duplicate vertex {dup!r}")
    return index


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


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as indented JSON with a final newline."""
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
            (_label_from_json(e["u"]), _label_from_json(e["v"]), e["c"])
            for e in doc["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed graph document: {exc}") from exc
    for u, v, c in edges:
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            raise NetworkError(f"edge {(u, v)} has conductance {c!r}, which is not a number")
    ground = _label_from_json(doc["ground"]) if "ground" in doc else None
    return Network(edges, origin, vertices=vertices, ground=ground)


def save_network(net: Network, path) -> None:
    write_json(path, network_to_json(net))


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
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise NetworkError(f"function value at vertex key {key!r} is not a number: {value!r}")
        vals[by_key[key]] = value
        filled[by_key[key]] = True
    if not filled.all():
        missing = net.labels[int(np.flatnonzero(~filled)[0])]
        raise NetworkError(f"function missing a value at vertex {missing!r}")
    return vals


def save_function(net: Network, u, path) -> None:
    write_json(path, function_to_json(net, u))


def load_function(net: Network, path) -> np.ndarray:
    return function_from_json(net, read_json(path, "function", NetworkError))
