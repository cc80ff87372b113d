"""The benchmark's workloads: set-up, one timed operation, and its oracle.

``setup`` makes the inputs from the seed, ``run`` is the operation the
benchmark times, and ``check`` judges its result, returning ``None`` when
it is right and a reason when it is not.  ``check`` runs outside the timed
region, on traced and untraced operations alike.

The three workloads load different layers (see README.md):

- ``probe_z3``: wired exhaustion of Z^3, construction plus one sparse
  factorization and one right-hand side per level;
- ``kernels_all``: all energy kernels of a random network, one
  factorization shared by n right-hand sides, then a dense energy Gram;
- ``kl_cli``: ``netenergy kl`` in process, JSON in, dense operator
  calculus, 16 MB of JSON artifacts out.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import netenergy as ne
from netenergy import cli

#: Resistance from the origin to infinity in unit-conductance Z^3, G(0)/6
#: by Watson's integral, rounded up.  Every wired truncation lies below it.
Z3_RESISTANCE = 0.25273


class Workload:
    """One workload: its inputs, its operation and the oracle for the result."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, state: dict):
        raise NotImplementedError

    def check(self, state: dict, result) -> str | None:
        raise NotImplementedError

    def discard(self, result) -> None:
        """Release what ``run`` left outside the process."""


class ProbeZ3(Workload):
    """``transience_probe`` on Z^3 at levels 1, 3, ..., ``k_max``.

    ``tol`` lies far below every increment, so neither stopping rule fires
    and every operation solves the same levels.  The seed draws the
    lattice conductance, which scales every resistance and changes no
    amount of work.
    """

    name = "probe_z3"

    def __init__(self, k_max: int = 21, stride: int = 2):
        self.k_max = k_max
        self.stride = stride

    def setup(self, seed, workdir):
        c = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        return {"generator": ne.IntegerLatticeGen(d=3, conductance=c), "conductance": c}

    def run(self, state):
        return ne.transience_probe(
            state["generator"], tol=1e-13, k_max=self.k_max, stride=self.stride
        )

    def check(self, state, result):
        _, report = result
        expected = list(range(1, self.k_max + 1, self.stride))
        if [int(k) for k in report.ks] != expected:
            return f"levels {list(report.ks)}, expected {expected}"
        values, energies = report.values, report.energies
        rel = np.abs(values - energies) / np.abs(energies)
        if not np.all(rel <= 1e-9):
            return f"monopole identity w(o) = E(w) off by {rel.max():.3e} (tol 1e-9)"
        if not np.all(np.diff(values) > 0.0):
            return "wired resistances R_k are not strictly increasing"
        bound = Z3_RESISTANCE / state["conductance"]
        if not np.all(values < bound):
            return f"R_k reaches {values.max():.6f}, above G(0)/6c = {bound:.6f}"
        return None


class KernelsAll(Workload):
    """``solve_dipoles`` on every vertex of ``random_network(n)``, then their
    energy Gram.

    Set-up draws the network.  Each operation builds it anew from its edge
    list (about 0.5% of the operation), so that nothing the package caches
    on a network, such as its factorization, carries over.
    """

    name = "kernels_all"

    def __init__(self, n: int = 2000):
        self.n = n

    def setup(self, seed, workdir):
        net = ne.random_network(self.n, seed)
        heads, tails, conds = net.edge_arrays
        labels = net.labels
        edges = [(labels[i], labels[j], float(c)) for i, j, c in zip(heads, tails, conds)]
        return {"net": net, "edges": edges}

    def run(self, state):
        net = state["net"]
        net = ne.Network(state["edges"], net.origin, vertices=net.labels)
        kernels = ne.solve_dipoles(net, net.labels)
        return kernels, ne.gram("energy", net, kernels)

    def check(self, state, result):
        kernels, g = result
        m = g.matrix
        if m.shape != (self.n, self.n):
            return f"Gram has shape {m.shape}, expected ({self.n}, {self.n})"
        origin = state["net"].origin_index
        diag = np.delete(np.diag(m), origin)
        if not np.all(diag > 0.0):
            return "a kernel other than the origin's has zero energy"
        tol = 1e-8 * float(np.abs(m).max())
        # reproducing property: G[a, b] = <v_a, v_b>_E = v_b(x_a) - v_b(o)
        for b, v in enumerate(kernels):
            err = float(np.abs(m[:, b] - v.values).max())
            if not err <= tol:
                return f"G[:, {b}] differs from v_{b} by {err:.3e} (tol {tol:.3e})"
        return None


def _input_laplacian(graph: Path) -> tuple[dict, np.ndarray]:
    """Graph Laplacian straight from a graph JSON file's edge list."""
    doc = json.loads(graph.read_text(encoding="utf-8"))
    pos = {str(v): i for i, v in enumerate(doc["vertices"])}
    lap = np.zeros((len(pos), len(pos)))
    for e in doc["edges"]:
        i, j, c = pos[str(e["u"])], pos[str(e["v"])], float(e["c"])
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    return pos, lap


class KlCli(Workload):
    """``netenergy kl --graph g --out d`` through ``cli.main``, stdout captured.

    Each operation writes into a fresh directory under the benchmark's work
    directory, removed after the check.
    """

    name = "kl_cli"

    def __init__(self, n: int = 400):
        self.n = n

    def setup(self, seed, workdir):
        graph = Path(workdir) / "graph.json"
        ne.save_network(ne.random_network(self.n, seed), graph)
        pos, lap = _input_laplacian(graph)
        return {"graph": graph, "workdir": Path(workdir), "pos": pos, "laplacian": lap}

    def run(self, state):
        out = Path(tempfile.mkdtemp(dir=state["workdir"]))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["kl", "--graph", str(state["graph"]), "--out", str(out)])
        return code, out

    def check(self, state, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads((out / "kl_kk.json").read_text(encoding="utf-8"))
        pos = state["pos"]
        if sorted(doc["domain_labels"]) != sorted(pos) or doc["codomain_labels"] != doc["domain_labels"]:
            return "kl_kk.json is not indexed by the input's vertices"
        idx = [pos[lbl] for lbl in doc["domain_labels"]]
        expected = state["laplacian"][np.ix_(idx, idx)]
        err = float(np.abs(np.asarray(doc["matrix"], dtype=float) - expected).max())
        if not err <= 1e-10:
            return f"K*K differs from the input's Laplacian by {err:.3e} (tol 1e-10)"
        return None

    def discard(self, result):
        shutil.rmtree(result[1], ignore_errors=True)


WORKLOADS = {w.name: w for w in (ProbeZ3(), KernelsAll(), KlCli())}
