"""Self-tests of the benchmark: oracles reject corrupted results, and a
traced operation passes the same checks as an untraced one.

    python3 -m pytest bench -q

Workloads run here at small sizes; the oracles are the benchmark's own.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import netenergy as ne  # noqa: E402
from netenergy import network, operators, solvers  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import KernelsAll, KlCli, ProbeZ3  # noqa: E402

SMALL = {"probe_z3": ProbeZ3(k_max=7), "kernels_all": KernelsAll(n=60), "kl_cli": KlCli(n=30)}


def test_probe_oracle_rejects_corrupted_reports():
    w = SMALL["probe_z3"]
    state = w.setup(3, None)
    verdict, report = w.run(state)
    assert w.check(state, (verdict, report)) is None

    rows = list(report.levels)
    swapped = rows[:]
    (k1, v1, e1), (k2, v2, e2) = swapped[1], swapped[2]
    swapped[1], swapped[2] = (k1, v2, e2), (k2, v1, e1)
    perturbed = rows[:]
    k, v, e = perturbed[-1]
    perturbed[-1] = (k, v * (1 + 1e-6), e)
    too_big = [(k, v * 2.0, e * 2.0) for k, v, e in rows]
    for bad in (swapped, perturbed, too_big, rows[:-1]):
        corrupt = dataclasses.replace(report, levels=tuple(bad))
        assert w.check(state, (verdict, corrupt)) is not None


def test_kernels_oracle_rejects_a_perturbed_gram_entry():
    w = SMALL["kernels_all"]
    state = w.setup(4, None)
    kernels, g = w.run(state)
    assert w.check(state, (kernels, g)) is None

    m = np.array(g.matrix)
    m[7, 11] = m[11, 7] = m[7, 11] * (1 + 1e-6)
    assert w.check(state, (kernels, ne.GramMatrix(g.labels, m))) is not None
    zero = [ne.to_energy_vector(v.net, np.zeros(v.net.n)) for v in kernels]
    assert w.check(state, (zero, ne.gram("energy", zero[0].net, zero))) is not None


def test_kl_oracle_rejects_an_edited_closure_and_a_failed_exit(tmp_path):
    w = SMALL["kl_cli"]
    state = w.setup(5, tmp_path)
    code, out = w.run(state)
    assert w.check(state, (code, out)) is None
    assert w.check(state, (1, out)) is not None

    path = out / "kl_kk.json"
    doc = json.loads(path.read_text())
    doc["matrix"][2][3] += 1e-9
    path.write_text(json.dumps(doc))
    assert w.check(state, (code, out)) is not None
    w.discard((code, out))
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_operation_passes_the_same_checks(name, tmp_path):
    w = SMALL[name]
    tracer = Tracer()
    tracer.install()
    try:
        state, setup = tracer.phase(w.setup, 6, tmp_path)
        result, summary = tracer.phase(w.run, state)
    finally:
        tracer.uninstall()
    assert w.check(state, result) is None
    w.discard(result)

    metrics = layer_metrics(summary)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(metrics) | {"trace.wall_s", "trace.overhead_s", "generators.random_network_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert 0.0 <= metrics["trace.unattributed_share"] < 0.05
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(summary["wall_s"] - summary["unattributed_s"])
    assert metrics["solvers.levels"] == metrics["solvers.path_direct"] + metrics["solvers.path_cg"]
    assert metrics["solvers.residual_max"] < 1e-10
    if name == "probe_z3":
        assert metrics["generators.truncate_calls"] == metrics["solvers.levels"] == 4
    else:
        assert setup["calls"]["generators.random_network"] == 1
        assert metrics["operators.dim" if name == "kl_cli" else "solvers.rhs"] == w.n


def test_uninstall_restores_every_original():
    originals = [
        (solvers, "solve_grounded"), (operators, "solve_dipoles"), (scipy.sparse.linalg, "splu"),
        (scipy.sparse.linalg, "cg"), (ne.energy, "energy_form"), (solvers, "energy_form"),
    ]
    before = [getattr(owner, attr) for owner, attr in originals]
    init = network.Network.__init__
    tracer = Tracer()
    tracer.install()
    assert solvers.solve_grounded is not before[0]
    assert solvers.energy_form is ne.energy.energy_form
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in originals] == before
    assert network.Network.__init__ is init
