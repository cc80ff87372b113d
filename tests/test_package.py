import re
from pathlib import Path

import numpy as np

import netenergy

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_sorted_unique_and_resolve():
    names = netenergy.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(netenergy, name) is not None, name


def test_readme_quick_tour_runs_and_its_comments_hold():
    (block,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    net, v_b, u = ns["net"], ns["v_b"], ns["u"]
    assert "v_b.values                            # array([0. , 1. , 1.5])" in block
    np.testing.assert_array_equal(v_b.values, [0.0, 1.0, 1.5])
    assert "# 1.5 == R(o, b)" in block
    assert abs(v_b.energy - 1.5) <= 1e-12
    assert abs(netenergy.effective_resistance(net, "o", "b") - 1.5) <= 1e-12
    assert "# == u(b) - u(o)" in block
    o, b = net.index("o"), net.index("b")
    assert abs(netenergy.energy_form(net, v_b.values, u) - (u[b] - u[o])) <= 1e-12
    assert "# == the graph Laplacian" in block
    np.testing.assert_allclose(ns["kk"].matrix, net.laplacian_matrix.toarray(), atol=1e-12)
    assert '# "transient"; limit ~ 1.0' in block
    assert ns["verdict"] == "transient"
    assert abs(ns["report"].extrapolated_limit - 1.0) <= 1e-3
