import json

import numpy as np
import pytest

from netenergy import Network, save_function, save_network
from netenergy.cli import main


@pytest.fixture
def p3_file(tmp_path, p3):
    path = tmp_path / "p3.json"
    save_network(p3, path)
    return path


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_resistance_verb(p3_file, tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main(
        ["resistance", "--graph", str(p3_file), "--source", "o", "--target", "b",
         "--out", str(out)]
    )
    assert rc == 0
    assert "1.5" in capsys.readouterr().out
    doc = json.loads((out / "resistance.json").read_text())
    assert doc["resistance"] == pytest.approx(1.5)


def test_resistance_csv_format(p3_file, tmp_path):
    out = tmp_path / "arts"
    rc = main(
        ["resistance", "--graph", str(p3_file), "--source", "a", "--target", "b",
         "--out", str(out), "--format", "csv"]
    )
    assert rc == 0
    lines = (out / "resistance.csv").read_text().strip().splitlines()
    assert lines[0] == "source,target,resistance"
    assert float(lines[1].split(",")[2]) == pytest.approx(0.5)


def test_kernel_verb(p3_file, tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main(["kernel", "--graph", str(p3_file), "--vertex", "b", "--out", str(out)])
    assert rc == 0
    assert "energy 1.5" in capsys.readouterr().out
    doc = json.loads((out / "kernel_b.json").read_text())
    assert doc["values"]["o"] == 0.0
    assert doc["values"]["a"] == pytest.approx(1.0)
    assert doc["values"]["b"] == pytest.approx(1.5)


def test_kernel_stdout_payload(p3_file, capsys):
    rc = main(["kernel", "--graph", str(p3_file), "--vertex", "a"])
    assert rc == 0
    text = capsys.readouterr().out
    payload = json.loads(text[text.index("{"):])
    assert payload["energy"] == pytest.approx(1.0)


def test_royden_verb(p3_file, tmp_path, p3, rng):
    fn = tmp_path / "u.json"
    save_function(p3, rng.standard_normal(3), fn)
    out = tmp_path / "arts"
    rc = main(
        ["royden", "--graph", str(p3_file), "--function", str(fn),
         "--boundary", "o", "--boundary", "b", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "royden.json").read_text())
    assert doc["total_energy"] == pytest.approx(
        doc["finite_energy"] + doc["harmonic_energy"], rel=1e-9
    )
    assert abs(doc["cross_inner"]) < 1e-10


def test_monopole_and_transience_verbs(capsys):
    rc = main(
        ["monopole", "--generator", "geometric_line", "--param", "ratio=2",
         "--tol", "1e-8", "--kmax", "40"]
    )
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    rc = main(
        ["transience", "--generator", "geometric_line", "--param", "ratio=2",
         "--kmax", "40"]
    )
    assert rc == 0
    assert "verdict: transient" in capsys.readouterr().out


def test_transience_lattice_dimension_three(capsys):
    rc = main(
        ["transience", "--generator", "lattice", "--param", "d=3",
         "--tol", "1e-2", "--kmax", "8"]
    )
    assert rc == 0
    assert "verdict: transient" in capsys.readouterr().out


def test_generate_then_solve_pipeline(tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main(
        ["generate", "--generator", "binary_tree", "--truncate", "3", "--out", str(out)]
    )
    assert rc == 0
    graph = out / "binary_tree.json"
    assert graph.exists()
    rc = main(
        ["resistance", "--graph", str(graph), "--source", "r", "--target", "ground",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "resistance.json").read_text())
    # series/parallel reduction of the depth-3 wired tree
    assert doc["resistance"] == pytest.approx(0.9375)


def test_generate_builder_params(tmp_path):
    out = tmp_path / "arts"
    rc = main(
        ["generate", "--generator", "path", "--param", "n=5",
         "--param", "conductance=2.0", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "path.json").read_text())
    assert len(doc["edges"]) == 4


def test_friedrichs_verb(tmp_path, capsys):
    gram = _write_json(tmp_path, "g.json", [[1.0, 0.0], [0.0, 1.0]])
    op = _write_json(tmp_path, "a.json", [[2.0, 0.0], [0.0, 5.0]])
    rc = main(["friedrichs", "--gram", str(gram), "--operator", str(op)])
    assert rc == 0
    assert "max |ext - A|" in capsys.readouterr().out
    bad = _write_json(tmp_path, "bad.json", [[0.5, 0.0], [0.0, 0.2]])
    rc = main(["friedrichs", "--gram", str(gram), "--operator", str(bad)])
    assert rc == 1
    # the shifted route accepts it once a valid lower bound is declared
    rc = main(
        ["friedrichs", "--gram", str(gram), "--operator", str(bad), "--bound", "0.1"]
    )
    assert rc == 0


def test_krein_and_spectral_verbs(tmp_path, capsys):
    gram = _write_json(tmp_path, "g1.json", [[1.0, 0.0], [0.0, 1.0]])
    gram2 = _write_json(tmp_path, "g2.json", [[2.0, 0.0], [0.0, 3.0]])
    rc = main(["krein", "--gram", str(gram), "--gram2", str(gram2)])
    assert rc == 0
    out = tmp_path / "arts"
    rc = main(
        ["spectral", "--gram", str(gram), "--gram2", str(gram2),
         "--phi", "1,1", "--out", str(out)]
    )
    assert rc == 0
    assert "mass 2" in capsys.readouterr().out
    atoms = json.loads((out / "spectral_measure.json").read_text())
    assert [a["eigenvalue"] for a in atoms] == [2.0, 3.0]
    rc = main(
        ["spectral", "--gram", str(gram), "--gram2", str(gram2), "--phi", "1,2,3"]
    )
    assert rc == 1  # dimension mismatch is a runtime failure


def test_kl_verb(p3_file, tmp_path):
    out = tmp_path / "arts"
    rc = main(["kl", "--graph", str(p3_file), "--out", str(out)])
    assert rc == 0
    for stem in ("kl_k", "kl_l", "kl_kk", "kl_ll"):
        assert (out / f"{stem}.json").exists()
    kk = json.loads((out / "kl_kk.json").read_text())
    np.testing.assert_allclose(
        kk["matrix"], [[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]],
        atol=1e-10,
    )


def test_cantor_verb(capsys):
    rc = main(["cantor", "--level", "10"])
    assert rc == 0
    assert "7.59375" in capsys.readouterr().out


def test_rn_verb(tmp_path, capsys):
    mu1 = _write_json(tmp_path, "mu1.json", {"points": [1, 2], "weights": [0.5, 0.5]})
    mu2 = _write_json(tmp_path, "mu2.json", {"points": [1, 2], "weights": [2.0, 4.5]})
    rc = main(["rn", "--mu1", str(mu1), "--mu2", str(mu2)])
    assert rc == 0
    assert "[4, 9]" in capsys.readouterr().out
    bad = _write_json(tmp_path, "bad.json", {"points": [1, 3], "weights": [1.0, 1.0]})
    rc = main(["rn", "--mu1", str(mu1), "--mu2", str(bad)])
    assert rc == 1


def test_verify_verb_measures_suite(tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main(["verify", "--suite", "measures", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "2/2 checks passed" in text
    doc = json.loads((out / "verify_report.json").read_text())
    assert all(check["passed"] for check in doc["checks"])
    # output rows come sorted by check id
    ids = [check["check_id"] for check in doc["checks"]]
    assert ids == sorted(ids)


def test_missing_file_is_runtime_error(tmp_path, capsys):
    rc = main(["resistance", "--graph", str(tmp_path / "nope.json"),
               "--source", "a", "--target", "b"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(p3_file):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["resistance", "--graph", str(p3_file), "--source", "a"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["monopole", "--generator", "binary_tree", "--param", "oops"])
    assert exc.value.code == 2
    # exhaustion and seed flags exist only on the verbs that read them
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--graph", str(p3_file), "--vertex", "a", "--kmax", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--generator", "path", "--param", "n=3", "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["monopole", "transience"])
def test_kmax_below_one_is_runtime_error(verb, capsys):
    rc = main([verb, "--generator", "binary_tree", "--kmax", "0"])
    assert rc == 1
    assert "error: k_max must be >= 1" in capsys.readouterr().err
