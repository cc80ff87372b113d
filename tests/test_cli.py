import csv
import json
import re
from pathlib import Path

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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that json.dump can write."""
    return json.loads(text, parse_constant=_refuse_constant)


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


@pytest.mark.parametrize("verb", ["monopole", "transience"])
def test_exhaustion_tol_must_be_finite_and_nonnegative(verb, capsys):
    base = [verb, "--generator", "integer_line", "--kmax", "50"]
    for tol in ("inf", "nan", "-1e-3"):
        assert main([*base, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert f"error: tol must be a finite number >= 0, got {float(tol)!r}" in captured.err
        assert captured.out == ""
    # tol = 0 is valid: the recurrent line runs to k_max unconverged
    assert main([*base, "--tol", "0"]) == 0
    text = capsys.readouterr().out
    doc = _strict_json(text[text.index("{"):])
    assert doc["tol"] == 0.0 and not doc["converged"]


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
    for bound in ("nan", "-inf"):
        rc = main(["friedrichs", "--gram", str(gram), "--operator", str(bad), f"--bound={bound}"])
        assert rc == 1
        assert "error: lower bound must be a finite number" in capsys.readouterr().err


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
    capsys.readouterr()
    for phi in ("nan,1", "1,inf"):
        rc = main(["spectral", "--gram", str(gram), "--gram2", str(gram2), "--phi", phi])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: phi has a non-finite entry" in captured.err
        assert captured.out == ""
    assert main(["spectral", "--gram", str(gram), "--gram2", str(gram2), "--phi", "1,1"]) == 0
    text = capsys.readouterr().out
    atoms = _strict_json(text[text.index("["):])
    assert [a["weight"] for a in atoms] == [1.0, 1.0]


@pytest.mark.parametrize("verb, flag", [
    ("friedrichs", "--operator"), ("krein", "--gram2"), ("spectral", "--gram2"),
])
def test_mislabelled_matrix_file_is_refused(verb, flag, tmp_path, capsys):
    gram = _write_json(tmp_path, "g.json", {"labels": ["x", "y"], "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    matrix = [[2.0, 0.0], [0.0, 5.0]]
    swapped = _write_json(tmp_path, "a.json", {"labels": ["y", "x"], "matrix": matrix})
    rc = main([verb, "--gram", str(gram), flag, str(swapped)])
    assert rc == 1
    assert re.search(r"^error: .*a\.json: labels .* do not match the --gram labels", capsys.readouterr().err)
    # same labels in the same order, or no labels at all, are read as given
    for doc in ({"labels": ["x", "y"], "matrix": matrix}, matrix):
        rc = main([verb, "--gram", str(gram), flag, str(_write_json(tmp_path, "b.json", doc))])
        assert rc == 0
    # an unlabelled --gram space is labelled 0, 1, ...
    plain = _write_json(tmp_path, "plain.json", [[1.0, 0.0], [0.0, 1.0]])
    rc = main([verb, "--gram", str(plain), flag, str(swapped)])
    assert rc == 1
    # labels that are not a JSON array, in either file
    scalar = _write_json(tmp_path, "s.json", {"labels": 5, "matrix": matrix})
    for argv in (["--gram", str(gram), flag, str(scalar)], ["--gram", str(scalar), flag, str(plain)]):
        capsys.readouterr()
        assert main([verb, *argv]) == 1
        assert f"error: {scalar}: labels must be a JSON array, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag", [
    ("friedrichs", "--operator"), ("krein", "--gram2"), ("spectral", "--gram2"),
])
@pytest.mark.parametrize("text, msg", [
    ("[[NaN, 0.0], [0.0, 1.0]]", "matrix has a non-finite entry"),
    ('{"matrix": [[1.0, 0.0], [0.0, Infinity]]}', "matrix has a non-finite entry"),
    ("[[1.0, 0.0], [0.0, 1e999]]", "matrix has a non-finite entry"),
    ("[[1.0, null], [0.0, 1.0]]", "matrix has a non-finite entry"),
    ("[[1.0, 0.0], [0.0]]", "matrix must be a rectangular array of numbers"),
    ('[[1.0, "x"], [0.0, 1.0]]', "matrix must be a rectangular array of numbers"),
], ids=["nan", "infinity", "overflow", "null", "ragged", "string"])
def test_malformed_matrix_file_is_refused(verb, flag, text, msg, tmp_path, capsys):
    good = _write_json(tmp_path, "good.json", [[2.0, 0.0], [0.0, 5.0]])
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for gram, other in ((bad, good), (good, bad)):
        assert main([verb, "--gram", str(gram), flag, str(other)]) == 1
        assert f"error: {bad}: {msg}" in capsys.readouterr().err


def test_operator_artifacts_key_tuple_labels_like_every_artifact(tmp_path):
    graph = tmp_path / "lat.json"
    assert main(["generate", "--generator", "lattice", "--param", "d=2", "--param", "radius=1",
                 "--out", str(tmp_path)]) == 0
    (tmp_path / "lattice.json").rename(graph)
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        assert main(["kl", "--graph", str(graph), "--format", fmt, "--out", str(out)]) == 0
        assert main(["kernel", "--graph", str(graph), "--vertex", "1,0", "--format", fmt,
                     "--out", str(out)]) == 0
    kernel_keys = list(json.loads((tmp_path / "json" / "kernel_1,0.json").read_text())["values"])
    doc = json.loads((tmp_path / "json" / "kl_k.json").read_text())
    assert doc["domain_labels"] == kernel_keys
    assert "-1,0" in doc["domain_labels"]
    with open(tmp_path / "csv" / "kl_k.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1:] == kernel_keys
    assert [r[0] for r in rows[1:]] == [k for k in kernel_keys if k != "0,0"]


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


@pytest.mark.parametrize(
    "argv, msg",
    [
        (
            ["transience", "--generator", "lattice", "--param", "d=2.5", "--kmax", "3"],
            "lattice dimension must be an integer >= 1, got 2.5",
        ),
        (
            ["generate", "--generator", "geometric_line"]
            + ["--param", "ratio=1e300", "--param", "n=5"],
            "conductance 1e+300**2 overflows a float",
        ),
        (
            ["transience", "--generator", "binary_tree", "--param", "conductance=abc"]
            + ["--kmax", "2"],
            "conductance must be a positive finite number, got 'abc'",
        ),
        (
            ["monopole", "--generator", "lattice", "--param", "conductance=0", "--kmax", "2"],
            "conductance must be a positive finite number, got 0",
        ),
        (
            ["generate", "--generator", "geometric_line"]
            + ["--param", "ratio=abc", "--param", "n=5"],
            "ratio must be a positive finite number, got 'abc'",
        ),
    ],
    ids=[
        "fractional-dimension",
        "overflowing-ratio",
        "non-numeric-conductance",
        "zero-conductance",
        "non-numeric-ratio",
    ],
)
def test_bad_generator_parameters_are_runtime_errors(argv, msg, capsys):
    rc = main(argv)
    assert rc == 1
    assert f"error: {msg}" in capsys.readouterr().err


# -- artifacts: one test over every verb that takes --format ---------------


def _readme_artifacts() -> dict:
    """verb -> (stems, CSV header cell) from the README's artifact table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for verb, stems, header in re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", text, re.M):
        table[verb] = (re.findall(r"`([^`]+)`", stems), header)
    return table


README_ARTIFACTS = _readme_artifacts()


@pytest.fixture
def inputs(tmp_path, p3_file, p3):
    files = {"graph": p3_file}
    save_function(p3, [0.0, 1.0, 3.0], tmp_path / "u.json")
    files["function"] = tmp_path / "u.json"
    gram = {"labels": ["x", "y"], "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    files["gram"] = _write_json(tmp_path, "g1.json", gram)
    files["gram2"] = _write_json(tmp_path, "g2.json", [[2.0, 0.5], [0.5, 3.0]])
    files["operator"] = _write_json(tmp_path, "a.json", [[2.0, 0.0], [0.0, 5.0]])
    files["mu1"] = _write_json(tmp_path, "mu1.json", {"points": [1, 2], "weights": [0.5, 0.5]})
    files["mu2"] = _write_json(tmp_path, "mu2.json", {"points": [1, 2], "weights": [2.0, 4.5]})
    return {k: str(v) for k, v in files.items()}


FORMAT_VERBS = {
    "kernel": lambda f: ["--graph", f["graph"], "--vertex", "a"],
    "monopole": lambda f: ["--generator", "geometric_line", "--param", "ratio=2", "--kmax", "6"],
    "royden": lambda f: ["--graph", f["graph"], "--function", f["function"], "--boundary", "o",
                         "--boundary", "b"],
    "resistance": lambda f: ["--graph", f["graph"], "--source", "o", "--target", "b"],
    "transience": lambda f: ["--generator", "binary_tree", "--kmax", "4"],
    "friedrichs": lambda f: ["--gram", f["gram"], "--operator", f["operator"]],
    "krein": lambda f: ["--gram", f["gram"], "--gram2", f["gram2"]],
    "spectral": lambda f: ["--gram", f["gram"], "--gram2", f["gram2"]],
    "kl": lambda f: ["--graph", f["graph"]],
    "cantor": lambda f: ["--level", "3"],
    "rn": lambda f: ["--mu1", f["mu1"], "--mu2", f["mu2"]],
    "verify": lambda f: ["--suite", "measures"],
}


def test_readme_lists_every_verb():
    assert set(README_ARTIFACTS) == set(FORMAT_VERBS) | {"generate"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("verb", sorted(FORMAT_VERBS))
def test_artifacts_match_printed_paths_and_readme(verb, fmt, inputs, tmp_path, capsys):
    out = tmp_path / "arts"
    rc = main([verb, *FORMAT_VERBS[verb](inputs), "--out", str(out), "--format", fmt])
    assert rc == 0
    printed = re.findall(r"^wrote (.+)$", capsys.readouterr().out, re.M)
    written = sorted(str(path) for path in out.iterdir())
    assert sorted(printed) == written
    stems, header = README_ARTIFACTS[verb]
    stems = [stem.replace("<vertex>", "a") for stem in stems]
    assert written == sorted(str(out / f"{stem}.{fmt}") for stem in stems)
    for path in written:
        if fmt == "json":
            _strict_json(Path(path).read_text())
            continue
        with open(path, newline="") as fh:
            first = next(csv.reader(fh))
        if header.startswith("`,`"):  # an operator table: labels across
            assert first[0] == "" and len(first) > 1
        else:
            assert ",".join(first) == header.strip("`")


def test_royden_csv_is_one_table(p3_file, p3, tmp_path):
    fn = tmp_path / "u.json"
    save_function(p3, [0.0, 1.0, 3.0], fn)
    base = ["royden", "--graph", str(p3_file), "--function", str(fn), "--boundary", "o",
            "--boundary", "b"]
    assert main(base + ["--out", str(tmp_path / "j")]) == 0
    assert main(base + ["--out", str(tmp_path / "c"), "--format", "csv"]) == 0
    doc = json.loads((tmp_path / "j" / "royden.json").read_text())
    with open(tmp_path / "c" / "royden.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["vertex", "finite", "harmonic"]
    for key, fin, harm in rows[1:]:
        assert float(fin) == doc["finite"][key]
        assert float(harm) == doc["harmonic"][key]
    assert len(rows) == 4


def test_colliding_vertex_keys_are_refused(tmp_path, capsys):
    net = Network([((1, 2), "1,2", 1.0), ("1,2", "o", 1.0)], origin="o")
    graph = tmp_path / "g.json"
    save_network(net, graph)
    for extra in ([], ["--out", str(tmp_path / "arts")]):
        rc = main(["kernel", "--graph", str(graph), "--vertex", "o", *extra])
        assert rc == 1
        assert "error: vertex labels collide" in capsys.readouterr().err
    assert not (tmp_path / "arts").exists()


@pytest.mark.parametrize(
    "label, shown", [({"a": 1}, "{'a': 1}"), ([1, [2]], "(1, [2])")], ids=["object", "nested-array"]
)
def test_unhashable_graph_labels_are_runtime_errors(label, shown, tmp_path, capsys):
    doc = {"vertices": [label, "b"], "origin": "b", "edges": [{"u": label, "v": "b", "c": 1.0}]}
    graph = _write_json(tmp_path, "g.json", doc)
    assert main(["kernel", "--graph", str(graph), "--vertex", "b"]) == 1
    assert f"error: vertex label {shown} is not hashable" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["1.5", "abc", True], ids=["numeric-string", "string", "bool"])
def test_graph_file_conductance_must_be_a_number(c, tmp_path, capsys):
    doc = {"vertices": ["o", "a"], "origin": "o", "edges": [{"u": "o", "v": "a", "c": c}]}
    graph = _write_json(tmp_path, "g.json", doc)
    assert main(["resistance", "--graph", str(graph), "--source", "o", "--target", "a"]) == 1
    err = capsys.readouterr().err
    assert f"error: edge ('o', 'a') has conductance {c!r}, which is not a number" in err


def test_non_object_function_file_is_runtime_error(p3_file, tmp_path, capsys):
    fn = _write_json(tmp_path, "f.json", [1, 2, 3])
    rc = main(["royden", "--graph", str(p3_file), "--function", str(fn)])
    assert rc == 1
    assert "error: function document must map vertex keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag, kind",
    [
        ("royden", "--function", "function"),
        ("friedrichs", "--operator", "matrix"),
        ("rn", "--mu2", "measure"),
        ("resistance", "--graph", "graph"),
    ],
)
def test_bad_json_names_the_file(verb, flag, kind, inputs, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    argv = FORMAT_VERBS[verb](inputs)
    argv[argv.index(flag) + 1] = str(bad)
    rc = main([verb, *argv])
    assert rc == 1
    assert f"error: invalid {kind} JSON in {bad}" in capsys.readouterr().err


def test_generate_seed_comes_only_from_the_flag(tmp_path, capsys):
    base = ["generate", "--generator", "random", "--param", "n=6"]
    assert main(base + ["--param", "seed=7"]) == 1
    assert "error: bad parameters for builder 'random'" in capsys.readouterr().err
    assert main(base + ["--seed", "7", "--out", str(tmp_path / "seven")]) == 0
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    seven = (tmp_path / "seven" / "random.json").read_text()
    assert seven != (tmp_path / "default" / "random.json").read_text()
