"""Command-line front end for the network energy-space toolkit.

One verb per pipeline: solve a kernel element, chase a monopole through a
wired exhaustion, split a function into finite and harmonic parts, measure
resistances, probe transience, build operator extensions, compare inner
products, and run the bundled identity suite.

Artifacts are written into ``--out DIR`` as JSON or CSV (``--format``);
without ``--out`` the payload is printed to stdout as JSON.  Exit codes:
0 on success, 1 on any runtime failure (diagnostic on stderr), 2 on a
malformed command line (argparse).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import generators, measures, verify
from .energy import to_energy_vector
from .network import (
    NetworkError,
    function_to_json,
    label_key,
    load_function,
    load_network,
    network_to_json,
    read_json,
    write_json as _write_json,  # bench/tracer.py times artifact writes under this name
)
from .operators import (
    InnerSpace,
    LinOp,
    OperatorError,
    friedrichs,
    krein_lambda,
    krein_network_extension,
    network_kl,
    spectral_measure,
    verify_pair,
)
from .solvers import (
    K_MAX,
    MONOPOLE_TOL,
    SolverError,
    effective_resistance,
    royden_project,
    solve_dipole,
    solve_monopole,
    transience_probe,
)

#: Unbounded generator rules reachable from the command line.
GENERATORS = {
    "binary_tree": generators.BinaryTreeGen,
    "integer_line": generators.IntegerLineGen,
    "geometric_line": generators.GeometricLineGen,
    "lattice": generators.IntegerLatticeGen,
}

#: Finite graph builders reachable from ``generate``.
BUILDERS = {
    "path": generators.path,
    "cycle": generators.cycle,
    "binary_tree": generators.binary_tree,
    "lattice": generators.lattice,
    "geometric_line": generators.geometric_line,
    "random": generators.random_network,
}


# -- small parsers ---------------------------------------------------------


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _param(text: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key, _coerce(value)


def _label(text: str):
    """Vertex label: int when int-like, comma form for lattice tuples."""
    if "," in text:
        return tuple(_label(part) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        return text


def _float_list(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _make_generator(name: str, params: dict):
    try:
        return GENERATORS[name](**params)
    except TypeError as exc:
        raise NetworkError(f"bad parameters for generator {name!r}: {exc}") from None


def _load_matrix(path, space=None):
    """Matrix file: JSON ``[[...]]`` or ``{"labels": [...], "matrix": [[...]]}``.

    Read alone, a ``--gram`` file gives its :class:`InnerSpace`.  Read
    against ``space`` a file gives its matrix, and its labels, if it has
    any, must be the space's labels in the same order.
    """
    doc = read_json(path, "matrix", OperatorError)
    if isinstance(doc, dict) and "matrix" in doc:
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise OperatorError(f"{path}: labels must be a JSON array, got {labels!r}")
        rows = doc["matrix"]
    elif isinstance(doc, list):
        labels = None
        rows = doc
    else:
        raise OperatorError(f"{path}: expected a JSON matrix or an object with 'matrix'")
    try:
        matrix = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise OperatorError(f"{path}: matrix must be a rectangular array of numbers") from None
    if matrix.ndim != 2:
        raise OperatorError(f"{path}: matrix must be two-dimensional, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise OperatorError(f"{path}: matrix has a non-finite entry")
    if space is None:
        return InnerSpace.from_matrix(matrix, labels=labels)
    if labels is not None and labels != list(space.labels):
        raise OperatorError(
            f"{path}: labels {labels} do not match the --gram labels {list(space.labels)}"
        )
    return matrix


def _load_measure(path) -> measures.DiscreteMeasure:
    return measures.DiscreteMeasure.from_json(read_json(path, "measure", ValueError))


# -- artifacts -------------------------------------------------------------
#
# A verb hands ``_emit`` a mapping ``{stem: (doc, table)}``: ``doc()`` builds
# the JSON document and ``table()`` the CSV ``(header, rows)``; the csv
# module writes floats at full round-trip precision.  Both are called only
# when their artifact is written, one artifact at a time, so a verb with
# several large artifacts never holds more than one in memory.


def _emit(args, artifacts: dict, echo: bool = True) -> None:
    """Write each artifact into ``--out`` as JSON or CSV (``--format``).

    Without ``--out`` the documents are printed to stdout as JSON (a lone
    document as itself, several as an object keyed by stem) unless ``echo``
    is False.
    """
    if args.out is None:
        if echo:
            docs = {stem: doc() for stem, (doc, _) in artifacts.items()}
            payload = docs.popitem()[1] if len(docs) == 1 else docs
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, (doc, table) in artifacts.items():
        if args.format == "csv":
            path = out / f"{stem}.csv"
            header, rows = table()
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        else:
            path = out / f"{stem}.json"
            _write_json(path, doc())
        print(f"wrote {path}")


def _matrix_table(op: LinOp) -> tuple:
    """Operator matrix with codomain labels down and domain labels across."""
    header = [""] + [label_key(lbl) for lbl in op.domain.labels]
    rows = ([label_key(lbl)] + row.tolist() for lbl, row in zip(op.codomain.labels, op.matrix))
    return header, rows


def _levels_table(report) -> tuple:
    return ["level", "value", "energy"], report.levels


def _vertex_table(net, **columns) -> tuple:
    """Vertex functions side by side, one row per vertex key."""
    docs = [function_to_json(net, values) for values in columns.values()]
    return ["vertex", *columns], ([key] + [d[key] for d in docs] for key in docs[0])


def _operator_artifact(op: LinOp) -> tuple:
    return op.to_json, lambda: _matrix_table(op)


# -- verbs -----------------------------------------------------------------


def cmd_kernel(args) -> int:
    net = load_network(args.graph)
    v = solve_dipole(net, args.vertex)
    print(f"kernel element at {args.vertex!r}: energy {v.energy:.12g}")
    doc = {
        "vertex": label_key(args.vertex),
        "energy": v.energy,
        "values": function_to_json(net, v.values),
    }
    stem = f"kernel_{label_key(args.vertex)}"
    _emit(args, {stem: (lambda: doc, lambda: _vertex_table(net, value=v.values))})
    return 0


def cmd_monopole(args) -> int:
    gen = _make_generator(args.generator, dict(args.param))
    vertex = gen.origin if args.vertex is None else args.vertex
    w, report = solve_monopole(gen, vertex, tol=args.tol, k_max=args.kmax)
    last_k, value, energy = report.levels[-1]
    print(
        f"monopole at {vertex!r}: converged={report.converged} "
        f"levels={last_k} value={value:.12g} energy={energy:.12g} "
        f"limit~{report.extrapolated_limit:.12g}"
    )
    doc = report.summary()
    doc["vertex"] = label_key(vertex)
    _emit(args, {"monopole_report": (lambda: doc, lambda: _levels_table(report))})
    return 0


def cmd_royden(args) -> int:
    net = load_network(args.graph)
    u = to_energy_vector(net, load_function(net, args.function))
    fin, harm = royden_project(net, u, boundary=args.boundary)
    cross = fin.inner(harm)
    print(
        f"split energies: total {u.energy:.12g}, finite {fin.energy:.12g}, "
        f"harmonic {harm.energy:.12g}, cross {cross:.3e}"
    )
    doc = {
        "total_energy": u.energy,
        "finite_energy": fin.energy,
        "harmonic_energy": harm.energy,
        "cross_inner": cross,
        "finite": function_to_json(net, fin.values),
        "harmonic": function_to_json(net, harm.values),
    }
    columns = {"finite": fin.values, "harmonic": harm.values}
    _emit(args, {"royden": (lambda: doc, lambda: _vertex_table(net, **columns))})
    return 0


def cmd_resistance(args) -> int:
    net = load_network(args.graph)
    r = effective_resistance(net, args.source, args.target)
    print(f"effective resistance {args.source!r} -- {args.target!r}: {r:.12g}")
    doc = {
        "source": label_key(args.source),
        "target": label_key(args.target),
        "resistance": r,
    }
    _emit(args, {"resistance": (lambda: doc, lambda: (list(doc), [list(doc.values())]))})
    return 0


def cmd_transience(args) -> int:
    gen = _make_generator(args.generator, dict(args.param))
    verdict, report = transience_probe(
        gen, tol=args.tol, k_max=args.kmax, stride=args.stride
    )
    print(
        f"verdict: {verdict} after {len(report.levels)} levels, "
        f"last R={report.values[-1]:.12g}, limit~{report.extrapolated_limit:.12g}"
    )
    doc = report.summary()
    doc["verdict"] = verdict
    _emit(args, {"transience_report": (lambda: doc, lambda: _levels_table(report))})
    return 0


def cmd_friedrichs(args) -> int:
    space = _load_matrix(args.gram)
    a = LinOp(domain=space, codomain=space, matrix=_load_matrix(args.operator, space))
    ext = friedrichs(space, a, c=args.bound)
    defect = float(np.max(np.abs(ext.matrix - a.matrix)))
    print(f"extension of a {space.dim}x{space.dim} operator: max |ext - A| = {defect:.3e}")
    _emit(args, {"friedrichs_extension": _operator_artifact(ext)})
    return 0


def _krein_inputs(args) -> tuple:
    """(H1, G2, Lambda) from the ``--gram`` and ``--gram2`` files."""
    h1 = _load_matrix(args.gram)
    g2 = _load_matrix(args.gram2, h1)
    return h1, g2, krein_lambda(h1, g2)


def cmd_krein(args) -> int:
    h1, g2, lam = _krein_inputs(args)
    rng = np.random.default_rng(args.seed)
    phi = rng.standard_normal(h1.dim)
    lhs = h1.inner(phi, lam.apply(phi))
    rhs = float(phi @ g2 @ phi)
    print(
        f"canonical operator on dim {h1.dim}: "
        f"<phi, Lambda phi>_1 = {lhs:.12g}, |phi|_2^2 = {rhs:.12g}"
    )
    _emit(args, {"krein_lambda": _operator_artifact(lam)})
    return 0


def cmd_spectral(args) -> int:
    h1, g2, lam = _krein_inputs(args)
    phi = np.eye(h1.dim)[0] if args.phi is None else args.phi
    mu = spectral_measure(lam, phi)
    print(
        f"spectral measure with {len(mu.atoms)} atoms: "
        f"mass {mu.mass():.12g} (|phi|_1^2 = {h1.inner(phi, phi):.12g}), "
        f"moment {mu.first_moment():.12g} (|phi|_2^2 = {float(phi @ g2 @ phi):.12g})"
    )
    table = (["eigenvalue", "weight"], mu.atoms)
    _emit(args, {"spectral_measure": (mu.to_json, lambda: table)})
    return 0


def cmd_kl(args) -> int:
    net = load_network(args.graph)
    k_op, l_op = network_kl(net)
    report = verify_pair(k_op, l_op, tol=args.tol)
    kk, ll = krein_network_extension(k_op, l_op)
    print(
        f"symmetric pair on {net.n} vertices: pairing residual "
        f"{report.residual:.3e} (tol {args.tol:.1e}), "
        f"is_pair={report.is_pair}"
    )
    ops = {"kl_k": k_op, "kl_l": l_op, "kl_kk": kk, "kl_ll": ll}
    _emit(args, {stem: _operator_artifact(op) for stem, op in ops.items()})
    return 0 if report.is_pair else 1


def cmd_cantor(args) -> int:
    constant, report = measures.cantor_witness(args.level)
    predicted = report.rows[-1][2]
    print(
        f"witness constant at level {args.level}: {constant:.12g} "
        f"(predicted {predicted:.12g})"
    )
    doc = {"rows": [list(row) for row in report.rows]}
    table = (["level", "constant", "predicted"], report.rows)
    _emit(args, {"cantor_report": (lambda: doc, lambda: table)})
    return 0


def cmd_rn(args) -> int:
    mu1 = _load_measure(args.mu1)
    mu2 = _load_measure(args.mu2)
    lam = measures.rn_lambda(mu1, mu2)
    diag = np.diag(lam.matrix)
    print(
        f"density operator on {len(mu1.points)} points: "
        f"diagonal range [{diag.min():.12g}, {diag.max():.12g}]"
    )
    _emit(args, {"rn_lambda": _operator_artifact(lam)})
    return 0


def cmd_verify(args) -> int:
    results = sorted(verify.run_suite(args.suite, seed=args.seed), key=lambda r: r.check_id)
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [r.to_json() for r in results],
    }
    rows = [[r.check_id, r.passed, r.residual, r.tolerance] for r in results]
    table = (["check_id", "passed", "residual", "tolerance"], rows)
    # the check lines above are verify's stdout report
    _emit(args, {"verify_report": (lambda: doc, lambda: table)}, echo=False)
    return 1 if failures else 0


def cmd_generate(args) -> int:
    params = dict(args.param)
    if args.truncate is not None:
        if args.generator not in GENERATORS:
            raise NetworkError(
                f"generator {args.generator!r} has no unbounded rule to truncate"
            )
        net = generators.truncate(_make_generator(args.generator, params), args.truncate)
    else:
        if args.generator not in BUILDERS:
            raise NetworkError(f"{args.generator!r} is not a finite builder")
        builder = BUILDERS[args.generator]
        try:
            if args.generator == "random":
                net = builder(seed=args.seed, **params)
            else:
                net = builder(**params)
        except TypeError as exc:
            raise NetworkError(
                f"bad parameters for builder {args.generator!r}: {exc}"
            ) from None
    print(f"generated {net!r}")
    _emit(args, {args.generator: (lambda: network_to_json(net), None)})
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netenergy",
        description="resistance-network energy spaces, kernels, and operator extensions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, seed=False, formats=True):
        if seed:
            p.add_argument("--seed", type=int, default=42, help="seed for randomized steps")
        p.add_argument("--out", default=None, help="directory for artifacts")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            p.set_defaults(format="json")

    def exhaustion(p):
        p.add_argument("--kmax", type=int, default=K_MAX, help="maximum exhaustion level")
        p.add_argument("--tol", type=float, default=MONOPOLE_TOL, help="energy tolerance")

    p = sub.add_parser("kernel", help="solve one energy-kernel element v_x")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--vertex", required=True, type=_label)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("monopole", help="monopole via wired exhaustion levels")
    p.add_argument("--generator", required=True, choices=sorted(GENERATORS))
    p.add_argument("--param", action="append", type=_param, default=[], metavar="K=V")
    p.add_argument("--vertex", type=_label, default=None, help="default: the origin")
    exhaustion(p)
    common(p)
    p.set_defaults(func=cmd_monopole)

    p = sub.add_parser("royden", help="split a function into finite + harmonic parts")
    p.add_argument("--graph", required=True)
    p.add_argument("--function", required=True, help="vertex-function JSON file")
    p.add_argument(
        "--boundary",
        action="append",
        type=_label,
        default=None,
        metavar="VERTEX",
        help="boundary vertex (repeatable); default: the ground vertex",
    )
    common(p)
    p.set_defaults(func=cmd_royden)

    p = sub.add_parser("resistance", help="effective resistance between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--source", required=True, type=_label)
    p.add_argument("--target", required=True, type=_label)
    common(p)
    p.set_defaults(func=cmd_resistance)

    p = sub.add_parser("transience", help="classify a generated network by wired resistance")
    p.add_argument("--generator", required=True, choices=sorted(GENERATORS))
    p.add_argument("--param", action="append", type=_param, default=[], metavar="K=V")
    p.add_argument("--stride", type=int, default=1, help="sample every stride-th level")
    exhaustion(p)
    common(p)
    p.set_defaults(func=cmd_transience)

    p = sub.add_parser("friedrichs", help="extension of a coercive or semibounded operator")
    p.add_argument("--gram", required=True, help="Gram matrix JSON file")
    p.add_argument("--operator", required=True, help="operator matrix JSON file")
    p.add_argument("--bound", type=float, default=1.0, help="lower bound c (default 1: coercive)")
    common(p)
    p.set_defaults(func=cmd_friedrichs)

    p = sub.add_parser("krein", help="canonical operator of a second inner product")
    p.add_argument("--gram", required=True, help="first (positive definite) Gram JSON")
    p.add_argument("--gram2", required=True, help="second (positive semidefinite) Gram JSON")
    common(p, seed=True)
    p.set_defaults(func=cmd_krein)

    p = sub.add_parser("spectral", help="atomic spectral measure of a vector")
    p.add_argument("--gram", required=True)
    p.add_argument("--gram2", required=True)
    p.add_argument(
        "--phi",
        type=_float_list,
        default=None,
        help="comma-separated coordinates; default: first basis vector",
    )
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("kl", help="the l2/energy symmetric pair of a network")
    p.add_argument("--graph", required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="pairing residual tolerance")
    common(p)
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("cantor", help="witness constants for a singular pairing")
    p.add_argument("--level", required=True, type=int)
    common(p)
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("rn", help="density operator of two discrete measures")
    p.add_argument("--mu1", required=True, help="reference measure JSON")
    p.add_argument("--mu2", required=True, help="absolutely continuous measure JSON")
    common(p)
    p.set_defaults(func=cmd_rn)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a graph JSON file")
    p.add_argument(
        "--generator",
        required=True,
        choices=sorted(set(BUILDERS) | set(GENERATORS)),
    )
    p.add_argument("--param", action="append", type=_param, default=[], metavar="K=V")
    p.add_argument(
        "--truncate",
        type=int,
        default=None,
        metavar="K",
        help="wired truncation level of an unbounded rule",
    )
    common(p, seed=True, formats=False)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, SolverError, OperatorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
