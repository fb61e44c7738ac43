import json
import time

import pytest

import simplexion as sx
from simplexion.cli import main, random_statistics
from simplexion.generators import block_trials
from simplexion.jsonio import (
    complex_from_dict,
    complex_to_dict,
    dumps_canonical,
    load_complex,
    write_canonical,
)


def run(args):
    return main(args)


def test_complex_json_roundtrip():
    G = sx.cross_polytope(2)
    d = complex_to_dict(G, name="octahedron")
    assert d["name"] == "octahedron"
    assert len(d["facets"]) == 8
    assert complex_from_dict(d) == G
    assert complex_from_dict({"facets": []}).is_empty


def test_generate_and_analyze(tmp_path):
    out = tmp_path / "oct.json"
    assert run(["generate", "cross-polytope", "--dim", "2", "-o", str(out)]) == 0
    G = load_complex(str(out))
    assert G.f_vector() == (6, 12, 8)
    rep = tmp_path / "rep.json"
    assert run(["analyze", "-i", str(out), "--betti", "--wu", "--no-meta",
                "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["betti"] == [1, 0, 1]
    assert data["wu"] == 2
    assert "meta" not in data


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for f in (a, b):
        assert run(["generate", "erdos-renyi", "--n", "6", "--p", "0.5",
                    "--seed", "7", "-o", str(f)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_refine(tmp_path):
    oct_ = tmp_path / "oct.json"
    ref = tmp_path / "oct1.json"
    run(["generate", "cross-polytope", "--dim", "2", "-o", str(oct_)])
    assert run(["generate", "refine", "-i", str(oct_), "-o", str(ref)]) == 0
    assert load_complex(str(ref)).f_vector() == (26, 72, 48)


def test_generate_join_union_product(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["generate", "path", "--n", "1", "-o", str(a)])
    run(["generate", "cycle", "--n", "4", "-o", str(b)])
    out = tmp_path / "j.json"
    assert run(["generate", "join", "-i", str(a), "-i", str(b), "-o", str(out)]) == 0
    assert load_complex(str(out)).f_vector() == (5, 8, 4)  # cone over C4
    assert run(["generate", "union", "-i", str(a), "-i", str(b), "-o", str(out)]) == 0
    assert load_complex(str(out)).euler_characteristic() == 1
    assert run(["generate", "product", "-i", str(a), "-i", str(b), "-o", str(out)]) == 0
    assert load_complex(str(out)).f_vector() == sx.barycentric(sx.cycle(4)).f_vector()


def test_generate_whitney(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    out = tmp_path / "w.json"
    assert run(["generate", "whitney", "-i", str(g), "-o", str(out)]) == 0
    assert load_complex(str(out)).f_vector() == (3, 3, 1)


@pytest.mark.parametrize("graph, message", [
    ({"n": "3", "edges": []}, "\"n\" must be an integer, not '3'"),
    ({"n": 2.7, "edges": []}, '"n" must be an integer, not 2.7'),
    ({"n": True, "edges": []}, '"n" must be an integer, not True'),
    ({"edges": [[0, 1]]}, '"n" must be an integer, not None'),
    ({"n": 3, "edges": [[0, 1.9]]}, "edge [0, 1.9]: must be a pair of integer vertices"),
    ({"n": 3, "edges": [[0, True]]}, "edge [0, True]: must be a pair of integer vertices"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "edge [0, 1, 2]: must be a pair of integer vertices"),
    ({"n": 3, "edges": [5]}, "edge 5: must be a pair of integer vertices"),
    ([1], "graph JSON must be an object"),
    ({"n": 3, "edges": 5}, '"edges" must be a list'),
    ({"n": -1, "edges": []}, "vertex count must be >= 0"),
    ({"n": 3, "edges": [[0, 3]]}, "edge (0, 3) outside vertex range 0..2"),
    ({"n": 3, "edges": [[1, 1]]}, "self-loop at vertex 1"),
    ({"n": 3, "edges": [[0, 1], [1, 0]]}, "duplicate edge (0, 1)"),
], ids=["n-string", "n-float", "n-bool", "n-missing", "edge-float", "edge-bool",
        "edge-triple", "edge-int", "top-level-list", "edges-int", "n-negative",
        "out-of-range", "self-loop", "duplicate"])
def test_generate_whitney_rejects_malformed_graphs(tmp_path, capsys, graph, message):
    g, out = tmp_path / "g.json", tmp_path / "w.json"
    g.write_text(json.dumps(graph))
    assert run(["generate", "whitney", "-i", str(g), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_usage_errors(tmp_path):
    assert run(["generate", "cycle", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["generate", "cycle", "--n", "2", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["generate", "join", "-o", str(tmp_path / "x.json")]) == 2


# every usage error the subcommands detect themselves, with its message
USAGE_ERRORS = {
    "--n required": ["generate", "cycle"],
    "--dim required": ["generate", "cross-polytope"],
    "whitney needs one --input graph file": ["generate", "whitney"],
    "join needs two --input files": ["generate", "join", "-i", "K2"],
    "refine needs one --input file": ["generate", "refine"],
    "--level needs --level-value": ["analyze", "-i", "K2", "--level", "f"],
    "unknown suite(s): nonsense, other": ["verify", "-i", "K2", "--suite", "nonsense,energy,other"],
}


@pytest.mark.parametrize("message", USAGE_ERRORS)
def test_usage_errors_exit_2_with_their_message(tmp_path, capsys, monkeypatch, message):
    monkeypatch.chdir(tmp_path)
    write_canonical(complex_to_dict(sx.complete(2)), "K2")
    write_canonical({"values": {"0": 0, "1": 1}}, "f")
    argv = USAGE_ERRORS[message]
    assert run([*argv, *(["-o", "out.json"] if argv[0] == "generate" else ["--no-meta"])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_generate_named_and_whitney_capped_before_building(tmp_path, capsys, monkeypatch):
    # K12 and the 7-dimensional cross polytope have 4095 and 6560 simplices
    graph, out = tmp_path / "k12-graph.json", tmp_path / "out.json"
    graph.write_text(json.dumps({"n": 12, "edges": [[a, b] for a in range(12)
                                                     for b in range(a + 1, 12)]}))
    monkeypatch.setenv("SIMPLEXION_CAP", "1000")
    for argv in (["complete", "--n", "12"], ["cross-polytope", "--dim", "7"],
                 ["whitney", "-i", str(graph)]):
        assert run(["generate", *argv, "-o", str(out)]) == 3
        assert not out.exists()
    assert capsys.readouterr().err == (
        "resource cap: closure could have 4095 simplices (cap 1000)\n"
        "resource cap: cross polytope would have 6560 simplices (cap 1000)\n"
        "resource cap: closure could have 4095 simplices (cap 1000)\n")
    assert run(["generate", "complete", "--n", "9", "-o", str(out)]) == 0
    assert run(["generate", "cross-polytope", "--dim", "5", "-o", str(out)]) == 0


@pytest.mark.parametrize("kind, n, message", [
    ("join", 8, "join would have 65535 simplices (cap 1000)"),
    ("union", 9, "disjoint union would have 1022 simplices (cap 1000)"),
])
def test_generate_join_and_union_capped_before_building(tmp_path, capsys, monkeypatch,
                                                        kind, n, message):
    # each input fits under the cap (K8 has 255 simplices, K9 511); what the
    # two make does not, and it is refused before any simplex is relabeled
    from simplexion import core

    def never(*args):
        raise AssertionError("built before the cap was checked")

    a, out = tmp_path / "a.json", tmp_path / "out.json"
    write_canonical(complex_to_dict(sx.complete(n)), str(a))
    monkeypatch.setenv("SIMPLEXION_CAP", "1000")
    monkeypatch.setattr(core, "_relabel", never)
    assert run(["generate", kind, "-i", str(a), "-i", str(a), "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"resource cap: {message}\n"
    assert not out.exists()


# every generate kind but refine and product, with the arguments it needs
CAP_IGNORED = {
    "complete": ["--n", "12"], "cycle": ["--n", "5"], "path": ["--n", "5"],
    "cross-polytope": ["--dim", "8"], "icosahedron": [], "whitney": ["-i", "g"],
    "erdos-renyi": ["--n", "5"], "join": ["-i", "K2", "-i", "K2"],
    "union": ["-i", "K2", "-i", "K2"],
}


@pytest.mark.parametrize("kind", CAP_IGNORED)
def test_cap_simplices_is_a_usage_error_outside_refine_and_product(
        tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SIMPLEXION_CAP", "1000")
    write_canonical(complex_to_dict(sx.complete(2)), "K2")
    write_canonical({"n": 2, "edges": [[0, 1]]}, "g")
    assert run(["generate", kind, *CAP_IGNORED[kind], "--cap-simplices", "10",
                "-o", "out.json"]) == 2
    assert capsys.readouterr() == (
        "", "error: --cap-simplices applies to generate refine|product only\n")
    assert not (tmp_path / "out.json").exists()


def test_generate_resource_cap(tmp_path):
    oct_ = tmp_path / "oct.json"
    run(["generate", "cross-polytope", "--dim", "2", "-o", str(oct_)])
    code = run(["generate", "refine", "-i", str(oct_), "-o",
                str(tmp_path / "r.json"), "--cap-simplices", "10"])
    assert code == 3


def test_generate_product_capped_before_building(tmp_path, capsys):
    # K4 x K4 has 213,633 simplices (11,520 facets); the prediction refuses
    # it at once, and K5 x K5 (38,928,961) under the default cap
    k4, k5, out = (str(tmp_path / f) for f in ("k4.json", "k5.json", "p.json"))
    run(["generate", "complete", "--n", "4", "-o", k4])
    run(["generate", "complete", "--n", "5", "-o", k5])
    t0 = time.monotonic()
    assert run(["generate", "product", "-i", k4, "-i", k4, "-o", out,
                "--cap-simplices", "10"]) == 3
    assert run(["generate", "product", "-i", k5, "-i", k5, "-o", out]) == 3
    assert time.monotonic() - t0 < 1
    err = capsys.readouterr().err
    assert "product would have 213633 simplices (cap 10)" in err
    assert "product would have 38928961 simplices (cap 5000000)" in err


def test_verify_pass_and_skip(tmp_path):
    k2 = tmp_path / "k2.json"
    run(["generate", "complete", "--n", "2", "-o", str(k2)])
    rep = tmp_path / "rep.json"
    assert run(["verify", "-i", str(k2), "--suite", "hydrogen,unimodularity",
                "--no-meta", "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["pass"] is True
    statuses = {c["theorem"]: c["status"] for c in data["checks"]}
    assert statuses == {"hydrogen": "pass", "unimodularity": "pass"}
    oct_ = tmp_path / "oct.json"
    run(["generate", "cross-polytope", "--dim", "2", "-o", str(oct_)])
    assert run(["verify", "-i", str(oct_), "--suite", "hydrogen",
                "--no-meta", "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["checks"][0]["status"] == "skipped:dim!=1"


def test_verify_all_octahedron(tmp_path):
    oct_ = tmp_path / "oct.json"
    run(["generate", "cross-polytope", "--dim", "2", "-o", str(oct_)])
    rep = tmp_path / "rep.json"
    assert run(["verify", "-i", str(oct_), "--suite", "all", "--no-meta",
                "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["pass"] is True
    for c in data["checks"]:
        assert c["status"] == "pass" or c["status"].startswith("skipped:")


def test_verify_all_empty_complex(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"facets": []}')
    rep = tmp_path / "rep.json"
    assert run(["verify", "-i", str(empty), "--suite", "all", "--no-meta",
                "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["pass"] is True
    for c in data["checks"]:
        assert c["status"] == "pass" or c["status"].startswith("skipped:")
    trees = next(c for c in data["checks"] if c["theorem"] == "trees")
    assert trees["witness"]["computed"]["tree"] == 0  # no vertex, no spanning tree


def test_analyze_format_choices(tmp_path, capsys):
    k2 = tmp_path / "k2.json"
    run(["generate", "complete", "--n", "2", "-o", str(k2)])
    with pytest.raises(SystemExit) as exc:  # argparse exits with usage code 2
        run(["analyze", "-i", str(k2), "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert run(["analyze", "-i", str(k2), "--format", "table", "--no-meta"]) == 0


def test_flag_suites_on_a_dense_skeleton(tmp_path, capsys, monkeypatch):
    # the 1-skeleton of K26 is not flag; its clique complex (the refinement,
    # 1001 simplices) is decided and built without closing the 2^26 - 1
    # cliques of the skeleton, and only by the suites that do not skip
    from simplexion import geometry

    path = tmp_path / "k26.json"
    path.write_text(json.dumps({"facets": [[a, b] for a in range(26) for b in range(a + 1, 26)]}))
    t0 = time.monotonic()
    assert run(["verify", "-i", str(path), "--suite",
                "gauss-bonnet,poincare-hopf,dehn-sommerville,sard", "--no-meta"]) == 0
    assert [c["status"] for c in json.loads(capsys.readouterr().out)["checks"]] == [
        "pass", "pass", "skipped:size", "skipped:not-applicable"]
    assert run(["analyze", "-i", str(path), "--dimension", "--no-meta"]) == 0
    assert json.loads(capsys.readouterr().out)["inductive_dimension"] == "1"
    assert time.monotonic() - t0 < 10
    refinements = _count_calls(monkeypatch, geometry, "barycentric")
    assert run(["verify", "-i", str(path), "--suite", "dehn-sommerville,sard", "--no-meta"]) == 0
    assert refinements == []


def test_trees_skips_before_any_charpoly(tmp_path, capsys, monkeypatch):
    from simplexion import spectral

    calls = _count_calls(monkeypatch, spectral, "charpoly")
    for n, status in ((7, "pass"), (8, "skipped:size")):
        path = tmp_path / f"c{n}.json"
        write_canonical(complex_to_dict(sx.cycle(n)), str(path))
        assert run(["verify", "-i", str(path), "--suite", "trees", "--no-meta"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["status"] == status
    assert len(calls) == 1  # C7's; C8 skips on its vertex count
    assert check["witness"] == {}


def test_zeta_symmetry_skips_before_any_charpoly(tmp_path, capsys, monkeypatch):
    # above the charpoly cap the exact half refuses before L or g is built
    from simplexion import connection, errors, refinement

    monkeypatch.setattr(errors, "CHARPOLY_CAP", 10)
    calls = _count_calls(monkeypatch, connection, "charpoly")
    builds = _count_calls(monkeypatch, refinement, "_build_connection")
    for n, status in ((5, "pass"), (6, "skipped:size")):
        path = tmp_path / f"c{n}.json"
        write_canonical(complex_to_dict(sx.cycle(n)), str(path))
        assert run(["verify", "-i", str(path), "--suite", "zeta-symmetry", "--no-meta"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["status"] == status
    assert len(calls) == 1 and len(builds) == 1  # C5's L; C6 skips on its 12 rows
    assert check["witness"] == {}


def test_small_suites_compute_no_charpoly(tmp_path, capsys, monkeypatch):
    # dual-product reads its spectrum from a rank-one certificate, and the
    # inertia from the pivots of L and a numeric eigensolve
    import sys

    from simplexion import exact

    real = exact.charpoly
    calls = [_count_calls(monkeypatch, module, "charpoly")
             for name, module in list(sys.modules.items())
             if name.startswith("simplexion") and getattr(module, "charpoly", None) is real]
    assert len(calls) >= 3  # exact, connection, spectral
    path = tmp_path / "e.json"
    write_canonical(complex_to_dict(sx.erdos_renyi(sx.RandomModel(n=7, p=0.8, seed=4))), str(path))
    assert run(["verify", "-i", str(path), "--suite",
                "unimodularity,energy,inertia,dual-product", "--no-meta"]) == 0
    assert [c["status"] for c in json.loads(capsys.readouterr().out)["checks"]] == ["pass"] * 4
    assert not any(calls)


def test_verify_unknown_suite(tmp_path):
    k2 = tmp_path / "k2.json"
    run(["generate", "complete", "--n", "2", "-o", str(k2)])
    assert run(["verify", "-i", str(k2), "--suite", "nonsense"]) == 2


def test_verify_and_spectra_reject_bad_counts(tmp_path, capsys):
    # no trial run and a negative number of refinements are usage errors,
    # not a pass or an empty limit experiment
    ico = tmp_path / "ico.json"
    run(["generate", "icosahedron", "-o", str(ico)])
    capsys.readouterr()
    for trials in ("0", "-3"):
        assert run(["verify", "-i", str(ico), "--suite", "poincare-hopf",
                    "--trials", trials, "--no-meta"]) == 2
        assert capsys.readouterr() == ("", "error: --trials must be >= 1\n")
    assert run(["spectra", "-i", str(ico), "--limit-levels", "-1", "--no-meta"]) == 2
    assert capsys.readouterr() == ("", "error: --limit-levels must be >= 0\n")


def test_verify_takes_no_cap_simplices(tmp_path, capsys, monkeypatch):
    # --cap-simplices belongs to generate refine|product; verify refuses it
    # as a usage error, and SIMPLEXION_CAP still caps the closure
    ico = tmp_path / "ico.json"
    run(["generate", "icosahedron", "-o", str(ico)])
    with pytest.raises(SystemExit) as exc:
        run(["verify", "-i", str(ico), "--suite", "unimodularity",
             "--cap-simplices", "10", "--no-meta"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-simplices 10" in capsys.readouterr().err
    monkeypatch.setenv("SIMPLEXION_CAP", "10")
    assert run(["verify", "-i", str(ico), "--suite", "unimodularity", "--no-meta"]) == 3


def test_verify_byte_identical(tmp_path):
    c5 = tmp_path / "c5.json"
    run(["generate", "cycle", "--n", "5", "-o", str(c5)])
    reps = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert run(["verify", "-i", str(c5), "--suite",
                    "unimodularity,energy,zeta-symmetry", "--no-meta",
                    "-o", str(rep)]) == 0
        reps.append(rep.read_bytes())
    assert reps[0] == reps[1]


def test_parser_built_once(monkeypatch, capsys):
    import simplexion.cli as cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run([]) == 2
        help_text = capsys.readouterr().out
        assert run(["random", "--n", "11", "--p", "0.5"]) == 2
        assert run(["verify", "-i", "missing.json"]) == 2
        assert built == [1]
        assert help_text == real().format_help()
    finally:
        cli._parser.cache_clear()


def test_spectra_cmd(tmp_path):
    c4 = tmp_path / "c4.json"
    run(["generate", "cycle", "--n", "4", "-o", str(c4)])
    rep = tmp_path / "s.json"
    csv = tmp_path / "e.csv"
    assert run(["spectra", "-i", str(c4), "--operator", "kirchhoff",
                "--zeta", "--csv", str(csv), "--no-meta", "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["order"] == 4
    assert abs(data["max"] - 4.0) < 1e-9
    assert data["zeta_symmetry_gap"] < 1e-8
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5


def test_random_cmd_formula_column():
    stats = random_statistics(2, 0.3, trials=500, seed=9, wu_sample=10)
    assert abs(stats["chi"]["formula"] - (2 - 0.3)) < 1e-12
    assert abs(stats["dim"]["formula"] - 0.3) < 1e-12
    stats = random_statistics(4, 0.0, trials=50, seed=9, wu_sample=0)
    assert stats["dim"]["mean"] == 0.0
    assert stats["chi"]["mean"] == 4.0


def test_random_cmd_z_scores():
    stats = random_statistics(5, 0.5, trials=3000, seed=11, wu_sample=50)
    assert abs(stats["chi"]["z"]) < 4
    assert abs(stats["dim"]["z"]) < 4


def test_malformed_vertices_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for doc in ({"facets": [[0, 1.7, 2]]}, {"facets": [[True, 2]]}, [1, 2],
                {"facets": 5}):
        path.write_text(json.dumps(doc))
        assert run(["analyze", "-i", str(path), "--betti"]) == 2
        assert run(["verify", "-i", str(path), "--suite", "unimodularity"]) == 2


def test_closure_size_capped_before_closing(tmp_path, capsys):
    # one 40-vertex facet closes to 2^40 - 1 simplices
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"facets": [list(range(40))]}))
    t0 = time.monotonic()
    assert run(["verify", "-i", str(path), "--suite", "unimodularity"]) == 3
    assert time.monotonic() - t0 < 1
    assert "1099511627775" in capsys.readouterr().err


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's first
    argument; returns the record."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("refined", [False, True])
def test_verify_factors_connection_matrix_once(tmp_path, monkeypatch, refined):
    # one sparse factorization and one dense L (the eigensolve and the dual
    # product read it) per complex
    from simplexion import connection as conn
    from simplexion import refinement

    G = sx.cross_polytope(2)
    if refined:
        G = sx.barycentric(G)
    path = tmp_path / "g.json"
    write_canonical(complex_to_dict(G), str(path))
    builds = _count_calls(monkeypatch, refinement, "_build_connection")
    factors = _count_calls(monkeypatch, conn, "ldl")
    rep = tmp_path / "rep.json"
    assert run(["verify", "-i", str(path), "--suite",
                "unimodularity,energy,inertia,dual-product", "--no-meta",
                "-o", str(rep)]) == 0
    assert [c["status"] for c in json.loads(rep.read_text())["checks"]] == ["pass"] * 4
    assert len(builds) == 1 and len(factors) == 1


def test_verify_reports_a_broken_invariant(tmp_path, monkeypatch, capsys):
    # a check that raises InvariantViolation fails with the message and the
    # witness, and the remaining suites still run
    from simplexion import connection as conn
    from simplexion.errors import InvariantViolation

    def broken(G):
        raise InvariantViolation("L x != 1", witness={"n": len(G)})

    path = tmp_path / "c4.json"
    write_canonical(complex_to_dict(sx.cycle(4)), str(path))
    monkeypatch.setattr(conn, "energy", broken)
    assert run(["verify", "-i", str(path), "--suite", "unimodularity,energy,inertia",
                "--no-meta"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in rep["checks"]] == ["pass", "fail", "pass"]
    assert rep["checks"][1]["witness"] == {"invariant": "L x != 1", "n": 8}
    assert rep["pass"] is False


def _octahedron_3(tmp_path) -> str:
    path = tmp_path / "oct_3.json"
    G = sx.barycentric(sx.barycentric(sx.barycentric(sx.cross_polytope(2))))
    assert len(G) == 5186
    write_canonical(complex_to_dict(G), str(path))
    return str(path)


def test_connection_suites_build_no_dense_matrix(tmp_path, monkeypatch, capsys):
    # unimodularity, energy and inertia read the sparse factor of L's
    # entries alone, above the exact dense cap
    from simplexion import refinement

    def refuse(G):
        raise AssertionError("dense L built")

    path = _octahedron_3(tmp_path)
    monkeypatch.setattr(refinement, "_build_connection", refuse)
    t0 = time.monotonic()
    assert run(["verify", "-i", path, "--suite", "unimodularity,energy,inertia",
                "--no-meta"]) == 0
    assert time.monotonic() - t0 < 5
    rep = json.loads(capsys.readouterr().out)
    assert [c["witness"] for c in rep["checks"]] == [
        {"det": 1}, {"chi": 2, "sum_g": 2}, {"chi": 2, "n": 2592, "p": 2594, "z": 0}]


def test_entry_cap_refuses_before_listing_entries(tmp_path, monkeypatch, capsys):
    # below oct_3's predicted count the three suites are skipped, and the
    # factor's memo, which lists the entries, is never asked for
    from simplexion import errors
    from simplexion.core import Complex

    path = _octahedron_3(tmp_path)
    keys, memo = [], Complex.memo
    monkeypatch.setattr(Complex, "memo", lambda G, key, build: (keys.append(key), memo(G, key, build))[1])
    monkeypatch.setattr(errors, "ENTRY_CAP", 100_000)
    assert run(["verify", "-i", path, "--suite", "unimodularity,energy,inertia",
                "--no-meta"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {c["status"] for c in rep["checks"]} == {"skipped:resource-cap"}
    assert "entry cap is 100000" in rep["checks"][0]["witness"]["reason"]
    assert "ldl" not in keys and "vertex_stars" in keys


def test_stokes_builds_no_dense_coboundary(tmp_path, monkeypatch, capsys):
    # the Stokes pairing applies d_k and d_k^T through their entries, above
    # the exact dense cap
    from simplexion.cohomology import ChainComplexData

    def refuse(data, k):
        raise AssertionError("dense d_k built")

    path = _octahedron_3(tmp_path)
    monkeypatch.setattr(ChainComplexData, "dense", refuse)
    assert run(["verify", "-i", path, "--suite", "stokes", "--no-meta"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"] == [{"status": "pass", "theorem": "stokes", "witness": {}}]


@pytest.mark.parametrize("operator", ["hodge", "kirchhoff"])
def test_spectra_refuses_above_the_dense_cap(tmp_path, monkeypatch, capsys, operator):
    # the icosahedron's 30-row Hodge block and 12-vertex Kirchhoff matrix
    # are both above a cap of 11, refused before a coboundary is built
    from simplexion import cohomology as coh
    from simplexion import errors

    path = tmp_path / "ico.json"
    run(["generate", "icosahedron", "-o", str(path)])
    monkeypatch.setattr(errors, "DEFAULT_EXACT_CAP", 11)
    chains = _count_calls(monkeypatch, coh, "exterior_derivative")
    assert run(["spectra", "-i", str(path), "--operator", operator, "--no-meta"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("resource cap:")
    assert "exact dense cap is 11" in out.err
    assert chains == []


@pytest.mark.parametrize("cap, line", [
    (None, "Kirchhoff matrix has 12962 vertices; exact dense cap is 3000"),
    ("2000", "refinement would have 2162 simplices (cap 2000)")])
def test_spectra_limit_levels_refuse_before_refining(tmp_path, monkeypatch, capsys, cap, line):
    # the icosahedron's third refinement has 12,962 vertices, over the dense
    # cap, and under a simplex cap of 2000 its second one (2162) is over
    # that: each is refused, with the line the refinement would write,
    # before the first refinement is built
    from simplexion import spectral as spec

    def refine(G):
        raise AssertionError("refined before the levels were checked")

    path = tmp_path / "ico.json"
    run(["generate", "icosahedron", "-o", str(path)])
    capsys.readouterr()
    if cap:
        monkeypatch.setenv("SIMPLEXION_CAP", cap)
    monkeypatch.setattr(spec, "barycentric", refine)
    assert run(["spectra", "-i", str(path), "--operator", "kirchhoff",
                "--limit-levels", "3", "--no-meta"]) == 3
    assert capsys.readouterr() == ("", f"resource cap: {line}\n")


def test_spectra_connection_eigensolves_once(tmp_path, monkeypatch):
    from simplexion import spectral as spec

    path = tmp_path / "c6.json"
    run(["generate", "cycle", "--n", "6", "-o", str(path)])
    solves = _count_calls(monkeypatch, spec, "eig_symmetric")
    assert run(["spectra", "-i", str(path), "--operator", "connection", "--zeta",
                "--no-meta", "-o", str(tmp_path / "s.json")]) == 0
    assert len(solves) == 1


def test_spectra_hodge_eigensolves_each_degree_block(tmp_path, monkeypatch):
    # one certified eigensolve per degree block H_k, never the n x n H; the
    # CSV lists all n eigenvalues in ascending order
    from simplexion import cohomology as coh
    from simplexion import spectral as spec

    def never(G):
        raise AssertionError("the whole Hodge operator was formed")

    path, csv = tmp_path / "ico.json", tmp_path / "e.csv"
    run(["generate", "icosahedron", "-o", str(path)])
    monkeypatch.setattr(coh, "hodge", never)
    solves = _count_calls(monkeypatch, spec, "eig_symmetric")
    assert run(["spectra", "-i", str(path), "--operator", "hodge", "--csv", str(csv),
                "--no-meta", "-o", str(tmp_path / "s.json")]) == 0
    assert [M.shape for M in solves] == [(12, 12), (30, 30), (20, 20)]
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [int(i) for i, _ in rows] == list(range(62))
    vals = [float(v) for _, v in rows]
    assert vals == sorted(vals)
    assert json.loads((tmp_path / "s.json").read_text())["order"] == 62


@pytest.mark.parametrize("facets, want", [
    ([], b'{"max":null,"min":null,"operator":"hodge","order":0}\n'),
    ([[0]], b'{"max":0.0,"min":0.0,"operator":"hodge","order":1}\n'),
], ids=["empty", "point"])
def test_spectra_hodge_small_reports_pinned(tmp_path, capsysbinary, facets, want):
    path, csv = tmp_path / "g.json", tmp_path / "e.csv"
    path.write_text(json.dumps({"facets": facets}))
    assert run(["spectra", "-i", str(path), "--operator", "hodge", "--csv", str(csv),
                "--no-meta"]) == 0
    assert capsysbinary.readouterr().out == want
    assert csv.read_text() == "index,eigenvalue\n" + "0,0.0\n" * len(facets)


def test_verify_all_builds_each_derived_object_once(tmp_path, monkeypatch):
    from simplexion import cohomology as coh
    from simplexion import refinement

    ico = sx.icosahedron()
    path = tmp_path / "ico.json"
    write_canonical(complex_to_dict(ico), str(path))
    chains = _count_calls(monkeypatch, coh, "_chain_complex")
    builds = _count_calls(monkeypatch, refinement, "_build_connection")
    reductions = _count_calls(monkeypatch, coh, "_reduce")
    assert run(["verify", "-i", str(path), "--suite", "all", "--no-meta",
                "-o", str(tmp_path / "rep.json")]) == 0
    # the Kuenneth partner and product, the Alexander dual and the unit
    # spheres are other complexes, with memos of their own; euler-poincare,
    # kuenneth and alexander read the Betti numbers of ico and lefschetz
    # its class cocycles, all from one reduction
    assert sum(G == ico for G in chains) == 1
    assert sum(G == ico for G in builds) == 1
    assert [data.dims for data in reductions].count(ico.f_vector()) == 1


def test_random_cap():
    assert main(["random", "--n", "11", "--p", "0.5"]) == 2


def test_random_rejects_bad_sizes(capsys):
    assert main(["random", "--n", "8", "--p", "0.5", "--wu-sample", "-5"]) == 2
    assert capsys.readouterr().err == "error: wu_sample must be >= 0\n"
    assert main(["random", "--n", "11", "--p", "0.5"]) == 2
    assert capsys.readouterr().err == "error: n capped at 10\n"
    with pytest.raises(ValueError, match="n capped at 10"):
        random_statistics(40, 0.5, trials=1, seed=0)


def test_random_statistics_matches_oracle():
    from oracles import random_statistics_oracle

    # trial counts one past a block; wu_sample 0, inside and beyond the trials
    for n in range(11):
        trials = block_trials(n) + 1
        for i, p in enumerate((0.0, 0.5, 1.0)):
            j = n + i
            seed = (-5, 0, 2 ** 64 + 3)[j % 3]
            wu = (0, trials // 2, trials + 5)[(j // 3 + j) % 3]
            got = random_statistics(n, p, trials, seed, wu_sample=wu)
            assert repr(got) == repr(random_statistics_oracle(n, p, trials, seed, wu)), (
                n, p, seed, wu)


RANDOM_PINNED = {
    ("--n", "8", "--p", "0.2", "--seed", "7"):
        b'{"chi":{"formula":2.8435257334825126,"mean":2.839,"stderr":0.05222144195634588,'
        b'"z":-0.08666427645364275},"dim":{"formula":0.9051566209150989,'
        b'"mean":0.9057354166666669,"stderr":0.00847362175140818,"z":0.06830559217159585},'
        b'"n":8,"p":0.2,"seed":7,"trials":1000,'
        b'"wu":{"mean":2.679,"sample":1000,"stderr":0.09172763487630098}}',
    ("--n", "8", "--p", "0.5", "--seed", "7"):
        b'{"chi":{"formula":-0.03991318121552467,"mean":-0.068,"stderr":0.03460312124650029,'
        b'"z":-0.811684546731922},"dim":{"formula":1.9694229178130627,'
        b'"mean":1.978561855158726,"stderr":0.01568189513049441,"z":0.5827699566675569},'
        b'"n":8,"p":0.5,"seed":7,"trials":1000,'
        b'"wu":{"mean":2.68,"sample":1000,"stderr":0.14041225017782447}}',
    ("--n", "8", "--p", "0.8", "--seed", "7"):
        b'{"chi":{"formula":1.0215644908961588,"mean":1.03,"stderr":0.010153817016275208,'
        b'"z":0.8307722199760235},"dim":{"formula":3.8178432283677086,'
        b'"mean":3.8311826388888712,"stderr":0.025267473436694013,"z":0.527928150576021},'
        b'"n":8,"p":0.8,"seed":7,"trials":1000,'
        b'"wu":{"mean":0.28,"sample":1000,"stderr":0.03843956295277052}}',
    ("--n", "10", "--p", "0.5", "--trials", "300", "--seed", "3"):
        b'{"chi":{"formula":-0.5415078884398383,"mean":-0.5333333333333333,'
        b'"stderr":0.08423951742677718,"z":0.09703943417779548},'
        b'"dim":{"formula":2.246465740962634,"mean":2.2639572696208106,'
        b'"stderr":0.02544845822899568,"z":0.687331566446208},'
        b'"n":10,"p":0.5,"seed":3,"trials":300,'
        b'"wu":{"mean":1.7333333333333334,"sample":300,"stderr":0.2968476351910496}}',
}


def test_random_outputs_pinned(capsysbinary):
    for args, want in RANDOM_PINNED.items():
        assert main(["random", *args, "--no-meta"]) == 0
        assert capsysbinary.readouterr().out == want + b"\n", args


def test_random_memory_flat_in_trials():
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            random_statistics(8, 0.5, trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    random_statistics(8, 0.5, 10, 1)  # build the lazy per-n tables first
    assert peak(20000) <= peak(1000) + 256 * 1024


def test_analyze_morse_and_level(tmp_path):
    c4 = tmp_path / "c4.json"
    run(["generate", "cycle", "--n", "4", "-o", str(c4)])
    func = tmp_path / "f.json"
    func.write_text(json.dumps({"values": {"0": 0, "1": 1, "2": 3, "3": 2}}))
    rep = tmp_path / "rep.json"
    assert run(["analyze", "-i", str(c4), "--morse", str(func), "--level",
                str(func), "--level-value", "1.5", "--no-meta",
                "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["morse"]["is_morse"] is True
    assert data["morse"]["counts"] == [1, 1]
    level = complex_from_dict(data["level_surface"])
    assert level.f_vector() == (2,)  # crossing edges {1,2} and {0,3}


def test_function_values_rejected(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"facets": [[0, 1], [1, 2]]}))
    func = tmp_path / "f.json"
    for values in ({"1": "x"}, {"1": True}, {"1": None}, {"x": 1}, {"1": float("nan")}):
        func.write_text(json.dumps({"values": {"0": 0, "2": 2, **values}}))
        assert run(["analyze", "-i", str(path), "--morse", str(func)]) == 2
        assert run(["analyze", "-i", str(path), "--level", str(func),
                    "--level-value", "0.5"]) == 2


def test_canonical_dump_is_stable():
    a = dumps_canonical({"b": 1, "a": [3, 2]})
    assert a == '{"a":[3,2],"b":1}\n'


# outputs of the refined-large benchmark inputs, recorded before the float64
# product and the Schur-complement tier came in: statuses and exact witness
# fields must not move; floats may move by 1e-12 relative, or 1e-12 absolute
# for the rounding-level ones (the Hodge kernel's eigenvalue, numeric_max_err)
REFINED_LARGE_PINNED = {
    "suspC12_1": (
        {"checks": [
            {"status": "pass", "theorem": "unimodularity", "witness": {"det": 1}},
            {"status": "pass", "theorem": "energy", "witness": {"chi": 2, "sum_g": 2}},
            {"status": "pass", "theorem": "inertia", "witness": {
                "chi": 2, "n": 216, "numeric_signs_ok": True, "p": 218, "z": 0}},
            {"status": "pass", "theorem": "euler-poincare",
             "witness": {"betti": [1, 0, 1], "chi": 2}},
            {"status": "pass", "theorem": "mckean-singer",
             "witness": {"numeric_max_err": 1.2878587085651816e-13}}],
         "input": "suspC12_1.json", "pass": True, "simplices": 434},
        {"max": 25.116772388335225, "min": -4.816459796677618e-16,
         "operator": "hodge", "order": 434},
        {"betti": [1, 0, 1], "euler_characteristic": 2, "euler_poly": [74, 216, 144],
         "f_vector": [74, 216, 144], "max_dim": 2, "poincare_poly": [1, 0, 1],
         "simplices": 434},
    ),
    "joinC4K2_1": (
        {"checks": [
            {"status": "pass", "theorem": "unimodularity", "witness": {"det": 1}},
            {"status": "pass", "theorem": "energy", "witness": {"chi": 1, "sum_g": 1}},
            {"status": "pass", "theorem": "inertia", "witness": {
                "chi": 1, "n": 250, "numeric_signs_ok": True, "p": 251, "z": 0}},
            {"status": "pass", "theorem": "euler-poincare",
             "witness": {"betti": [1, 0, 0, 0], "chi": 1}},
            {"status": "pass", "theorem": "mckean-singer",
             "witness": {"numeric_max_err": 6.417089082333405e-14}}],
         "input": "joinC4K2_1.json", "pass": True, "simplices": 501},
        {"max": 19.24984650312242, "min": 5.133857764989732e-15,
         "operator": "hodge", "order": 501},
        {"betti": [1, 0, 0, 0], "euler_characteristic": 1,
         "euler_poly": [35, 154, 216, 96], "f_vector": [35, 154, 216, 96],
         "max_dim": 3, "poincare_poly": [1, 0, 0, 0], "simplices": 501},
    ),
}


def _matches(got, want):
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= max(1e-12 * abs(want), 1e-12)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_matches, got, want))
    return type(got) is type(want) and got == want


def test_refined_large_outputs_pinned(tmp_path, capsys):
    from simplexion.cohomology import mckean_singer

    inputs = {"suspC12_1": sx.join(sx.cycle(12), sx.cross_polytope(0)),
              "joinC4K2_1": sx.join(sx.cycle(4), sx.complete(2))}
    for name, base in inputs.items():
        G = sx.barycentric(base)
        path = str(tmp_path / f"{name}.json")
        write_canonical(complex_to_dict(G), path)
        outputs = []
        for argv in (["verify", "-i", path, "--suite",
                      "unimodularity,energy,inertia,euler-poincare,mckean-singer"],
                     ["spectra", "-i", path, "--operator", "hodge"],
                     ["analyze", "-i", path, "--betti"]):
            assert run(argv + ["--no-meta"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        for got, want in zip(outputs, REFINED_LARGE_PINNED[name]):
            assert _matches(got, want), (name, got)
        assert mckean_singer(G)["exact_zero_powers"] is True


HEAVY_PINNED = {
    ("verify", "K4", "--suite", "kuenneth"):
        b'{"checks":[{"status":"pass","theorem":"kuenneth","witness":{'
        b'"connection_kron_ok":true,"connection_spectrum_err":2.842170943040401e-14,'
        b'"euler_ok":true,"hodge_kron_ok":true,"hodge_spectrum_err":5.329070518200751e-15,'
        b'"poincare_ok":true}}],"input":"K4.json","pass":true,"simplices":15}',
    ("analyze", "cross3", "--interaction"):
        b'{"euler_characteristic":0,"f_vector":[8,24,32,16],'
        b'"interaction_betti":[0,0,0,1,0,0,1],'
        b'"interaction_euler_poly":[8,96,456,1088,1376,896,240],"max_dim":3,"simplices":80}',
    ("verify", "cross3", "--suite", "wu"):
        b'{"checks":[{"status":"pass","theorem":"wu","witness":{"gauss_bonnet_ok":true,'
        b'"interaction_alternating":0,"wu":0}}],"input":"cross3.json","pass":true,"simplices":80}',
}


@pytest.mark.parametrize("request_", HEAVY_PINNED, ids=lambda r: "-".join(r[:2]))
def test_heavy_requests_pinned(tmp_path, capsysbinary, request_):
    # the largest exact ranks the CLI meets on the named corpus: the Kuenneth
    # product of K4 with C4 (a 2208 x 2240 coboundary) and the interaction
    # cohomology of the 3-dimensional cross-polytope, each ranked by the
    # column reduction
    command, name, *flags = request_
    kind, size = {"K4": ("complete", "--n"), "cross3": ("cross-polytope", "--dim")}[name]
    path = tmp_path / f"{name}.json"
    assert run(["generate", kind, size, name[-1], "-o", str(path)]) == 0
    capsysbinary.readouterr()
    assert run([command, "-i", str(path), *flags, "--no-meta"]) == 0
    assert capsysbinary.readouterr().out == HEAVY_PINNED[request_] + b"\n"


# `verify` of the suites that take exact determinants, recorded before
# dual-product and trees read them from characteristic polynomials: cross0
# (det(-L Lbar) = -1) and the E(7, 0.8) complexes of seeds 4 (det 0, 95
# simplices) and 6 (det 1)
DETERMINANT_SUITES_PINNED = {
    "cross0": (
        ["cross-polytope", "--dim", "0"],
        b'{"checks":[{"status":"pass","theorem":"unimodularity","witness":{"det":1}}'
        b',{"status":"pass","theorem":"energy","witness":{"chi":2,"green_star_ok":true,"sum_g":2}}'
        b',{"status":"pass","theorem":"inertia","witness":'
        b'{"chi":2,"n":0,"numeric_signs_ok":true,"p":2,"z":0}}'
        b',{"status":"pass","theorem":"dual-product","witness":{"charpoly_ok":true,"det":-1}}'
        b',{"status":"pass","theorem":"trees","witness":{"bruteforce":{"forest":1,"tree":0}'
        b',"computed":{"forest":1,"kernel_dim":2,"tree":0}}}'
        b'],"input":"cross0.json","pass":true,"simplices":2}'),
    "E4": (
        ["erdos-renyi", "--n", "7", "--p", "0.8", "--seed", "4"],
        b'{"checks":[{"status":"pass","theorem":"unimodularity","witness":{"det":-1}}'
        b',{"status":"pass","theorem":"energy","witness":{"chi":1,"green_star_ok":true,"sum_g":1}}'
        b',{"status":"pass","theorem":"inertia","witness":'
        b'{"chi":1,"n":47,"numeric_signs_ok":true,"p":48,"z":0}}'
        b',{"status":"pass","theorem":"dual-product","witness":{"charpoly_ok":true,"det":0}}'
        b',{"status":"pass","theorem":"trees","witness":'
        b'{"bruteforce":{"forest":196608,"tree":84035}'
        b',"computed":{"forest":196608,"kernel_dim":1,"tree":84035}}}'
        b'],"input":"E4.json","pass":true,"simplices":95}'),
    "E6": (
        ["erdos-renyi", "--n", "7", "--p", "0.8", "--seed", "6"],
        b'{"checks":[{"status":"pass","theorem":"unimodularity","witness":{"det":1}}'
        b',{"status":"pass","theorem":"energy","witness":{"chi":0,"green_star_ok":true,"sum_g":0}}'
        b',{"status":"pass","theorem":"inertia","witness":'
        b'{"chi":0,"n":10,"numeric_signs_ok":true,"p":10,"z":0}}'
        b',{"status":"pass","theorem":"dual-product","witness":{"charpoly_ok":true,"det":1}}'
        b',{"status":"pass","theorem":"trees","witness":{"bruteforce":{"forest":3785,"tree":448}'
        b',"computed":{"forest":3785,"kernel_dim":1,"tree":448}}}'
        b'],"input":"E6.json","pass":true,"simplices":20}'),
}


@pytest.mark.parametrize("name", DETERMINANT_SUITES_PINNED)
def test_determinant_suites_pinned(tmp_path, capsysbinary, name):
    generate, want = DETERMINANT_SUITES_PINNED[name]
    path = str(tmp_path / f"{name}.json")
    assert run(["generate", *generate, "-o", path]) == 0
    capsysbinary.readouterr()
    assert run(["verify", "-i", path, "--suite",
                "unimodularity,energy,inertia,dual-product,trees", "--no-meta"]) == 0
    assert capsysbinary.readouterr().out == want + b"\n"


# requests whose ranks and Lefschetz maps come from cleared ranks and one
# factorization per degree, recorded before either: the Alexander dual of
# C11, the Kuenneth product of C9 with C4, every automorphism of the
# octahedron and of K5, and the ordinary and quadratic cohomology of the
# icosahedron
COHOMOLOGY_PINNED = {
    ("C11", "verify", "--suite", "alexander"):
        b'{"checks":[{"status":"pass","theorem":"alexander","witness":'
        b'{"reduced_G":{"1":1},"reduced_dual":{"7":1}}}],"input":"C11.json",'
        b'"pass":true,"simplices":22}',
    ("C9", "verify", "--suite", "kuenneth"):
        b'{"checks":[{"status":"pass","theorem":"kuenneth","witness":{'
        b'"connection_kron_ok":true,"connection_spectrum_err":2.5757174171303632e-14,'
        b'"euler_ok":true,"hodge_kron_ok":true,"hodge_spectrum_err":7.993605777301127e-15,'
        b'"poincare_ok":true}}],"input":"C9.json","pass":true,"simplices":18}',
    ("cross2", "verify", "--suite", "lefschetz"):
        b'{"checks":[{"status":"pass","theorem":"lefschetz","witness":{"all_automorphisms":true,'
        b'"identity":{"cohomological":2,"fixed_point_sum":2}}}],"input":"cross2.json",'
        b'"pass":true,"simplices":26}',
    ("K5", "verify", "--suite", "lefschetz"):
        b'{"checks":[{"status":"pass","theorem":"lefschetz","witness":{"all_automorphisms":true,'
        b'"identity":{"cohomological":1,"fixed_point_sum":1}}}],"input":"K5.json",'
        b'"pass":true,"simplices":31}',
    ("ico", "analyze", "--betti", "--interaction"):
        b'{"betti":[1,0,1],"euler_characteristic":2,"euler_poly":[12,30,20],'
        b'"f_vector":[12,30,20],"interaction_betti":[0,0,1,0,1],'
        b'"interaction_euler_poly":[12,120,390,480,200],"max_dim":2,'
        b'"poincare_poly":[1,0,1],"simplices":62}',
}


@pytest.mark.parametrize("request_", COHOMOLOGY_PINNED, ids=lambda r: "-".join(r[:3]))
def test_cohomology_requests_pinned(tmp_path, capsysbinary, request_):
    name, command, *flags = request_
    generate = {"C11": ["cycle", "--n", "11"], "C9": ["cycle", "--n", "9"],
                "cross2": ["cross-polytope", "--dim", "2"], "K5": ["complete", "--n", "5"],
                "ico": ["icosahedron"]}[name]
    path = str(tmp_path / f"{name}.json")
    assert run(["generate", *generate, "-o", path]) == 0
    capsysbinary.readouterr()
    assert run([command, "-i", path, *flags, "--no-meta"]) == 0
    assert capsysbinary.readouterr().out == COHOMOLOGY_PINNED[request_] + b"\n"
