import json

import simplexion as sx
from simplexion.cli import main, random_statistics
from simplexion.jsonio import (
    complex_from_dict,
    complex_to_dict,
    dumps_canonical,
    load_complex,
    matrix_from_dict,
    matrix_to_dict,
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


def test_matrix_json_roundtrip():
    M = [[1, -2], [3, 10 ** 30]]
    assert matrix_from_dict(matrix_to_dict(M)) == M


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


def test_generate_usage_errors(tmp_path):
    assert run(["generate", "cycle", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["generate", "cycle", "--n", "2", "-o", str(tmp_path / "x.json")]) == 2
    assert run(["generate", "join", "-o", str(tmp_path / "x.json")]) == 2


def test_generate_resource_cap(tmp_path):
    oct_ = tmp_path / "oct.json"
    run(["generate", "cross-polytope", "--dim", "2", "-o", str(oct_)])
    code = run(["generate", "refine", "-i", str(oct_), "-o",
                str(tmp_path / "r.json"), "--cap-simplices", "10"])
    assert code == 3


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


def test_verify_unknown_suite(tmp_path):
    k2 = tmp_path / "k2.json"
    run(["generate", "complete", "--n", "2", "-o", str(k2)])
    assert run(["verify", "-i", str(k2), "--suite", "nonsense"]) == 2


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
    for facets in ([[0, 1.7, 2]], [[True, 2]]):
        path.write_text(json.dumps({"facets": facets}))
        assert run(["analyze", "-i", str(path), "--betti"]) == 2


def test_random_cap():
    assert main(["random", "--n", "11", "--p", "0.5"]) == 2


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
