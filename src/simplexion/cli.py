"""Command-line surface: generate / analyze / verify / spectra / random.

Reports are JSON-first (canonical key order); --no-meta strips timestamps and
wall times so identical arguments give byte-identical bytes.  Exit codes:
0 ok, 1 theorem-check failure, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import cohomology as hodge_mod
from . import connection as conn_mod
from . import errors
from . import geometry as geom_mod
from . import spectral as spec_mod
from .core import close, disjoint_union, join, wu_characteristic
from .errors import InvariantViolation, NumericError, ResourceLimitError
from .generators import (
    RandomModel,
    block_trials,
    clique_block,
    complete,
    cross_polytope,
    cycle,
    erdos_renyi,
    expected_dimension,
    expected_euler,
    icosahedron,
    path,
    poly_eval,
    ring_product_complex,
)
from .jsonio import (
    complex_to_dict,
    dumps_canonical,
    function_from_dict,
    load_complex,
    read_json,
    whitney_from_dict,
    write_canonical,
)
from .refinement import barycentric
from .rng import SplitMix64

def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process (parsing leaves it
    unchanged)."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="simplexion")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="write a complex as JSON")
    g.add_argument("kind", choices=[
        "complete", "cycle", "path", "cross-polytope", "icosahedron",
        "whitney", "erdos-renyi", "join", "union", "product", "refine",
    ])
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--input", "-i", action="append", default=[])
    g.add_argument("--output", "-o", required=True)
    g.add_argument("--name", default=None)
    g.add_argument("--cap-simplices", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="invariants of a complex")
    a.add_argument("--input", "-i", required=True)
    a.add_argument("--output", "-o", default=None)
    a.add_argument("--betti", action="store_true")
    a.add_argument("--wu", action="store_true")
    a.add_argument("--interaction", action="store_true")
    a.add_argument("--curvature", action="store_true")
    a.add_argument("--dimension", action="store_true")
    a.add_argument("--morse", default=None, metavar="FUNC_JSON")
    a.add_argument("--level", default=None, metavar="FUNC_JSON")
    a.add_argument("--level-value", type=float, default=None)
    a.add_argument("--format", choices=["json", "table"], default="json")
    a.add_argument("--no-meta", action="store_true")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run theorem checks")
    v.add_argument("--input", "-i", required=True)
    v.add_argument("--suite", default="all",
                   help="comma list from: " + ",".join(CHECKS))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--output", "-o", default=None)
    v.add_argument("--no-meta", action="store_true")
    v.add_argument("--format", choices=["json", "table"], default="json")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("spectra", help="eigenvalues, zeta, limit curves")
    s.add_argument("--input", "-i", required=True)
    s.add_argument("--operator", choices=["connection", "hodge", "kirchhoff"],
                   default="connection")
    s.add_argument("--zeta", action="store_true")
    s.add_argument("--limit-levels", type=int, default=0)
    s.add_argument("--csv", default=None)
    s.add_argument("--output", "-o", default=None)
    s.add_argument("--no-meta", action="store_true")
    s.set_defaults(func=cmd_spectra)

    r = sub.add_parser("random", help="Monte Carlo vs exact expectations")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--wu-sample", type=int, default=2000)
    r.add_argument("--output", "-o", default=None)
    r.add_argument("--no-meta", action="store_true")
    r.add_argument("--format", choices=["json", "table"], default="json")
    r.set_defaults(func=cmd_random)
    return p


# -- generate -------------------------------------------------------------------


def cmd_generate(args) -> int:
    kind = args.kind
    if args.cap_simplices is not None and kind not in {"refine", "product"}:
        raise ValueError("--cap-simplices applies to generate refine|product only")
    need_n = {"complete", "cycle", "path", "erdos-renyi"}
    if kind in need_n and args.n is None:
        raise ValueError("--n required")
    if kind == "complete":
        G = complete(args.n)
    elif kind == "cycle":
        G = cycle(args.n)
    elif kind == "path":
        G = path(args.n)
    elif kind == "cross-polytope":
        if args.dim is None:
            raise ValueError("--dim required")
        G = cross_polytope(args.dim)
    elif kind == "icosahedron":
        G = icosahedron()
    elif kind == "whitney":
        if len(args.input) != 1:
            raise ValueError("whitney needs one --input graph file")
        G = whitney_from_dict(read_json(args.input[0]))
    elif kind == "erdos-renyi":
        G = erdos_renyi(RandomModel(n=args.n, p=args.p, seed=args.seed))
    elif kind in {"join", "union", "product"}:
        if len(args.input) != 2:
            raise ValueError(f"{kind} needs two --input files")
        A = load_complex(args.input[0])
        B = load_complex(args.input[1])
        if kind == "join":
            G = join(A, B)
        elif kind == "union":
            G = disjoint_union(A, B)
        else:
            G = ring_product_complex(A, B, cap=args.cap_simplices)
    elif kind == "refine":
        if len(args.input) != 1:
            raise ValueError("refine needs one --input file")
        G = barycentric(load_complex(args.input[0]), cap=args.cap_simplices)
    else:  # pragma: no cover
        return 2
    write_canonical(complex_to_dict(G, name=args.name), args.output)
    return 0


# -- analyze --------------------------------------------------------------------


def cmd_analyze(args) -> int:
    G = load_complex(args.input)
    report = {
        "f_vector": list(G.f_vector()),
        "euler_characteristic": G.euler_characteristic(),
        "max_dim": G.max_dim(),
        "simplices": len(G),
    }
    if args.dimension:
        report["inductive_dimension"] = str(geom_mod.inductive_dimension(G))
    if args.betti:
        rep = hodge_mod.betti(G)
        report["betti"] = report["poincare_poly"] = list(rep.betti)
        report["euler_poly"] = list(rep.euler_poly)
    if args.wu:
        report["wu"] = wu_characteristic(G, 2)
        report["wu3"] = wu_characteristic(G, 3)
    if args.interaction:
        rep = hodge_mod.interaction_cohomology(G)
        report["interaction_betti"] = list(rep.betti)
        report["interaction_euler_poly"] = list(rep.euler_poly)
    if args.curvature:
        curv = geom_mod.curvature_vector(G)
        report["curvature"] = {str(v): str(k) for v, k in sorted(curv.items())}
        report["curvature_total"] = str(sum(curv.values()))
    if args.morse:
        f = function_from_dict(read_json(args.morse))
        res = geom_mod.morse_analysis(G, f)
        report["morse"] = {
            "is_morse": res["is_morse"],
            "counts": list(res["counts"]),
            "failing_vertex": res["failing_vertex"],
        }
    if args.level:
        if args.level_value is None:
            raise ValueError("--level needs --level-value")
        f = function_from_dict(read_json(args.level))
        surf = geom_mod.level_surface(G, f, args.level_value)
        report["level_surface"] = complex_to_dict(surf)
    return emit_report(report, args, kind="analyze")


# -- verify ---------------------------------------------------------------------


def _chk_unimodularity(G, args):
    d = conn_mod.connection_det(G)
    return d in (1, -1), {"det": d}


def _chk_energy(G, args):
    chi = G.euler_characteristic()
    total = conn_mod.energy(G)
    ok = total == chi
    wit = {"sum_g": total, "chi": chi}
    if len(G) <= 300:
        star_ok = np.array_equal(conn_mod.green_star_matrix(G), conn_mod.green_inverse(G))
        ok = ok and star_ok
        wit["green_star_ok"] = bool(star_ok)
    return ok, wit


def _chk_inertia(G, args):
    p, n, z = conn_mod.inertia_of_connection(G)
    chi = G.euler_characteristic()
    ok = (p - n == chi) and z == 0
    wit = {"p": p, "n": n, "z": z, "chi": chi}
    if len(G) <= 1200:
        vals = spec_mod.connection_eigenvalues(G)
        wit["numeric_signs_ok"] = bool(
            int((vals > 0).sum()) == p and int((vals < 0).sum()) == n
        )
        ok = ok and wit["numeric_signs_ok"]
    return ok, wit


def _chk_hydrogen(G, args):
    if G.max_dim() != 1:
        return "skipped:dim!=1", {}
    res = conn_mod.hydrogen_check(G)
    return res["ok"], res


def _chk_dual_product(G, args):
    try:
        res = conn_mod.dual_product_check(G)
    except ResourceLimitError:  # above errors.DEFAULT_EXACT_CAP rows, for L and g
        return "skipped:size", {}
    ok = res["det_ok"] and res["charpoly_ok"]
    return ok, {"det": res["det"], "charpoly_ok": res["charpoly_ok"]}


def _chk_gauss_bonnet(G, args):
    H = geom_mod.clique_complex(G)
    total = sum(geom_mod.levitt_curvature(H, v) for v in H.vertices())
    chi = H.euler_characteristic()
    return total == chi, {"curvature_sum": str(total), "chi": chi}


def _chk_poincare_hopf(G, args):
    H = geom_mod.clique_complex(G)
    chi = H.euler_characteristic()
    for trial in range(args.trials):
        gen = SplitMix64.substream(args.seed, trial)
        f = geom_mod.random_injective_function(H, gen)
        if geom_mod.ph_index_sum(H, f) != chi:
            return False, {"trial": trial}
    return True, {"trials": args.trials, "chi": chi}


def _chk_dehn_sommerville(G, args):
    if geom_mod.clique_vertex_count(G) > 300:
        return "skipped:size", {}
    H = geom_mod.clique_complex(G)
    d = H.max_dim()
    if d < 1 or not geom_mod.is_d_graph(H, d):
        return "skipped:not-a-d-graph", {}
    return geom_mod.ds_curvature_check(H, d), {"d": d}


def _chk_euler_poincare(G, args):
    rep = hodge_mod.betti(G)
    chi = G.euler_characteristic()
    return rep.euler_characteristic == chi, {
        "betti": list(rep.betti), "chi": chi,
    }


def _chk_mckean_singer(G, args):
    if len(G) > 1100:
        return "skipped:size", {}
    res = hodge_mod.mckean_singer(G)
    ok = res["exact_zero_powers"] and res["numeric_max_err"] < 1e-8
    return ok, {"numeric_max_err": res["numeric_max_err"]}


def _chk_wu(G, args):
    omega = wu_characteristic(G, 2)
    curv = hodge_mod.wu_gauss_bonnet(G)
    ok = sum(curv.values()) == omega
    wit = {"wu": omega, "gauss_bonnet_ok": ok}
    try:
        rep = hodge_mod.interaction_cohomology(G)
        alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
        wit["interaction_alternating"] = alt
        ok = ok and alt == omega
    except ResourceLimitError:
        wit["interaction_alternating"] = "skipped:pairs"
    return ok, wit


def _chk_boundary(G, args):
    d = G.max_dim()
    if d < 1 or len(G) > 400:
        return "skipped:not-applicable", {}
    if not geom_mod.is_d_complex_with_boundary(G, d):
        return "skipped:not-a-d-complex", {}
    delta = geom_mod.boundary(G, d)
    chi = G.euler_characteristic()
    omega = wu_characteristic(G, 2)
    ok = chi - omega == delta.euler_characteristic()
    if not delta.is_empty:
        ddelta = geom_mod.boundary(delta, d - 1)
        ok = ok and ddelta.is_empty
    return ok, {"chi": chi, "wu": omega, "chi_boundary": delta.euler_characteristic()}


def _chk_sard(G, args):
    if geom_mod.clique_vertex_count(G) > 200:
        return "skipped:not-applicable", {}
    H = geom_mod.clique_complex(G)
    d = H.max_dim()
    if d < 1:
        return "skipped:not-applicable", {}
    if not geom_mod.is_d_graph(H, d):
        return "skipped:not-a-d-graph", {}
    gen = SplitMix64.substream(args.seed, 777)
    f = geom_mod.random_injective_function(H, gen)
    c = len(H.vertices()) / 2 - 0.25  # f takes integer values
    surf = geom_mod.level_surface(H, f, c)
    if surf.is_empty:
        return True, {"level": "empty"}
    return geom_mod.is_d_graph(surf, d - 1), {"level_size": len(surf)}


def _chk_lefschetz(G, args):
    res = hodge_mod._lefschetz_number(G, {v: v for v in G.vertices()})
    ok = res["cohomological"] == res["fixed_point_sum"] == G.euler_characteristic()
    wit = {"identity": res}
    if len(G.vertices()) <= errors.AUTOMORPHISM_CAP:
        for perm in hodge_mod.automorphisms(G):
            r = hodge_mod._lefschetz_number(G, perm)
            if r["cohomological"] != r["fixed_point_sum"]:
                return False, {"perm": perm, "result": r}
        wit["all_automorphisms"] = True
    return ok, wit


def _chk_kuenneth(G, args):
    # C4 partner while the product order complex stays small; the ring unit
    # (whose product is the Barycentric refinement) for medium inputs
    if len(G) * 8 <= 150:
        partner = cycle(4)
    elif len(G) <= 200:
        partner = close([(0,)])
    else:
        return "skipped:size", {}
    res = hodge_mod.kuenneth_check(G, partner)
    return res["ok"], {k: v for k, v in res.items() if k != "ok"}


def _chk_zeta_symmetry(G, args):
    if G.max_dim() != 1:
        return "skipped:dim!=1", {}
    try:
        exact = conn_mod.spectral_symmetry_check(G)
    except ResourceLimitError:  # above errors.CHARPOLY_CAP rows
        return "skipped:size", {}
    gap = spec_mod.zeta_symmetry_gap(G)
    return exact and gap < 1e-8, {"exact": exact, "zeta_gap": gap}


def _chk_trees(G, args):
    if len(G.vertices()) > 7:
        return "skipped:size", {}
    n, edges = spec_mod.skeleton_edges(G)
    got = spec_mod.tree_forest_numbers(n, edges)
    brute = spec_mod.rooted_spanning_counts_bruteforce(n, edges)
    ok = got["tree"] == brute["tree"] and got["forest"] == brute["forest"]
    return ok, {"computed": got, "bruteforce": brute}


def _chk_stokes(G, args):
    data = hodge_mod.exterior_derivative(G)
    gen = SplitMix64.substream(args.seed, 1234)
    for k in range(len(data.d)):
        for _ in range(3):
            form = [gen.below(7) - 3 for _ in range(len(data.bases[k]))]
            chain = [gen.below(7) - 3 for _ in range(len(data.bases[k + 1]))]
            lhs, rhs = hodge_mod.stokes_pairing(G, k, form, chain)
            if lhs != rhs:
                return False, {"k": k}
    return True, {}


def _chk_alexander(G, args):
    verts = G.vertices()
    if len(verts) < 5:
        return "skipped:needs-5-vertices", {}
    if len(verts) > 12:
        return "skipped:size", {}
    res = hodge_mod.alexander_duality_check(G, verts)
    return res["ok"], {
        "reduced_G": {str(k): v for k, v in res["reduced_G"].items()},
        "reduced_dual": {str(k): v for k, v in res["reduced_dual"].items()},
    }


# suite -> check(G, args); what several checks share is memoed on G
CHECKS = {
    "unimodularity": _chk_unimodularity,
    "energy": _chk_energy,
    "inertia": _chk_inertia,
    "hydrogen": _chk_hydrogen,
    "dual-product": _chk_dual_product,
    "gauss-bonnet": _chk_gauss_bonnet,
    "poincare-hopf": _chk_poincare_hopf,
    "dehn-sommerville": _chk_dehn_sommerville,
    "euler-poincare": _chk_euler_poincare,
    "mckean-singer": _chk_mckean_singer,
    "wu": _chk_wu,
    "boundary": _chk_boundary,
    "sard": _chk_sard,
    "lefschetz": _chk_lefschetz,
    "kuenneth": _chk_kuenneth,
    "zeta-symmetry": _chk_zeta_symmetry,
    "trees": _chk_trees,
    "stokes": _chk_stokes,
    "alexander": _chk_alexander,
}


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    G = load_complex(args.input)
    suites = list(CHECKS) if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()
    ]
    unknown = [s for s in suites if s not in CHECKS]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    checks = []
    any_fail = False
    for name in suites:
        t0 = time.monotonic()
        try:
            res, witness = CHECKS[name](G, args)
        except ResourceLimitError as exc:
            res, witness = "skipped:resource-cap", {"reason": str(exc)}
        except NumericError as exc:
            res, witness = False, {"numeric_error": str(exc)}
        except InvariantViolation as exc:
            res, witness = False, {"invariant": str(exc), **(exc.witness or {})}
        elapsed = time.monotonic() - t0
        if isinstance(res, str):
            status = res  # "skipped:<reason>"
        elif res:
            status = "pass"
        else:
            status = "fail"
            any_fail = True
        entry = {"theorem": name, "status": status, "witness": _plain(witness)}
        if not args.no_meta:
            entry["seconds"] = round(elapsed, 4)
        checks.append(entry)
    report = {
        "input": os.path.basename(args.input),
        "simplices": len(G),
        "checks": checks,
        "pass": not any_fail,
    }
    code = emit_report(report, args, kind="verify")
    if code != 0:
        return code
    return 0 if not any_fail else 1


def _plain(obj):
    """JSON-serializable copies of witnesses (numpy scalars, Fractions...)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


# -- spectra --------------------------------------------------------------------


def cmd_spectra(args) -> int:
    """Eigenvalues of one operator, ascending, as order/min/max (all of them
    with --csv).  The Hodge spectrum is the union of its degree blocks'
    (`cohomology.hodge_blocks`), each eigensolved and certified on its own;
    the n x n operator is never formed."""
    if args.limit_levels < 0:
        raise ValueError("--limit-levels must be >= 0")
    G = load_complex(args.input)
    if args.operator == "connection":
        vals = spec_mod.connection_eigenvalues(G)
    elif args.operator == "hodge":
        vals = np.sort(np.concatenate(
            [np.zeros(0)] + [spec_mod.eig_symmetric(H) for H in hodge_mod.hodge_blocks(G)]))
    else:
        vals = spec_mod.eig_symmetric(spec_mod.kirchhoff_of_complex(G).astype(float))
    report = {
        "operator": args.operator,
        "order": int(len(vals)),
        "min": float(vals[0]) if len(vals) else None,
        "max": float(vals[-1]) if len(vals) else None,
    }
    if args.zeta:
        gap = spec_mod.zeta_symmetry_gap(G) if len(G) else 0.0
        report["zeta_symmetry_gap"] = gap
    if args.limit_levels:
        exp = spec_mod.barycentric_limit_experiment(G, args.limit_levels)
        report["limit_l1_distances"] = exp["l1_distances"]
        report["limit_sizes"] = exp["sizes"]
        report["min_connection_eigenvalue"] = exp["min_connection_eigenvalue"]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, v in enumerate(vals):
                fh.write(f"{i},{float(v)!r}\n")
    return emit_report(report, args, kind="spectra")


# -- random ---------------------------------------------------------------------


def cmd_random(args) -> int:
    stats = random_statistics(args.n, args.p, args.trials, args.seed,
                              wu_sample=args.wu_sample)
    return emit_report(stats, args, kind="random")


def random_statistics(n: int, p: float, trials: int, seed: int,
                      wu_sample: int = 2000) -> dict:
    """Monte Carlo means/stderrs of inductive dimension, Euler characteristic
    and (subsampled) Wu characteristic on E(n, p), with the exact polynomial
    values and z-scores for dim and chi.  Trials are drawn in blocks
    (`generators.clique_block`); the sums run in trial order."""
    step = block_trials(n)  # the n cap, checked before anything is allocated
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if wu_sample < 0:
        raise ValueError("wu_sample must be >= 0")
    model = RandomModel(n=n, p=p, seed=seed)
    chi_sum = chi_sq = 0.0
    dim_sum = dim_sq = 0.0
    wu_vals = []
    for lo in range(0, trials, step):
        chi, dim, wu = clique_block(model, lo, min(lo + step, trials), wu_sample)
        for c, d in zip(chi.tolist(), dim.tolist()):
            chi_sum += c
            chi_sq += c * c
            dim_sum += d
            dim_sq += d * d
        wu_vals += wu.tolist()
    out = {"n": n, "p": p, "trials": trials, "seed": seed}
    pf = Fraction(p).limit_denominator(10 ** 9)
    for name, total, sq, formula in (
        ("dim", dim_sum, dim_sq, float(poly_eval(expected_dimension(n), pf))),
        ("chi", chi_sum, chi_sq, float(poly_eval(expected_euler(n), pf))),
    ):
        mean = total / trials
        var = max(sq / trials - mean * mean, 0.0)
        stderr = (var / trials) ** 0.5
        z = (mean - formula) / stderr if stderr > 0 else 0.0
        out[name] = {"mean": mean, "stderr": stderr, "formula": formula, "z": z}
    if wu_vals:
        m = sum(wu_vals) / len(wu_vals)
        var = sum((v - m) ** 2 for v in wu_vals) / len(wu_vals)
        out["wu"] = {
            "mean": m,
            "stderr": (var / len(wu_vals)) ** 0.5,
            "sample": len(wu_vals),
        }
    return out


# -- report emission ---------------------------------------------------------------


def emit_report(report: dict, args, kind: str) -> int:
    if not getattr(args, "no_meta", False):
        report = dict(report)
        report["meta"] = {
            "tool": "simplexion",
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "kind": kind,
        }
    fmt = getattr(args, "format", "json")
    text = None
    if fmt == "table":
        lines = []
        _tabulate(report, lines, prefix="")
        text = "\n".join(lines) + "\n"
    else:
        text = dumps_canonical(report)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _tabulate(obj, lines, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _tabulate(obj[k], lines, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        for i, v in enumerate(obj):
            _tabulate(v, lines, f"{prefix}{i}.")
    else:
        lines.append(f"{prefix.rstrip('.'):40s} {obj}")


if __name__ == "__main__":
    sys.exit(main())
