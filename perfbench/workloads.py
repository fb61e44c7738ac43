"""Inputs and request lists of the three workloads.

`setup(workload, seed, workdir, cli_main)` writes the inputs for one run
under `workdir` and returns (warmup, passes): one warm-up request and a list
of passes, each a list of requests.  A request is a dict holding the CLI
argv plus what checks.py needs to judge its output.  Passes use distinct
input files (vertex labels shifted by a seeded offset, which keeps the
canonical simplex order and so the work identical), so no pass can reuse
results the program cached for an earlier one.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

from checks import facet_stats, named_f, refined_f

ALL_SUITES = [
    "unimodularity", "energy", "inertia", "hydrogen", "dual-product",
    "gauss-bonnet", "poincare-hopf", "dehn-sommerville", "euler-poincare",
    "mckean-singer", "wu", "boundary", "sard", "lefschetz", "kuenneth",
    "zeta-symmetry", "trees", "stokes", "alexander",
]

# -- random-small -------------------------------------------------------------

NS = (4, 5, 6, 7)
PS = (0.2, 0.5, 0.8)
SMALL_SUITES = ["unimodularity", "energy", "inertia", "dual-product"]
# Simplex counts at the quantiles (i + 0.5) / 6 of E(n, p), read from 4096
# draws of RandomModel(n, p, seed=2018).  Every pass holds, per (n, p) cell,
# one seeded complex per target: the seed picks the graphs, the targets fix
# the size mix, so the Berkowitz cost (~ size^4) does not swing with the seed.
SIZE_TARGETS = {
    (4, 0.2): [4, 4, 5, 5, 6, 7], (4, 0.5): [5, 6, 7, 7, 9, 11],
    (4, 0.8): [7, 9, 11, 11, 15, 15], (5, 0.2): [5, 6, 7, 7, 8, 9],
    (5, 0.5): [8, 9, 10, 11, 13, 15], (5, 0.8): [13, 15, 17, 19, 23, 31],
    (6, 0.2): [7, 8, 9, 9, 10, 12], (6, 0.5): [11, 13, 15, 16, 19, 23],
    (6, 0.8): [21, 25, 29, 35, 39, 47], (7, 0.2): [9, 10, 11, 12, 13, 15],
    (7, 0.5): [15, 18, 20, 23, 26, 31], (7, 0.8): [33, 41, 47, 55, 63, 79],
}
SMALL_PASSES = 6  # distinct input sets; later passes reuse them in turn
MAX_DRAWS = 2048
RANDOM_TRIALS = 1000  # the CLI default, as is --wu-sample 2000

# -- refined-large ------------------------------------------------------------

# (name, the two complexes joined, as generate arguments); each join is
# refined once.  Both refinements have more than 400 simplices, so inertia
# takes the Bareiss minor-sign path instead of Berkowitz.
LARGE_BASES = [
    ("suspC12_1", ["cycle", "--n", "12"], ["cross-polytope", "--dim", "0"]),
    ("joinC4K2_1", ["cycle", "--n", "4"], ["complete", "--n", "2"]),
]
LARGE_SUITES = ["unimodularity", "energy", "inertia", "euler-poincare", "mckean-singer"]
LARGE_PASSES = 4

# -- named-all ----------------------------------------------------------------

NAMED = ([(f"K{n}", "complete", n) for n in range(1, 6)]
         + [(f"C{n}", "cycle", n) for n in range(3, 13)]
         + [(f"cross{d}", "cross-polytope", d) for d in range(4)]
         + [("ico", "icosahedron", None)])
# verify suites left out per input, for their cost (see NOTES.md)
NAMED_OMIT = {"cross3": set(ALL_SUITES), "K4": {"kuenneth"},
              "C12": {"alexander"}, "ico": {"alexander"}}
ANALYZE_FLAGS = ["--betti", "--wu", "--interaction", "--curvature", "--dimension"]
NAMED_PASSES = 3


def _generate_argv(kind, n):
    flag = {"complete": "--n", "cycle": "--n", "cross-polytope": "--dim"}.get(kind)
    return ["generate", kind] + ([flag, str(n)] if flag else [])


def _read_facets(path):
    with open(path) as fh:
        return json.load(fh)["facets"]


def _write_shifted(facets, offset, path) -> dict:
    """Write the complex with every vertex label raised by offset; returns
    its stats."""
    shifted = [[v + offset for v in f] for f in facets]
    with open(path, "w") as fh:
        json.dump({"facets": shifted}, fh, separators=(",", ":"))
    return facet_stats(shifted)


def _run_ok(cli_main, argv):
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"set-up request failed with exit code {code}: {argv}")


def _verify(path, name, stats, suites, seed=None):
    suite_arg = "all" if suites == ALL_SUITES else ",".join(suites)
    argv = ["verify", "-i", path, "--suite", suite_arg, "--no-meta"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"argv": argv, "name": name, "simplices": stats["simplices"], "suites": suites}


def _analyze(path, name, stats, flags):
    return {"argv": ["analyze", "-i", path, *flags, "--no-meta"], "name": name,
            "f": stats["f"], "chi": stats["chi"]}


def _random_small(seed, work, cli_main, offsets):
    from simplexion.generators import RandomModel, erdos_renyi
    from simplexion.jsonio import complex_to_dict, write_canonical

    # cells cycle as in the acceptance corpus: n = NS[i % 4], p = PS[i % 3]
    cells = [(NS[i % 4], PS[i % 3]) for i in range(12)]
    chosen = {}  # (cell, target index) -> one complex per distinct pass
    for c, (n, p) in enumerate(cells):
        model = RandomModel(n=n, p=p, seed=seed * 100 + c)
        targets = SIZE_TARGETS[(n, p)]
        need = Counter({t: SMALL_PASSES * k for t, k in Counter(targets).items()})
        pool, have = [], Counter()
        for trial in range(MAX_DRAWS):
            G = erdos_renyi(model, trial)
            pool.append((len(G), trial, G))
            have[len(G)] += 1
            if all(have[t] >= k for t, k in need.items()):
                break
        by_trial = {trial: G for _, trial, G in pool}
        used = set()
        for i, t in enumerate(targets):
            near = sorted((abs(size - t), trial) for size, trial, _ in pool
                          if trial not in used)[:SMALL_PASSES]
            used.update(trial for _, trial in near)
            chosen[c, i] = [(trial, by_trial[trial]) for _, trial in near]
    passes = []
    for j in range(SMALL_PASSES):
        requests = []
        for i in range(6):
            for c, (n, p) in enumerate(cells):
                trial, G = chosen[c, i][j]
                path = os.path.join(work, f"rs{j}-{c}-{i}.json")
                write_canonical(complex_to_dict(G), path)
                stats = facet_stats(_read_facets(path))
                requests.append(_verify(path, f"E({n},{p})#{trial}", stats, SMALL_SUITES))
            if i % 2 == 1:  # a Monte Carlo request after every 24 verifies
                p = PS[i // 2]
                requests.append({
                    "argv": ["random", "--n", "8", "--p", str(p),
                             "--seed", str(offsets[j]), "--no-meta"],
                    "name": f"E(8,{p})", "trials": RANDOM_TRIALS})
        passes.append(requests)
    warm = os.path.join(work, "warm.json")
    _run_ok(cli_main, ["generate", "complete", "--n", "3", "-o", warm])
    warmup = _verify(warm, "K3", facet_stats(_read_facets(warm)), SMALL_SUITES)
    return warmup, passes


def _refined_large(seed, work, cli_main, offsets):
    refined = []
    for name, a, b in LARGE_BASES:
        pa, pb, pj, pr = (os.path.join(work, f"{name}-{x}.json") for x in "abjr")
        _run_ok(cli_main, ["generate", *a, "-o", pa])
        _run_ok(cli_main, ["generate", *b, "-o", pb])
        _run_ok(cli_main, ["generate", "join", "-i", pa, "-i", pb, "-o", pj])
        _run_ok(cli_main, ["generate", "refine", "-i", pj, "-o", pr])
        refined.append((name, _read_facets(pr)))
    passes = []
    for j in range(LARGE_PASSES):
        requests = []
        for name, facets in refined:
            path = os.path.join(work, f"{name}-p{j}.json")
            stats = _write_shifted(facets, offsets[j], path)
            requests += [
                _verify(path, name, stats, LARGE_SUITES, seed=offsets[j]),
                {"argv": ["spectra", "-i", path, "--operator", "connection", "--zeta",
                          "--no-meta"], "name": name, "simplices": stats["simplices"]},
                {"argv": ["spectra", "-i", path, "--operator", "hodge", "--no-meta"],
                 "name": name, "simplices": stats["simplices"]},
                _analyze(path, name, stats, ["--betti"]),
            ]
        passes.append(requests)
    warm = os.path.join(work, f"{LARGE_BASES[0][0]}-j.json")
    warmup = _verify(warm, "suspC12", facet_stats(_read_facets(warm)), ["unimodularity"])
    return warmup, passes


def _named_all(seed, work, cli_main, offsets):
    base = {}
    for name, kind, n in NAMED:
        path = os.path.join(work, f"{name}.json")
        _run_ok(cli_main, _generate_argv(kind, n) + ["-o", path])
        base[name] = _read_facets(path)
    gen = os.path.join(work, "gen")
    os.makedirs(gen)
    passes = []
    for j in range(NAMED_PASSES):
        requests, analyses, verifies = [], [], []
        for name, kind, n in NAMED:
            out, out1 = (os.path.join(gen, f"{name}{x}.json") for x in ("", "_1"))
            f = named_f(kind, n)
            requests += [
                {"argv": _generate_argv(kind, n) + ["-o", out], "name": name,
                 "out": out, "f": f},
                {"argv": ["generate", "refine", "-i", out, "-o", out1],
                 "name": f"{name}_1", "out": out1, "f": refined_f(f)},
            ]
            path = os.path.join(work, f"{name}-p{j}.json")
            stats = _write_shifted(base[name], offsets[j], path)
            flags = [x for x in ANALYZE_FLAGS
                     if not (name == "cross3" and x == "--interaction")]
            analyses.append(_analyze(path, name, stats, flags))
            suites = [s for s in ALL_SUITES if s not in NAMED_OMIT.get(name, ())]
            if suites:
                verifies.append(_verify(path, name, stats, suites, seed=offsets[j]))
        passes.append(requests + analyses + verifies)
    warm = os.path.join(work, "K3.json")
    warmup = _analyze(warm, "K3", facet_stats(base["K3"]), ANALYZE_FLAGS)
    return warmup, passes


def setup(workload: str, seed: int, work: str, cli_main) -> tuple:
    rng = random.Random(seed)
    offsets = [rng.randrange(1, 1_000_000)
               for _ in range(max(SMALL_PASSES, LARGE_PASSES, NAMED_PASSES))]
    build = {"random-small": _random_small, "refined-large": _refined_large,
             "named-all": _named_all}[workload]
    return build(seed, work, cli_main, offsets)
