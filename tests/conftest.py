import itertools
import sys

import pytest
from hypothesis import settings

import simplexion as sx

# every run draws the same examples, so a property failure reproduces
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """No call may leave the process-global recursion limit changed."""
    limit = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == limit


def named_corpus():
    """(name, complex) pairs: the standing corpus for exact theorem checks."""
    out = [(f"K{n}", sx.complete(n)) for n in range(1, 6)]
    out += [(f"C{n}", sx.cycle(n)) for n in range(3, 13)]
    out += [(f"cross{d}", sx.cross_polytope(d)) for d in range(4)]
    out.append(("icosahedron", sx.icosahedron()))
    out.append(("two_points", sx.close([(0,), (1,)])))
    out.append(("star3", sx.whitney(4, [(0, 1), (0, 2), (0, 3)])))
    return out


@pytest.fixture(scope="session")
def corpus():
    return named_corpus()


@pytest.fixture(scope="session")
def whitney_corpus(corpus):
    return [(name, G) for name, G in corpus if sx.is_whitney(G)]


@pytest.fixture(scope="session")
def random_complexes():
    """A deterministic bag of small random Whitney complexes."""
    out = []
    ns = (3, 4, 5, 6, 7)
    ps = (0.2, 0.5, 0.8)
    for i in range(60):
        model = sx.RandomModel(n=ns[i % 5], p=ps[i % 3], seed=40_000 + i)
        out.append(sx.erdos_renyi(model))
    return out


@pytest.fixture(scope="session")
def local_corpus(corpus, random_complexes):
    """(name, complex) pairs for comparing the star-index queries with
    whole-complex scans: the corpus, the random Whitney complexes, the first
    refinements of corpus members with at most 60 simplices, and small
    non-flag and non-manifold complexes."""
    out = list(corpus)
    out += [(f"random{i}", G) for i, G in enumerate(random_complexes)]
    out += [(f"{name}_1", sx.barycentric(G)) for name, G in corpus if len(G) <= 60]
    rim = [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)]
    out += [
        ("boundary_K4", sx.close(itertools.combinations(range(4), 3))),
        ("triangles_at_vertex", sx.close([(0, 1, 2), (2, 3, 4)])),
        ("triangle_and_edge", sx.close([(0, 1, 2), (2, 3)])),
        ("wheel", sx.whitney(5, rim)),
        ("solid_ball", sx.join(sx.close([(0,)]), sx.cross_polytope(2))),
    ]
    return out
