import pytest
from hypothesis import settings

import simplexion as sx

# every run draws the same examples, so a property failure reproduces
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


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
