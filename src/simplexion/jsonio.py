"""JSON formats: complexes (facet lists, closure implied), graphs (whose
Whitney complexes they give), vertex functions, and canonical dumping so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

from .core import Complex, close
from .errors import check_closure
from .generators import whitney


def complex_to_dict(G: Complex, name: str | None = None) -> dict:
    out = {"facets": sorted([list(x) for x in G.facets()])}
    if name:
        out["name"] = name
    return out


def complex_from_dict(d: dict) -> Complex:
    """Closure of the facet list.  Rejects input that is not an object with
    a list of facets, and any vertex that is not a non-negative int (bools
    and floats included), instead of coercing it.  Refuses to close when
    `errors.check_closure` bounds the closure above the cap."""
    if not isinstance(d, dict):
        raise ValueError("complex JSON must be an object")
    facets = d.get("facets", [])
    if not isinstance(facets, list):
        raise ValueError('"facets" must be a list')
    for f in facets:
        if not isinstance(f, (list, tuple)) or not all(
                type(v) is int and v >= 0 for v in f):
            raise ValueError(f"facet {f!r}: vertices must be non-negative integers")
    check_closure(facets)
    return close(facets)


def whitney_from_dict(d: dict) -> Complex:
    """The Whitney complex of {"n": vertex count, "edges": [[a, b], ...]}.
    Rejects input that is not an object, an n that is not an int, and edges
    that are not a list of two-int lists (bools and floats included),
    instead of coercing them; `generators.whitney` rejects a negative n and
    an out-of-range, self-loop or duplicate edge."""
    if not isinstance(d, dict):
        raise ValueError("graph JSON must be an object")
    n, edges = d.get("n"), d.get("edges", [])
    if type(n) is not int:
        raise ValueError(f'"n" must be an integer, not {n!r}')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(type(v) is int for v in e):
            raise ValueError(f"edge {e!r}: must be a pair of integer vertices")
    return whitney(n, [tuple(e) for e in edges])


def function_from_dict(d: dict) -> dict:
    """{"values": {"3": 1.5, ...}} -> {3: 1.5, ...}; rejects a key that is
    not a non-negative integer string and a value that is not an int or a
    finite float (bools included) instead of passing it on."""
    values = d.get("values") if isinstance(d, dict) else None
    if not isinstance(values, dict):
        raise ValueError('function JSON needs a "values" object')
    for k, v in values.items():
        if not (k.isascii() and k.isdigit()):
            raise ValueError(f"function key {k!r}: must be a non-negative integer")
        if type(v) is not int and not (type(v) is float and math.isfinite(v)):
            raise ValueError(f"function value {v!r} at {k}: must be a finite number")
    return {int(k): v for k, v in values.items()}


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_canonical(obj, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_complex(path: str) -> Complex:
    return complex_from_dict(read_json(path))
