"""Deterministic small-matroid families for scans and verification sweeps,
and the test-only builders of complexes, matroids and input files.

The same fixed family backs the oracle-equivalence, connectivity, and
claim/corollary sweeps, so "every generator matroid" means one reproducible
list.  Explicit specs are rejection-sampled from a seeded RNG and re-validated
against the exchange axiom before admission.
"""

import json
import random
from itertools import combinations

from tvermat.complexes import SimplicialComplex
from tvermat.errors import InputError
from tvermat.formats import FORMAT_VERSION
from tvermat.matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
    validate_matroid,
)

_GRAPHS = [
    ("triangle", 3, [(0, 1), (1, 2), (0, 2)]),
    ("path4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("cycle4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("cycle5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ("k4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("k4_minus_edge", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    ("k5", 5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
    ("k23", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    ("doubled_triangle", 3,
     [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]),
    ("triangle_with_loop", 3, [(0, 1), (1, 2), (0, 2), (1, 1)]),
    ("bowtie", 5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
    ("star4", 5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
]

_PARTITIONS = [
    ("part_2x2_cap1", [2, 2], [1, 1]),
    ("part_3x2_cap1", [3, 3], [1, 1]),
    ("part_2x2x2_cap1", [2, 2, 2], [1, 1, 1]),
    ("part_3_2_3_mixed", [3, 2, 3], [2, 1, 1]),
    ("part_4x2_cap21", [4, 4], [2, 1]),
    ("part_3_3_2_cap122", [3, 3, 2], [1, 2, 2]),
    ("part_1x2_cap1", [1, 1], [1, 1]),
    ("part_5_cap2", [5], [2]),
    ("part_3_2_cap20", [3, 2], [2, 0]),  # a zero-capacity block: two loops
]


def uniform_family(max_rank=3, max_n=8):
    for r in range(1, max_rank + 1):
        for n in range(r, max_n + 1):
            yield f"u{r}_{n}", UniformMatroid(r, n)


def graphic_family():
    for name, nv, edges in _GRAPHS:
        yield name, GraphicMatroid(nv, edges)


def partition_family():
    for name, sizes, caps in _PARTITIONS:
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(list(range(start, start + s)))
            start += s
        yield name, PartitionMatroid(blocks, caps)


def random_explicit_specs(count, seed, max_n=6):
    """``count`` seeded random valid explicit matroids on at most max_n elements.

    Candidates are random collections of equal-size sets; the exchange axiom
    is checked on the down-closure and failures are re-drawn, so every
    returned spec is a genuine matroid.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        r = rng.randint(1, min(3, n))
        pool = list(combinations(range(n), r))
        want = rng.randint(1, min(len(pool), 6))
        sets = rng.sample(pool, want)
        ok, _ = validate_matroid(n, sets)
        if ok:
            out.append((f"explicit_{len(out)}_{n}e", ExplicitMatroid(n, sets)))
    return out


def small_matroid_family(explicit_count=50, explicit_seed=2717):
    """The full deterministic sweep family, as (name, matroid) pairs."""
    fam = []
    fam.extend(uniform_family())
    fam.extend(graphic_family())
    fam.extend(partition_family())
    fam.extend(random_explicit_specs(explicit_count, explicit_seed))
    return fam


def partition_almost_equal(b, k):
    """Split {1..b} into k contiguous index blocks, sizes within floor/ceil of b/k.

    Larger blocks come first; deterministic.  These are the groups of packed
    bases that ``verify_corollary`` bounds from ``divmod(b, k)``.
    """
    if b < 0 or k < 1:
        raise InputError(f"need b >= 0 and k >= 1, got b={b}, k={k}")
    q, r = divmod(b, k)
    out = []
    start = 1
    for i in range(k):
        size = q + 1 if i < r else q
        out.append(list(range(start, start + size)))
        start += size
    return out


# -- complexes and matroids ----------------------------------------------------


def from_facets(facets):
    """Complete complex generated by explicit facets (small inputs)."""
    faces = set()
    for facet in facets:
        facet = sorted(set(facet))
        for k in range(1, len(facet) + 1):
            faces.update(combinations(facet, k))
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    return SimplicialComplex(by_dim, trunc=max(by_dim, default=-1), complete=True)


def full_simplex(num_vertices):
    """The full simplex on ``num_vertices`` vertices (num_vertices-1 dimensional)."""
    return from_facets([tuple(range(num_vertices))])


def explicit_from(M):
    """Re-express any matroid oracle as an ExplicitMatroid (small grounds only)."""
    bases = [frozenset(c) for c in combinations(range(M.n), M.rank()) if M.is_independent(c)]
    return ExplicitMatroid(M.n, bases)


# -- input files ---------------------------------------------------------------


def matroid_to_record(M):
    """JSON-able record for a constructible matroid (the five base types)."""
    if isinstance(M, UniformMatroid):
        body = {"type": "uniform", "rank": M.r, "size": M.n}
    elif isinstance(M, GraphicMatroid):
        body = {"type": "graphic", "vertices": M.num_vertices,
                "edges": [[u, v] for u, v in M.edges]}
    elif isinstance(M, PartitionMatroid):
        body = {"type": "partition", "blocks": [sorted(b) for b in M.blocks],
                "capacities": list(M.capacities)}
    elif isinstance(M, LinearMatroid):
        body = {"type": "linear", "field": "Q" if M.field is None else f"GF({M.field})",
                "columns": [[str(x) for x in col] for col in M.columns]}
    elif isinstance(M, ExplicitMatroid):
        body = {"type": "explicit", "size": M.n,
                "maximal_independent_sets": [sorted(s) for s in M.maximal_sets]}
    else:
        raise InputError(f"matroid of type {type(M).__name__} is not serializable")
    return {"format-version": FORMAT_VERSION, **body}


def write_matroid(path, M):
    with open(path, "w") as fh:
        json.dump(matroid_to_record(M), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_points(path, cfg):
    with open(path, "w") as fh:
        fh.write(f"format-version: {FORMAT_VERSION}\nd={cfg.dim}\n")
        for e in sorted(cfg.coords):
            fh.write(f"{e}: {' '.join(str(c) for c in cfg.coords[e])}\n")
