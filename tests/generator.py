"""Deterministic small-matroid families for scans and verification sweeps.

The same fixed family backs the oracle-equivalence, connectivity, and
claim/corollary sweeps, so "every generator matroid" means one reproducible
list.  Explicit specs are rejection-sampled from a seeded RNG and re-validated
against the exchange axiom before admission.
"""

import random
from itertools import combinations

from tvermat.errors import InputError
from tvermat.matroids import (
    ExplicitMatroid,
    GraphicMatroid,
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
