"""Complex-engine tests: independence complexes, deleted joins, chessboards."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from generator import small_matroid_family
from oracles import brute_deleted_join
from tvermat import (
    GraphicMatroid,
    InputError,
    LinearMatroid,
    Matroid,
    ResourceLimitError,
    UniformMatroid,
    as_complex,
    chessboard,
    colourful_matroid,
    deleted_join,
    matroids,
)
from tvermat.complexes import DEFAULT_FACE_CAP, enumerate_faces, independent_sets

K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_as_complex_examples():
    X = as_complex(UniformMatroid(1, 3), 0)
    assert X.f_vector() == (3,)
    X = as_complex(UniformMatroid(2, 3), 1)
    assert X.f_vector() == (3, 3)
    X = as_complex(K4, 2)
    assert X.f_vector() == (6, 15, 16)
    assert X.complete


def test_as_complex_excludes_loops():
    G = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])
    X = as_complex(G, 1)
    assert X.f_vector() == (2, 1)
    assert all((1,) != f for f in X.faces(0))


def test_deleted_join_examples():
    two = deleted_join([UniformMatroid(1, 1)] * 2)
    assert two.f_vector() == (2,)  # S^0

    c22 = deleted_join([UniformMatroid(1, 2)] * 2)  # 0-skeleton of an edge
    assert c22.f_vector() == (4, 2)  # two disjoint edges

    # deleted join never contains {pi_1(v), pi_2(v)}
    P = deleted_join([UniformMatroid(2, 3)] * 2)
    n = 3
    for face in P.all_faces():
        elems = [v % n for v in face]
        assert len(set(elems)) == len(elems)


def test_k_fold_deleted_join_chessboards():
    c23 = deleted_join([UniformMatroid(1, 3)] * 2, trunc=1)
    assert c23.f_vector() == (6, 6)
    c34 = deleted_join([UniformMatroid(1, 4)] * 3)
    assert c34.f_vector() == (12, 36, 24)
    assert sum((-1) ** d * count for d, count in enumerate(c34.f)) == 0


def _assert_builds_match_brute_force(mats, trunc):
    # the stored build has every face; the relative build, stored off U, has
    # the same f-vector and completeness (a stored build is one with U empty)
    faces, complete = brute_deleted_join(mats, trunc)
    X = deleted_join(mats, trunc)
    assert (X.faces_by_dim, X.complete) == (faces, complete), (mats, trunc)
    rel = deleted_join(mats, trunc, relative=True)
    assert (rel.f_vector(), rel.complete) == (
        tuple(len(faces[d]) for d in range(len(faces))), complete), (mats, trunc)


def test_deleted_join_matches_brute_force():
    fam = [M for _, M in small_matroid_family(explicit_count=10)]
    cases = [[M] * k for M in fam for k in (1, 2, 3) if k * M.n <= 15]
    # distinct matroids per copy, as verify-claim passes them
    by_size = {}
    for M in fam:
        by_size.setdefault(M.n, []).append(M)
    cases += [ms[i:i + k] for ms in by_size.values() for k in (2, 3)
              for i in range(0, len(ms) - k + 1, k) if k * ms[0].n <= 15]
    cases += [[UniformMatroid(1, m)] * k for k in (4, 5) for m in (2, 3)]
    # a rank-0 first copy puts the first vertex in a later copy
    cases += [[UniformMatroid(0, 5), UniformMatroid(2, 5), UniformMatroid(3, 5)]]
    # no copy has a non-loop: the join has no vertex
    cases += [[UniformMatroid(0, 3)] * k for k in (2, 3)]
    for mats in cases:
        for trunc in range(-1, mats[0].n + 1):
            _assert_builds_match_brute_force(mats, trunc)
    for k, m in ((3, 4), (4, 3), (2, 5)):
        assert chessboard(k, m).faces_by_dim == brute_deleted_join(
            [UniformMatroid(1, m)] * k, min(k, m) - 1)[0]


def test_deleted_join_with_loop_and_parallel_edge_matches_brute_force():
    # a graphic factor whose self-loop never enters a face and whose
    # parallel pair never shares one, alone and beside a uniform factor
    G = GraphicMatroid(4, [(0, 1), (1, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
    for mats in ([G], [G, G], [G, G, G], [G, UniformMatroid(2, 6)],
                 [UniformMatroid(3, 6), G]):
        for trunc in range(-1, G.n + 1):
            _assert_builds_match_brute_force(mats, trunc)


def test_chessboard_facets():
    c34 = chessboard(3, 4)
    assert len(c34.faces(2)) == 24
    assert all(len(f) == 3 for f in c34.faces(2))
    assert chessboard(2, 2).f_vector() == (4, 2)


def test_down_closure():
    samples = [
        chessboard(3, 4),
        deleted_join([UniformMatroid(2, 4)] * 2, trunc=2),
        as_complex(K4, 2),
    ]
    for X in samples:
        faces = set(X.all_faces())
        for face in faces:
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                assert not sub or sub in faces, face


def test_deleted_join_disjoint_supports():
    P = deleted_join([UniformMatroid(2, 4)] * 3, trunc=2)
    n = 4
    for face in P.all_faces():
        parts = {}
        for v in face:
            parts.setdefault(v // n, set()).add(v % n)
        supports = list(parts.values())
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_truncation_and_cap():
    # K4's own levels (6, 15, 16 faces) fit the cap; the join's 60 edges do not
    with pytest.raises(ResourceLimitError) as err:
        deleted_join([K4] * 2, trunc=2, cap=20)
    assert err.value.progress == {"dimension": 1, "cap": 20}
    P = deleted_join([K4] * 2, trunc=0)
    assert P.f_vector() == (12,)
    assert not P.complete


def test_join_cap_names_the_lowest_over_full_dimension():
    # U(3,30) has 435 edges, under the cap, but the join's 1,740 edges are not
    with pytest.raises(ResourceLimitError) as err:
        deleted_join([UniformMatroid(3, 30)] * 2, 2, 1000)
    assert err.value.progress == {"dimension": 1, "cap": 1000}


class _AskCounting(UniformMatroid):
    """U(r, n) recording every face it is asked to extend."""

    def __init__(self, r, n):
        super().__init__(r, n)
        self.asked = []

    def _extensions(self, face):
        self.asked.append(tuple(face))
        return super()._extensions(face)


def test_join_asks_each_element_part_once():
    # the copies of one matroid share its answers: every independent set of
    # at most trunc elements, below the rank, is asked once and no per-copy
    # repeat follows
    for trunc in range(5):
        for relative in (False, True):
            M = _AskCounting(3, 7)
            X = deleted_join([M] * 3, trunc, relative=relative)
            parts = [s for k in range(min(trunc, 2) + 1) for s in combinations(range(7), k)]
            assert X.f_vector() and sorted(M.asked) == sorted(parts), (trunc, relative)


def test_enumerate_faces_asks_each_face_it_extends_once(monkeypatch):
    # one _extensions call for the empty face and one per face below
    # max_size, in the walk's order; a uniform walk makes no _indep call
    indep = []
    monkeypatch.setattr(Matroid, "_indep", lambda self, ids: indep.append(ids))
    for s in (1, 2, 3):
        M = _AskCounting(3, 7)
        faces = list(enumerate_faces(M, s))
        assert faces == sorted(f for k in range(1, s + 1) for f in combinations(range(7), k))
        assert M.asked == [()] + [f for f in faces if len(f) < s], s
    assert not indep


def _shuffled_complete_graph(nv, seed):
    rng = random.Random(seed)
    perm = list(range(nv))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in combinations(range(nv), 2)]
    rng.shuffle(edges)
    return GraphicMatroid(nv, edges)


def test_independent_sets_match_the_grouped_walk(monkeypatch):
    # the level loop lists enumerate_faces grouped by size at every max_dim
    # below the rank; at a cap equal to a level's size, or one less, it
    # raises at the lowest level the grouped walk holds over the cap.  The
    # graphs test the sibling rule where it can break: trees that merge
    # only through a later edge, parallel edges and loops on either side of
    # the first non-loop
    linear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0), (Fraction(1, 2), 0, 3), (2, 1, 3)]
    mats = [*small_matroid_family(),
            ("loop-and-parallels", GraphicMatroid(4, [(0, 1), (1, 1), (1, 2), (1, 2), (2, 3),
                                                      (0, 3), (0, 2), (0, 2)])),
            ("disconnected", GraphicMatroid(9, [(5, 6), (0, 1), (6, 7), (1, 2), (0, 2), (5, 7),
                                                (3, 4), (7, 8), (2, 3)])),
            ("k6-shuffled", _shuffled_complete_graph(6, 7)),
            ("k7-shuffled", _shuffled_complete_graph(7, 11)),
            ("parallel-class", GraphicMatroid(4, [(0, 2), (1, 3), (1, 3), (0, 1), (1, 3),
                                                  (2, 3)])),
            ("loops-around-first", GraphicMatroid(4, [(2, 2), (0, 1), (1, 1), (1, 2), (0, 2),
                                                      (3, 3), (2, 3)])),
            ("linear-q", LinearMatroid(linear)), ("linear-gf3", LinearMatroid(linear, field=3))]
    checked = 0
    for name, M in mats:
        for max_dim in range(M.rank()):
            walk = {}
            for face in enumerate_faces(M, max_dim + 1):
                walk.setdefault(len(face) - 1, []).append(face)
            assert independent_sets(M, max_dim, DEFAULT_FACE_CAP) == walk, (name, max_dim)
            for cap in {len(level) - less for level in walk.values() for less in (0, 1)}:
                over = [d for d in sorted(walk) if len(walk[d]) > cap]
                if not over:
                    assert independent_sets(M, max_dim, cap) == walk, (name, max_dim, cap)
                    continue
                with pytest.raises(ResourceLimitError) as err:
                    independent_sets(M, max_dim, cap)
                assert err.value.progress == {"dimension": over[0], "cap": cap}, (name, cap)
                checked += 1
    assert checked > 400
    # one _extensions call per face below the top, level by level
    M = _AskCounting(3, 7)
    levels = independent_sets(M, 2, DEFAULT_FACE_CAP)
    assert M.asked == [(), *levels[0], *levels[1]]
    # a graphic build asks _extensions for the empty face alone, _children
    # once per level above 0, and labels one forest per prefix of a
    # parent, not one per face: shuffled K6 through 4 has 1,635 faces below
    # the top and 549 such prefixes
    asked, grown, labelled = [], [], []
    ext, kids, joined = GraphicMatroid._extensions, GraphicMatroid._children, matroids._joined
    monkeypatch.setattr(GraphicMatroid, "_extensions",
                        lambda self, face: asked.append(tuple(face)) or ext(self, face))
    monkeypatch.setattr(GraphicMatroid, "_children",
                        lambda self, level: grown.append(len(level)) or kids(self, level))
    monkeypatch.setattr(matroids, "_joined", lambda *a: labelled.append(a) or joined(*a))
    levels = independent_sets(_shuffled_complete_graph(6, 7), 4, DEFAULT_FACE_CAP)
    assert asked == [()] and grown == [len(levels[d]) for d in range(4)]
    assert sum(grown) == 1635
    prefixes = sum(len({f[:i] for f in levels[d] for i in range(1, d + 1)}) for d in range(4))
    assert len(labelled) == prefixes == 549


def test_one_factor_cap_names_the_lowest_over_full_dimension():
    # U(3,60) has 1,770 edges and 34,220 triangles; the levels are built
    # from dimension 0 up, so the edges meet the smaller cap first
    with pytest.raises(ResourceLimitError) as err:
        as_complex(UniformMatroid(3, 60), 2, 1000)
    assert err.value.progress == {"dimension": 1, "cap": 1000}
    with pytest.raises(ResourceLimitError) as err:
        as_complex(UniformMatroid(3, 60), 2, 50)
    assert err.value.progress == {"dimension": 0, "cap": 50}
    assert as_complex(UniformMatroid(3, 60), 2, 34220).f_vector() == (60, 1770, 34220)


def test_one_factor_cap_holds_the_levels_below_a_deep_walk():
    # a complex 1,500 levels deep passes a cap of 1 at every level: f_0 =
    # 1500 decides, before any level above is built
    with pytest.raises(ResourceLimitError) as err:
        as_complex(UniformMatroid(1500, 1500), 1499, 1)
    assert err.value.progress == {"dimension": 0, "cap": 1}
    # a depth-first walk reaches 30-element faces first, and holding the
    # cap's worth of them came to 4.9 MB traced here; the levels 0..2 alone
    # (1,770 edges and 2,001 triangles) hold 0.25 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            as_complex(UniformMatroid(30, 60), 29, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.progress == {"dimension": 2, "cap": 2000}
    assert peak < 400_000, peak


def test_chessboard_cap_checked_while_a_level_grows():
    # C(8, 20) has 10,640 edges; the level stops at cap + 1 of them
    with pytest.raises(ResourceLimitError) as err:
        chessboard(8, 20, trunc=3, cap=1000)
    assert "1001 > 1000" in str(err.value)
    assert err.value.progress == {"dimension": 1, "cap": 1000}
    with pytest.raises(ResourceLimitError) as err:
        chessboard(8, 20, cap=100)
    assert err.value.progress == {"dimension": 0, "cap": 100}
    assert chessboard(8, 20, trunc=0, cap=160).f_vector() == (160,)


def test_chessboard_joins_suffixes_on_demand():
    # every copy's suffix of non-loop vertices built up front held about
    # k*k*m/2 entries: 77 MB traced here, about 5 GB at k = m = 1024
    tracemalloc.start()
    try:
        X = chessboard(256, 256, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.f_vector() == (65536,)
    assert peak < 30 << 20, peak


def test_colourful_complex_top_faces():
    for r in (1, 2, 3):
        for d in (1, 2):
            Y = colourful_matroid(r, d)
            X = as_complex(Y, d)
            assert len(X.faces(d)) == r ** (d + 1)


def test_join_input_errors():
    with pytest.raises(InputError):
        deleted_join([UniformMatroid(1, 2), UniformMatroid(1, 3)])
    with pytest.raises(InputError):
        deleted_join([])
    with pytest.raises(InputError):
        deleted_join([UniformMatroid(3, 6)] * 2, trunc=-2)


def _cap_outcome(build):
    try:
        X = build()
    except ResourceLimitError as err:
        return str(err), err.progress
    return X.f_vector(), X.complete


def test_relative_builds_count_every_face_against_the_cap():
    # the relative build stores only the faces off U, the union of the stars
    # of F, but counts the faces in U too: every cap ends the same way
    for mats, trunc in (([UniformMatroid(1, 4)] * 3, 2), ([UniformMatroid(2, 5)] * 2, 3),
                        ([UniformMatroid(0, 6), K4, UniformMatroid(2, 6)], 3)):
        total = sum(deleted_join(mats, trunc).f_vector())
        for cap in range(total + 1):
            assert _cap_outcome(lambda: deleted_join(mats, trunc, cap, relative=True)) == \
                _cap_outcome(lambda: deleted_join(mats, trunc, cap)), (mats, cap)


def test_first_copy_cut_below_its_rank_is_incomplete():
    # the first copy's complex cut below its rank; the first vertex 0 is a
    # coloop here, so the only faces above the top hold it.  A stored build
    # (U empty) finds them as children of its top faces, a relative one as
    # cones over its top faces in U
    bridge = GraphicMatroid(3, [(0, 1), (1, 2), (1, 2)])
    for mats in ([UniformMatroid(2, 2), UniformMatroid(0, 2)],
                 [UniformMatroid(3, 3), UniformMatroid(1, 3)],
                 [bridge, UniformMatroid(0, 3)], [bridge, bridge]):
        for trunc in range(-1, 3):
            faces, complete = brute_deleted_join(mats, trunc)
            for relative in (False, True):
                X = deleted_join(mats, trunc, relative=relative)
                assert (sum(X.f_vector()), X.complete) == (
                    sum(map(len, faces.values())), complete), (mats, trunc, relative)


def _relative_levels(mats, trunc):
    """(stored levels, f-vector, complete) of a build through ``trunc``
    relative to U, by brute force.  F holds the first vertex v1 and, for each
    later copy of rank >= 2, the vertex of its least non-loop element that F
    does not use yet; a level keeps the faces s with, for each vertex f of F,
    f not in s and s + f no face."""
    faces, _ = brute_deleted_join(mats, trunc + 1)
    f = tuple(len(faces[d]) for d in range(trunc + 1) if d in faces)
    if not faces:
        return [], f, True
    n, (v1,) = mats[0].n, faces[0][0]
    apexes = [v1]
    for c in range(v1 // n + 1, len(mats)):
        free = [e for e in range(n) if mats[c].is_independent([e])
                and e not in {v % n for v in apexes}]
        if mats[c].rank() >= 2 and free:
            apexes.append(c * n + free[0])
    above = [set(faces.get(d + 1, ())) for d in range(len(f))]
    return [[s for s in faces[d] if all(v not in s and tuple(sorted(s + (v,))) not in above[d]
                                        for v in apexes)] for d in range(len(f))], \
        f, trunc + 1 not in faces


def test_counted_top_star_matches_the_built_star():
    # a relative build counts the faces of its top level in U and builds
    # only the children that may leave U; the stored build builds them all.
    # Cases: e1 = 0 a loop of copy 1; e1 = 1, which a copy-1 part {0}
    # extends in its own copy; K4's triangles, whose parts leave the star in
    # copy c1 itself; U(3,5), cut below its rank at trunc 0 and 1; v1 in a
    # later copy; a cone over v1, whose top star alone makes the build
    # incomplete; rank-1 copies, which F skips, between and beside rank-2
    # ones; parallel edges, whose part {e} spans the element of F in copies
    # after the first.  trunc 0 counts nothing.
    loop_first = GraphicMatroid(4, [(1, 1), (0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    apex, base = GraphicMatroid(3, [(0, 1), (1, 1), (2, 2)]), GraphicMatroid(3, [(0, 0), (0, 1), (1, 2)])
    parallel = GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)])
    u27, u17 = UniformMatroid(2, 7), UniformMatroid(1, 7)
    cases = ([UniformMatroid(2, 6), loop_first, UniformMatroid(3, 6)],
             [loop_first, UniformMatroid(2, 6)], [K4] * 2, [UniformMatroid(3, 5)] * 2,
             [UniformMatroid(0, 6), K4, UniformMatroid(2, 6)], [apex, base],
             [u27, u17, u17, u27], [u17, u27, u27], [parallel] * 3)
    for mats in cases:  # four copies only through 3: brute force takes 3 s at 4
        top = min(sum(M.rank() for M in mats), mats[0].n if len(mats) < 4 else 3)
        for trunc in range(top + 1):
            rel, stored = deleted_join(mats, trunc, relative=True), deleted_join(mats, trunc)
            assert (rel.f_vector(), rel.complete) == (stored.f_vector(), stored.complete), \
                (mats, trunc)
            assert (list(rel.faces_by_dim.values()), rel.f_vector(), rel.complete) == \
                _relative_levels(mats, trunc), (mats, trunc)


def test_counted_top_star_pins_and_caps():
    # the f-vector counts the top's faces in U the relative build never
    # stores; a cap that fires inside that level ends as the stored build's.
    # U(3,9)^{*3} stores 440 faces (4,082 off the star of v1 alone), K5^{*2}
    # 409 (1,121), as the brute force of _relative_levels gives
    K5 = GraphicMatroid(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    for mats, f, stored in (([UniformMatroid(3, 9)] * 3, (27, 324, 2268, 9828), [0, 0, 26, 414]),
                            ([K5] * 2, (20, 180, 940, 3050), [0, 3, 52, 354])):
        X = deleted_join(mats, 3, relative=True)
        assert (X.f_vector(), [len(X.faces(d)) for d in range(4)]) == (f, stored)
        for cap in (f[2], f[2] + 1, (f[2] + f[3]) // 2, f[3] - stored[3], f[3] - 1, f[3]):
            outcome = _cap_outcome(lambda: deleted_join(mats, 3, cap, relative=True))
            assert outcome == _cap_outcome(lambda: deleted_join(mats, 3, cap)), (mats, cap)
            assert outcome[1] == ({"dimension": 3, "cap": cap} if cap < f[3] else X.complete)
