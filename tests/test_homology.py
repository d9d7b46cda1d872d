"""Homology tests: boundary structure, Betti numbers vs an independent SNF
oracle, and the connectivity verifiers."""

import os
import random
import subprocess
import sys
from copy import deepcopy
from itertools import combinations
from pathlib import Path

import pytest

from generator import from_facets, full_simplex, small_matroid_family
from oracles import column_rank, element_matching, exact_betti, morse_complex, snf_betti
from tvermat import (
    GraphicMatroid,
    HypothesisViolation,
    PartitionMatroid,
    ResourceLimitError,
    SimplicialComplex,
    UniformMatroid,
    as_complex,
    betti_reduced,
    boundary_matrix,
    chessboard,
    colourful_matroid,
    conjecture_scan,
    deleted_join,
    homologically_connected,
    verify_claim,
    verify_corollary,
)
from tvermat.formats import jsonable
from tvermat import homology
from tvermat.homology import (
    _element_matching,
    _facets,
    _fold_caps,
    _morse_complex,
    _rank_sparse_exact,
    join_connectivity,
)

K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_facets_match_the_slicing_definition():
    # omitting position j has sign (-1)^j; the size-1 face's only facet is ()
    assert list(_facets((7,))) == [((), 1)]
    for k in range(1, 9):
        face = tuple(range(3, 3 + 2 * k, 2))
        want = {(face[:j] + face[j + 1:], (-1) ** j) for j in range(k)}
        got = list(_facets(face))
        assert len(got) == k and set(got) == want, face
        assert [r for r, _ in got] == sorted(r for r, _ in want), face


def test_boundary_single_edge():
    X = from_facets([(0, 1)])
    d1 = boundary_matrix(X, 1)
    # boundary of [v0, v1] is v1 - v0: two entries, signs -1 and +1
    assert d1.cols == [[(0, -1), (1, 1)]]


def _compose(a, b):
    """The columns of a @ b for column-major sparse matrices a and b."""
    out = []
    for col in b.cols:
        acc = {}
        for r, v in col:
            for rr, vv in a.cols[r]:
                acc[rr] = acc.get(rr, 0) + v * vv
        out.append([(r, v) for r, v in sorted(acc.items()) if v])
    return out


def test_boundary_composition_zero():
    samples = [full_simplex(3), chessboard(3, 4), as_complex(K4, 2),
               chessboard(2, 3)]
    for X in samples:
        top = X.dimension
        for i in range(1, top):
            prod = _compose(boundary_matrix(X, i), boundary_matrix(X, i + 1))
            assert all(col == [] for col in prod)


def test_rank_of_cycle_boundary():
    c23 = chessboard(2, 3)  # 6-cycle
    d1 = boundary_matrix(c23, 1)
    assert len(_rank_sparse_exact([dict(col) for col in d1.cols])) == 5


def test_betti_examples():
    assert betti_reduced(chessboard(2, 2), 1).betti == (1, 0)
    assert betti_reduced(chessboard(2, 3), 1).betti == (0, 1)
    assert betti_reduced(chessboard(3, 4), 2).betti == (0, 2, 1)


def test_betti_exact_only_path_agrees():
    c34 = chessboard(3, 4)
    assert exact_betti(c34, 2) == (0, 2, 1)


def test_betti_vs_snf_oracle_random():
    rng = random.Random(1234)
    for trial in range(25):
        n = rng.randint(3, 8)
        nf = rng.randint(1, 5)
        facets = []
        for _ in range(nf):
            size = rng.randint(1, min(4, n))
            facets.append(tuple(sorted(rng.sample(range(n), size))))
        X = from_facets(facets)
        top = X.dimension
        up_to = max(top, 0)
        ours = betti_reduced(X, up_to).betti
        oracle = snf_betti(X.faces_by_dim, up_to)
        assert ours == oracle, (facets, ours, oracle)


def test_cleared_ranks_vs_exact_and_snf_random():
    # unions of simplex boundaries (spheres of dimension 1..3) plus loose
    # faces: homology in several degrees, so clearing acts across several maps
    rng = random.Random(2026)
    multi = 0
    for trial in range(30):
        n = rng.randint(7, 10)
        facets = []
        for k in [rng.randint(4, 5)] + [rng.randint(3, 5) for _ in range(rng.randint(1, 3))]:
            facets += combinations(sorted(rng.sample(range(n), k)), k - 1)
        for _ in range(rng.randint(0, 4)):
            facets.append(tuple(sorted(rng.sample(range(n), rng.randint(1, 4)))))
        X = from_facets(facets)
        d = X.dimension
        assert d in (2, 3)
        ours = betti_reduced(X, d).betti
        assert ours == exact_betti(X, d), facets
        assert ours == snf_betti(X.faces_by_dim, d), facets
        multi += sum(1 for b in ours if b) >= 2
    assert multi >= 10


def test_cleared_ranks_vs_exact_on_deleted_joins():
    # the deleted joins the verifiers check, through the degree their
    # (k*rank - 2)-connectivity asks for; most have homology there
    checked = nonvanishing = 0
    for _, M in small_matroid_family(explicit_count=10):
        for k in (2, 3):
            up = k * M.rank() - 2
            if up < 0 or k * M.n > 18:
                continue
            X = deleted_join([M] * k, up + 1)
            ours = betti_reduced(X, up).betti
            assert ours == exact_betti(X, up), (M, k)
            checked += 1
            nonvanishing += any(ours)
    assert checked >= 80 and nonvanishing >= 60


def test_chessboard_scale_vanishes():
    # BLVZ: C(k,m) is (nu-2)-connected, nu = min(k, m, floor((k+m+1)/3)),
    # which is 5 here, so degrees 0..3 vanish
    bv = betti_reduced(chessboard(5, 9, trunc=4), 3)
    assert bv.betti == (0, 0, 0, 0)


def test_chessboard_torsion_betti():
    # chessboard complexes carry 3-torsion (Shareshian-Wachs), which a rank
    # mod 3 can miscount; the pinned values were computed before by exact
    # elimination on the boundary columns
    assert betti_reduced(chessboard(5, 7, trunc=4), 3).betti == (0, 0, 0, 98)
    assert betti_reduced(chessboard(5, 8, trunc=4), 3).betti == (0, 0, 0, 14)
    assert betti_reduced(chessboard(6, 6, trunc=5), 4).betti == (0, 0, 0, 25, 210)


def _critical_counts(X, top):
    """Nonzero critical-face counts of the element matching, by dimension."""
    critical, _ = _morse_complex(X, top)
    return {k - 1: len(cells) for k, cells in enumerate(critical) if cells}


def test_morse_critical_cell_counts():
    # 14 = beta_3 and 1,173 = dim ker d_4 on C(5,8); on C(6,8),
    # beta_4 = 1,316 = 1,330 - 14
    assert _critical_counts(chessboard(5, 8, trunc=4), 4) == {3: 14, 4: 1173}
    assert _critical_counts(chessboard(6, 8, trunc=5), 5) == {3: 14, 4: 1330, 5: 429}


# gapped, negative vertex ids put the first vertex's cut and the buckets off 0..n-1
GAPPED = list(combinations((-7, 3, 40, 41), 3)) + [(-7, 41, 99), (40, 41, 99), (-2, 3),
                                                    (-2, 40, 99)]


def test_element_matching_matches_the_reference():
    # skipping a size whose free faces have run out pairs the same faces; the
    # faces off the first vertex's star hold about half of all pairs.  A
    # face's first visit pairs it with its tail: the gapped, negative vertex
    # ids and the relative joins, whose vertices include those of F, test
    # that every face in a vertex's first bucket starts with that vertex
    k6 = GraphicMatroid(6, list(combinations(range(6), 2)))
    k5 = GraphicMatroid(5, list(combinations(range(5), 2)))
    cases = [(chessboard(k, m, trunc), trunc)
             for k in range(1, 6) for m in range(1, 7) for trunc in range(5)]
    cases += [(deleted_join([UniformMatroid(3, 9)] * 3, 3), 3),
              (deleted_join([k5] * 2, 3), 3), (as_complex(k6, 4), 4)]
    cases += [(from_facets([]), 1), (from_facets([(0,)]), 1),
              (from_facets([(0, 1), (1, 2), (0, 2)]), 2), (full_simplex(6), 3),
              (from_facets(GAPPED), 3)]
    cases += [(chessboard(k, m, 3, relative=True), 3) for k, m in ((3, 4), (4, 5), (5, 6))]
    cases += [(deleted_join([UniformMatroid(3, 9)] * 3, 3, relative=True), 3)]
    paired = 0
    for X, top in cases:
        for t in range(top + 1):
            up, critical = _element_matching(X, t)
            assert (up, critical) == element_matching(X, t), (X, t)
            paired += sum(map(len, up))
    assert paired > 10_000


def test_morse_complex_matches_the_reference():
    # the faces off the first vertex's star, cut by levels and flowed along
    # the Kahn order, give the reference's critical faces and every entry of
    # every map, read off its coboundary rows; the gapped, negative vertex
    # ids put the star's cut and the buckets off 0..n-1
    k6 = GraphicMatroid(6, list(combinations(range(6), 2)))
    k5 = GraphicMatroid(5, list(combinations(range(5), 2)))
    cases = [(chessboard(k, m), top)
             for k in range(1, 6) for m in range(1, 7) for top in range(min(k, m) + 1)]
    cases += [(deleted_join([UniformMatroid(3, 9)] * 3, 3), 3),
              (deleted_join([k5] * 2, 3), 3), (as_complex(k6, 4), 4)]
    cases += [(from_facets(GAPPED), top) for top in range(4)]
    entries = 0
    for X, top in cases:
        critical, maps = _morse_complex(X, top)
        ref_critical, ref_maps = morse_complex(X, top)
        assert critical == ref_critical, (X, top)
        for cells, rows, ref in zip(critical[1:], maps, ref_maps, strict=True):
            triplets = sorted((r, c, v) for r, row in enumerate(rows) for c, v in row.items())
            assert (len(rows), len(cells), triplets) == ref, (X, top)
            assert all(list(row) == sorted(row) for row in rows), (X, top)  # in cell order
            entries += len(ref[2])
    assert entries > 2_500


# planted complexes that claim to be the hollow triangle relative to its
# first vertex 0, for betti_reduced(X, 1), which reads faces of dimensions
# 0..2, but store faces holding 0: every face; the edge (0, 2) besides the
# one off-star edge (1, 2); a 2-face (0, 1, 2) above them
PLANTED = [{0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]},
           {0: [], 1: [(0, 2), (1, 2)]},
           {0: [], 1: [(1, 2)], 2: [(0, 1, 2)]}]


def test_planted_first_stages_are_rejected():
    for planted in PLANTED:
        X = SimplicialComplex(planted, 1, True, (3, 3), [0, 1, 2])
        with pytest.raises(RuntimeError, match="first vertex 0"):
            betti_reduced(X, 1)
    # the true relative complex is accepted, and the stored one is cut to it
    X = SimplicialComplex({0: [], 1: [(1, 2)]}, 1, True, (3, 3), [0, 1, 2])
    assert betti_reduced(X, 1).betti == (0, 1)
    assert betti_reduced(as_complex(UniformMatroid(2, 3), 1), 1).betti == (0, 1)


def test_planted_first_stages_are_rejected_under_python_O():
    script = f"""
import sys
from tvermat import SimplicialComplex, betti_reduced
assert sys.flags.optimize == 1
for planted in {PLANTED!r}:
    try:
        betti_reduced(SimplicialComplex(planted, 1, True, (3, 3), [0, 1, 2]), 1)
        sys.exit(f"planted complex accepted: {{planted}}")
    except RuntimeError as err:
        if "first vertex 0" not in str(err):
            sys.exit(f"wrong error: {{err}}")
print("ok")
"""
    src = Path(homology.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# planted complexes relative to the stars of the apexes 0 and 2, whose stored
# faces hold the second apex 2: a vertex, an edge, and an edge above a
# stored vertex; the first-vertex check never looks past each level's head
PLANTED_APEX = [{0: [(2,)], 1: []}, {0: [], 1: [(1, 2)]}, {0: [(1,)], 1: [(1, 2)]}]


def test_planted_apex_faces_are_rejected():
    for planted in PLANTED_APEX:
        X = SimplicialComplex(planted, 1, True, (3, 3), [0, 1, 2], [0, 2])
        with pytest.raises(RuntimeError, match="apex 2"):
            betti_reduced(X, 1)


def test_planted_apex_faces_are_rejected_under_python_O():
    script = f"""
import sys
from tvermat import SimplicialComplex, betti_reduced
assert sys.flags.optimize == 1
for planted in {PLANTED_APEX!r}:
    try:
        betti_reduced(SimplicialComplex(planted, 1, True, (3, 3), [0, 1, 2], [0, 2]), 1)
        sys.exit(f"planted complex accepted: {{planted}}")
    except RuntimeError as err:
        if "apex 2" not in str(err):
            sys.exit(f"wrong error: {{err}}")
print("ok")
"""
    src = Path(homology.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_first_stage_pairs_leave_the_gradient_pass(monkeypatch):
    # the work count: a complex built relative to its first vertex stores
    # no face of that vertex's star, so no pair of the element matching's
    # first stage reaches the matching or the Kahn walk.  Pinned: stored
    # faces, all faces, pairs walked and critical top faces; then the pairs
    # walked and critical top faces of the stored build, whose top faces in
    # the star stay critical (the whole element matching makes 2,295, 1,186
    # and 4,523 pairs).  U(3,9)^{*3} is built relative to the stars of three
    # vertices, one per copy, and walks fewer pairs than the stored build;
    # K6, one factor, is stored whole, and the matching cuts its star itself
    k6 = GraphicMatroid(6, list(combinations(range(6), 2)))
    walked = []
    morse_map = homology._morse_map
    monkeypatch.setattr(homology, "_morse_map", lambda pairs, rows, cells:
                        walked.append(len(pairs)) or morse_map(pairs, rows, cells))
    for build, top, pinned, stored in [
            (lambda **kw: deleted_join([UniformMatroid(3, 9)] * 3, 3, **kw), 3,
             (440, 12_447, 26, 388), (562, 7_858)),
            (lambda **kw: deleted_join([k6], 4, **kw), 4, (2_931, 2_931, 364, 560), (364, 560)),
            (lambda **kw: chessboard(5, 7, trunc=4, **kw), 4, (7_186, 9_275, 3_478, 132),
             (3_478, 132))]:
        X = build(relative=True)
        walked.clear()
        critical, _ = _morse_complex(X, top)
        assert (sum(map(len, X.faces_by_dim.values())), X.num_faces(), sum(walked),
                len(critical[-1])) == pinned, X
        walked.clear()
        critical, _ = _morse_complex(build(), top)
        assert (sum(walked), len(critical[-1])) == stored, X


def test_morse_ignores_faces_above_the_next_dimension():
    # through dimension 2 the 3-simplex is its boundary, a 2-sphere, whose
    # 2-face (1, 2, 3) off the star of 0 stays critical; the stored 3-face
    # puts it in the star, and the faces above are not looked at
    X = full_simplex(4)
    sphere = from_facets(combinations(range(4), 3))
    assert _critical_counts(sphere, 2) == {2: 1}
    assert betti_reduced(sphere, 2).betti == (0, 0, 1)
    assert _critical_counts(X, 1) == _critical_counts(X, 2) == _critical_counts(X, 3) == {}
    assert betti_reduced(X, 1).betti == (0, 0)
    assert betti_reduced(X, 2).betti == (0, 0, 0)
    board = chessboard(4, 6)
    assert betti_reduced(board, 1).betti == betti_reduced(chessboard(4, 6, trunc=2), 1).betti


def test_morse_empty_complex_and_single_vertex():
    empty = from_facets([])
    assert _critical_counts(empty, 1) == {-1: 1}
    assert betti_reduced(empty, 1).betti == (0, 0) == exact_betti(empty, 1)
    point = from_facets([(0,)])
    assert _critical_counts(point, 1) == {}
    assert betti_reduced(point, 0).betti == (0,)


def test_morse_complex_keeps_the_3_torsion():
    # H_2(C(5,5)) carries 3-torsion (Shareshian-Wachs 2007): the Morse map
    # onto the 30 critical 2-faces has full rank over Q, not over GF(3), so
    # the reduction is integral and betti_reduced reads the rational rank
    X = chessboard(5, 5, trunc=3)
    critical, maps = _morse_complex(X, 3)
    assert len(critical[3]) == 30
    dense = [[row.get(c, 0) for c in range(len(critical[4]))] for row in maps[3]]
    assert column_rank(dense) == 30 and column_rank(dense, 3) == 29
    assert betti_reduced(X, 2).betti == (0, 0, 0) == exact_betti(X, 2)


def test_cyclic_matching_is_rejected(monkeypatch):
    # a planted matching around the hollow triangle, each vertex paired with
    # the next edge: a closed gradient path, whose Morse complex would read
    # beta_1 = 0 where the triangle has beta_1 = 1
    X = from_facets([(0, 1), (1, 2), (0, 2)])
    cyclic = {(0,): ((0, 1), -1), (1,): ((1, 2), -1), (2,): ((0, 2), 1)}
    planted = ([{}, cyclic, {}, {}], [[()], [], [], []])
    monkeypatch.setattr(homology, "_element_matching", lambda X, top: planted)
    with pytest.raises(RuntimeError, match="cycle"):
        betti_reduced(X, 1)
    monkeypatch.undo()
    assert betti_reduced(X, 1).betti == (0, 1)


def test_cyclic_matching_is_rejected_under_python_O():
    # the acyclicity check is a raise, not an assert, so -O keeps it
    script = """
import sys
from generator import from_facets
from tvermat import betti_reduced, homology
assert sys.flags.optimize == 1
cyclic = {(0,): ((0, 1), -1), (1,): ((1, 2), -1), (2,): ((0, 2), 1)}
homology._element_matching = lambda X, top: ([{}, cyclic, {}, {}], [[()], [], [], []])
try:
    betti_reduced(from_facets([(0, 1), (1, 2), (0, 2)]), 1)
    sys.exit("cyclic matching accepted")
except RuntimeError as err:
    if "cycle" not in str(err):
        sys.exit(f"wrong error: {err}")
print("ok")
"""
    path = os.pathsep.join([str(Path(homology.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])  # src/ and tests/
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# a planted cycle among the faces off the first vertex's star, where the
# matching runs, so only the Kahn walk can reject it: beside the isolated
# first vertex 0, whose star holds no other face, the hollow triangle on
# 1, 2, 3 with each vertex paired with the next edge; its Morse complex
# would read beta_0 = beta_1 = 0 where the complex has beta_0 = beta_1 = 1.
# The second case adds an isolated vertex 4, left critical, so the critical
# vertex and the paired ones share the Morse map's index
SWEPT_CYCLE = ([{}, {(1,): ((1, 2), 1), (2,): ((2, 3), 1), (3,): ((1, 3), -1)},
                {}, {}], [[], [], [], []])
SWEPT_CASES = [(SWEPT_CYCLE, [(0,), (1, 2), (2, 3), (1, 3)], (1, 1)),
               ((SWEPT_CYCLE[0], [[], [(4,)], [], []]),
                [(0,), (4,), (1, 2), (2, 3), (1, 3)], (2, 1))]


def test_cycle_past_the_first_stage_is_rejected(monkeypatch):
    for planted, facets, betti in SWEPT_CASES:
        X = from_facets(facets)
        monkeypatch.setattr(homology, "_element_matching", lambda X, top: deepcopy(planted))
        with pytest.raises(RuntimeError, match="matching has a cycle"):
            betti_reduced(X, 1)
        monkeypatch.undo()
        assert betti_reduced(X, 1).betti == betti


def test_cycle_past_the_first_stage_is_rejected_under_python_O():
    script = f"""
import sys
from generator import from_facets
from tvermat import betti_reduced, homology
assert sys.flags.optimize == 1
for planted, facets, _ in {SWEPT_CASES!r}:
    homology._element_matching = lambda X, top: planted
    try:
        betti_reduced(from_facets(facets), 1)
        sys.exit(f"cyclic matching accepted: {{facets}}")
    except RuntimeError as err:
        if "matching has a cycle" not in str(err):
            sys.exit(f"wrong error: {{err}}")
print("ok")
"""
    path = os.pathsep.join([str(Path(homology.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])  # src/ and tests/
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _relative_matches_stored(build, up_to, betti):
    """The build relative to the first vertex against the stored one, both
    through dimension up_to + 1: f-vector, face count and completeness
    agree, and the Betti numbers are ``betti``, those of the whole complex;
    on a small complex they are the Smith oracle's, and the connectivity
    reports agree.  Returns 1 for the count."""
    stored, rel = build(up_to + 1), build(up_to + 1, relative=True)
    assert (rel.f_vector(), rel.num_faces(), rel.complete) == (
        stored.f_vector(), stored.num_faces(), stored.complete), (stored, up_to)
    assert all(v not in face for v in (rel.vertices or ())[:1] for face in rel.all_faces())
    if up_to >= 0:
        assert betti_reduced(rel, up_to).betti == betti[:up_to + 1], (stored, up_to)
    if 0 <= up_to and stored.num_faces() <= 300:
        assert betti[:up_to + 1] == snf_betti(stored.faces_by_dim, up_to), (stored, up_to)
        assert (homologically_connected(rel, up_to).to_payload()
                == homologically_connected(stored, up_to).to_payload())
    return 1


def _all_ups(build, lo=-1):
    """_relative_matches_stored at every up_to from lo to one past the
    dimension, against the Betti numbers of the stored whole complex."""
    top = build(None).dimension + 1
    betti = betti_reduced(build(None), top).betti if top >= 0 else ()
    return sum(_relative_matches_stored(build, up_to, betti) for up_to in range(lo, top + 1))


def test_relative_builds_match_stored_builds():
    cases = 0
    for k in range(1, 7):
        for m in range(1, 8):
            cases += _all_ups(lambda t, **kw: chessboard(k, m, t, **kw), 0)
    loop_graph = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2), (0, 1), (0, 2)])
    factors = [UniformMatroid(2, 5), UniformMatroid(3, 5), loop_graph,
               PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2])]
    parallel = GraphicMatroid(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    for M in factors + [UniformMatroid(1, 3), UniformMatroid(2, 4), parallel]:
        for k in (1, 2, 3):
            cases += _all_ups(lambda t, **kw: deleted_join([M] * k, t, **kw))
    # distinct factors whose first copy is all loops, so v1 lies in a later
    # copy, as verify-claim builds them
    for mats in ([UniformMatroid(0, 5), UniformMatroid(2, 5), loop_graph],
                 [UniformMatroid(0, 5), UniformMatroid(0, 5), factors[3], UniformMatroid(1, 5)],
                 [loop_graph, UniformMatroid(0, 5), UniformMatroid(2, 5)]):
        cases += _all_ups(lambda t, **kw: deleted_join(mats, t, **kw))
    # cones, whose relative levels hold no vertex: the full simplex, an edge
    # 0 that is a coloop; then the empty complex and a single vertex
    cone = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    for M in (UniformMatroid(4, 4), cone, UniformMatroid(0, 3), UniformMatroid(1, 1)):
        cases += _all_ups(lambda t, **kw: deleted_join([M], t, **kw))
    # one factor is stored whole; beside a copy of loops it is built relative
    for M in (UniformMatroid(4, 4), cone):
        X = deleted_join([M, UniformMatroid(0, M.n)], 3, relative=True)
        assert not X.faces(0) and homologically_connected(X, 1).verified
    assert cases >= 300


def test_euler_poincare():
    samples = [chessboard(2, 3), chessboard(3, 4), as_complex(K4, 2),
               full_simplex(4), from_facets([(0, 1), (2, 3)])]
    for X in samples:
        top = max(X.dimension, 0)
        bv = betti_reduced(X, top)
        reduced_euler = sum((-1) ** i * b for i, b in enumerate(bv.betti))
        euler = sum((-1) ** d * count for d, count in enumerate(X.f))
        assert euler - 1 == reduced_euler


def test_homologically_connected_examples():
    rep = homologically_connected(as_complex(UniformMatroid(2, 4), 1), 0)
    assert rep.verified

    rep = homologically_connected(chessboard(2, 2), 0)
    assert not rep.verified and rep.first_nonvanishing == 0

    rep = homologically_connected(chessboard(3, 5), 1)
    assert rep.verified

    rep = homologically_connected(chessboard(2, 3), -1)
    assert rep.verified  # nonempty is all that is asked

    empty = from_facets([])
    assert not homologically_connected(empty, -1).verified


def test_connectivity_edge_case_payloads():
    cases = [
        (homologically_connected(chessboard(2, 3), -1),
         {"bound": -1, "verified": True, "vanishing": [], "first_nonvanishing": None,
          "f_vector": [1, 6, 6], "num_faces": 12, "betti_checked": []}),
        (homologically_connected(from_facets([]), -1),
         {"bound": -1, "verified": False, "vanishing": [], "first_nonvanishing": None,
          "f_vector": [1], "num_faces": 0, "betti_checked": [],
          "note": "complex is empty"}),
        (homologically_connected(from_facets([]), 2),
         {"bound": 2, "verified": False, "vanishing": [False, False, False],
          "first_nonvanishing": 0, "f_vector": [1], "num_faces": 0,
          "betti_checked": [], "note": "complex is empty"}),
        (join_connectivity([UniformMatroid(1, 3)], -3, context={"rank": 1}),
         {"bound": -3, "verified": True, "vanishing": [], "first_nonvanishing": None,
          "f_vector": [1], "num_faces": 0, "betti_checked": [],
          "note": "bound below -1 is vacuous", "context": {"rank": 1}}),
    ]
    for rep, want in cases:
        assert jsonable(rep.to_payload()) == want


def test_matroid_connectivity_sample():
    for M in (UniformMatroid(2, 4), UniformMatroid(3, 6), K4,
              colourful_matroid(2, 2)):
        c = M.rank() - 2
        X = as_complex(M, max(c + 1, 0))
        assert homologically_connected(X, c).verified


def test_verify_claim_examples():
    M = UniformMatroid(2, 4)
    rep = verify_claim([M], [frozenset({0, 1})], 1)
    assert rep.bound == -1 and rep.verified

    rep = verify_claim([M, M], [frozenset({0, 1}), frozenset({2, 3})], 1)
    assert rep.bound == 0 and rep.verified

    # rank-1 factors: each part must split into m=2 singletons
    one = UniformMatroid(1, 4)
    rep = verify_claim([one, one], [frozenset({0, 1}), frozenset({2, 3})], 2)
    assert rep.bound == 0 and rep.verified


def test_verify_claim_hypothesis_violations():
    one = UniformMatroid(1, 3)
    with pytest.raises(HypothesisViolation) as err:
        verify_claim([one, one], [frozenset({0}), frozenset({1, 2})], 1)
    assert err.value.certificate.witness_set == frozenset({1, 2})
    with pytest.raises(HypothesisViolation):
        verify_claim([one, one], [frozenset({0, 1}), frozenset({1, 2})], 2)


def test_verify_corollary_examples():
    rep = verify_corollary(UniformMatroid(1, 3), 2)
    assert rep.bound == -1 and rep.verified

    rep = verify_corollary(UniformMatroid(2, 4), 2)
    assert rep.bound == 0 and rep.verified

    rep = verify_corollary(colourful_matroid(2, 1), 2)
    assert rep.bound == 0 and rep.verified
    assert rep.context["b"] == 2 and rep.context["rank"] == 2


def test_fold_connectivity_matches_the_join_loop():
    # the f_0 and f_1 counts checked before the k copies are listed name the
    # dimension the build would: the same report or the same cap error
    def outcome(check, *args):
        try:
            return check(*args)
        except ResourceLimitError as err:
            return str(err), err.progress

    def folded(M, k, c, cap, context):  # as verify_corollary and conjecture_scan call them
        _fold_caps(M, k, c, cap)
        return join_connectivity([M] * k, c, cap, context)

    early = 0
    for name, M in small_matroid_family(explicit_count=12):
        for k in (1, 2, 3):
            for c in (-2, -1, 0, 1):
                for cap in (0, 1, 2, 4, 8, 16, 32, 64, 128):
                    want = outcome(join_connectivity, [M] * k, c, cap, {"k": k})
                    got = outcome(folded, M, k, c, cap, {"k": k})
                    assert got == want, (name, k, c, cap)
                    early += isinstance(got, tuple) and got[1]["dimension"] == 1
    assert early > 100


def test_conjecture_scan_chessboard_thresholds():
    for k in (2, 3):
        below = conjecture_scan(UniformMatroid(1, 2 * k - 2), k)
        assert not below.verified
        assert below.report.first_nonvanishing == k - 2
        at = conjecture_scan(UniformMatroid(1, 2 * k - 1), k)
        assert at.verified
    rec = conjecture_scan(UniformMatroid(1, 1), 1)
    assert rec.target == -1 and rec.verified
