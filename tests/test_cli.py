"""CLI contract: exit codes, report schema, determinism, golden output."""

import hashlib
import json
import time

import pytest

from tvermat import GraphicMatroid, UniformMatroid, colourful_matroid
from tvermat.cli import build_parser, main
from tvermat.formats import write_matroid, write_points
from tvermat.tverberg import PointConfig

from fractions import Fraction


@pytest.fixture
def files(tmp_path):
    k4 = tmp_path / "k4.matroid"
    write_matroid(k4, GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    u24 = tmp_path / "u2_4.matroid"
    write_matroid(u24, UniformMatroid(2, 4))
    u13 = tmp_path / "u1_3.matroid"
    write_matroid(u13, UniformMatroid(1, 3))
    y21 = tmp_path / "y21.matroid"
    write_matroid(y21, colourful_matroid(2, 1))
    pts = tmp_path / "line4.pts"
    write_points(pts, PointConfig(1, {i: (Fraction(i),) for i in range(4)}))
    return {p.name: str(p) for p in (k4, u24, u13, y21, pts)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_golden_prime(capsys):
    code, out = run(capsys, "prime", "--b", "64")
    assert code == 0
    assert out == (
        "{\n"
        '  "command": "prime",\n'
        '  "format-version": 1,\n'
        '  "inputs": {},\n'
        '  "outcome": "verified",\n'
        '  "parameters": {\n'
        '    "b": 64,\n'
        '    "seed": 0\n'
        "  },\n"
        '  "payload": {\n'
        '    "b": 64,\n'
        '    "prime": 3\n'
        "  },\n"
        '  "wall-time-s": null\n'
        "}\n"
    )


def test_bases_exit_zero(files, capsys):
    code, out = run(capsys, "bases", "--matroid", files["k4.matroid"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "verified"
    assert rep["payload"]["b"] == 2
    assert rep["payload"]["certificate"]["witness_set"] == []


def test_homology_chessboard(capsys):
    code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", "2")
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [0, 2, 1]


def test_verify_corollary_and_conn(files, capsys):
    code, out = run(capsys, "verify-corollary", "--matroid", files["u2_4.matroid"], "--k", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "verified"
    code, out = run(capsys, "verify-matroid-conn", "--matroid", files["k4.matroid"])
    assert code == 0


def test_conjecture_scan_false_exits_one(files, capsys):
    # rank-1 on 2k-2 points at k=2: not 0-connected
    code, out = run(capsys, "conjecture-scan", "--matroid", files["u1_3.matroid"], "--k", "2")
    assert code == 0  # 3 = 2k-1 points: verdict true
    rep = json.loads(out)
    assert rep["payload"]["verdict"] is True

    import tempfile, os
    from tvermat.formats import write_matroid as wm

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "u1_2.matroid")
        wm(path, UniformMatroid(1, 2))
        code, out = run(capsys, "conjecture-scan", "--matroid", path, "--k", "2")
    assert code == 1
    rep = json.loads(out)
    assert rep["outcome"] == "falsification-candidate"
    assert rep["payload"]["verdict"] is False
    assert "evidence" in rep["payload"]["note"]


def test_verify_claim_hypothesis_violation(files, capsys):
    code, out = run(
        capsys, "verify-claim", "--matroid", files["u1_3.matroid"],
        "--sets", "0;1,2", "--m", "1",
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["outcome"] == "hypothesis-violated"
    assert rep["payload"]["certificate"]["witness_set"] == [1, 2]


def test_verify_claim_ok(files, capsys):
    code, out = run(
        capsys, "verify-claim", "--matroid", files["u2_4.matroid"],
        "--sets", "0,1;2,3", "--m", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["bound"] == 0 and rep["payload"]["verified"]


def test_tverberg_and_theorem(files, capsys):
    code, out = run(
        capsys, "tverberg", "--matroid", files["u2_4.matroid"],
        "--points", files["line4.pts"], "--t", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "witness-found"
    assert rep["payload"]["witness"]["faces"] == [[0, 2], [1]]

    code, out = run(
        capsys, "verify-theorem", "--matroid", files["u2_4.matroid"],
        "--points", files["line4.pts"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["b"] == 2 and rep["payload"]["t_star"] == 1


def test_hulls(files, capsys):
    code, out = run(capsys, "hulls", "--points", files["line4.pts"], "--sets", "0,2;1")
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "witness-found" and rep["payload"]["point"] == ["1"]
    code, out = run(capsys, "hulls", "--points", files["line4.pts"], "--sets", "0,1;2,3")
    assert code == 0
    assert json.loads(out)["payload"]["intersects"] is False


def test_input_error_exit_two(capsys):
    code, out = run(capsys, "bases", "--matroid", "/nonexistent/m.matroid")
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_bad_budgets_are_input_errors(capsys):
    for flags in (("--max-faces", "-1"), ("--threads", "0"),
                  ("--max-tuples", "-1"), ("--time-limit-s", "-1")):
        code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", "1", *flags)
        assert code == 2
        assert json.loads(out)["outcome"] == "input-error"
    code, out = run(capsys, "chessboard", "--k", "3", "--m", "4", "--max-dim", "-5")
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_oversized_ground_set_is_input_error(tmp_path, capsys):
    # a declared size is walked by every command: above the cap it must be
    # refused at parse time, not hang in M.loops() or die in a MemoryError
    records = {
        "uniform": {"type": "uniform", "rank": 2, "size": 1_000_000_000},
        "explicit": {"type": "explicit", "size": 100_000_000,
                     "maximal_independent_sets": [[0, 1]]},
        "infinite": {"type": "uniform", "rank": 2, "size": float("inf")},
    }
    for name, rec in records.items():
        path = tmp_path / f"{name}.matroid"
        path.write_text(json.dumps({"format-version": 1, **rec}))
        start = time.monotonic()
        code, out = run(capsys, "rank", "--matroid", str(path))
        assert time.monotonic() - start < 1, name
        assert code == 2, name
        assert json.loads(out)["outcome"] == "input-error", name


def test_explicit_non_matroid_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.matroid"
    path.write_text(json.dumps({
        "format-version": 1, "type": "explicit", "size": 3,
        "maximal_independent_sets": [[0, 1], [2]],
    }))
    code, out = run(capsys, "bases", "--matroid", str(path))
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_resource_limit_exit_three(files, capsys):
    code, out = run(
        capsys, "verify-corollary", "--matroid", files["k4.matroid"],
        "--k", "2", "--max-faces", "3",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "resource-limit"


def test_matroid_complex_commands_honour_face_cap(tmp_path, capsys):
    # U(3,40) has 780 edges and 9880 triangles, both over the cap
    path = tmp_path / "u3_40.matroid"
    write_matroid(path, UniformMatroid(3, 40))
    for argv in (("complex", "--max-dim", "2"), ("homology", "--up-to", "1"),
                 ("verify-matroid-conn",)):
        code, out = run(capsys, *argv, "--matroid", str(path), "--max-faces", "500")
        rep = json.loads(out)
        assert code == 3 and rep["outcome"] == "resource-limit", argv
        assert rep["payload"]["progress"] == {"dimension": 1, "cap": 500}, argv


def test_pack_modes(files, capsys):
    code, out = run(capsys, "pack", "--matroid", files["k4.matroid"], "--k", "2")
    assert code == 0 and json.loads(out)["payload"]["packed"] is True
    code, out = run(capsys, "pack", "--matroid", files["k4.matroid"], "--k", "3")
    assert code == 0 and json.loads(out)["payload"]["packed"] is False
    code, out = run(
        capsys, "pack", "--matroid", files["k4.matroid"], "--subset", "0,1,2", "--m", "1"
    )
    assert code == 0 and json.loads(out)["payload"]["covered"] is True


def test_rank_round_trip(files, capsys):
    code, out = run(capsys, "rank", "--matroid", files["y21.matroid"], "--subset", "0,1")
    assert code == 0
    assert json.loads(out)["payload"]["rank"] == 1


def test_complex_export_and_faces_homology(files, tmp_path, capsys):
    out_faces = str(tmp_path / "k4.faces")
    code, out = run(
        capsys, "complex", "--matroid", files["k4.matroid"], "--max-dim", "2",
        "--export", out_faces,
    )
    assert code == 0
    assert json.loads(out)["payload"]["f_vector"] == [1, 6, 15, 16]
    code, out = run(capsys, "homology", "--faces", out_faces, "--up-to", "1")
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [0, 0]


def test_determinism_bytes(files, capsys):
    runs = []
    for threads in ("1", "2", "8"):
        code, out = run(
            capsys, "tverberg", "--matroid", files["u2_4.matroid"],
            "--random-points", "4", "--dim", "1", "--seed", "7",
            "--t", "2", "--threads", threads,
        )
        assert code in (0,)
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    code, other_seed = run(
        capsys, "tverberg", "--matroid", files["u2_4.matroid"],
        "--random-points", "4", "--dim", "1", "--seed", "8", "--t", "2",
    )
    assert json.loads(other_seed)["parameters"]["seed"] == 8


def test_one_parser_per_process(files, capsys):
    claim = ("verify-claim", "--matroid", files["u2_4.matroid"],
             "--matroid", files["u2_4.matroid"], "--sets", "0,1;2,3", "--m", "1")
    hulls = ("hulls", "--points", files["line4.pts"], "--sets", "0,2;1")
    build_parser.cache_clear()
    first = [run(capsys, *claim), run(capsys, *hulls)]
    assert build_parser() is build_parser()
    assert [run(capsys, *claim), run(capsys, *hulls)] == first
    assert json.loads(first[0][1])["payload"]["context"]["k"] == 2  # two --matroid


def test_text_format(files, capsys):
    code, out = run(
        capsys, "rank", "--matroid", files["u2_4.matroid"], "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("command")


# stdout sha256 of the complex-building commands: their reports are a
# byte-identical contract, whichever way the complexes are built
GOLDEN_COMPLEX_REPORTS = [
    (("complex", "--matroid", "k4.matroid", "--max-dim", "2"), 0,
     "9bb7bf6b27cb133b97a484314d51a2c1ea3c9e427bcc76e0ea7c38544f42005c"),
    (("complex", "--matroid", "u3_6.matroid", "--max-dim", "1"), 0,
     "ca58b2ad0ca93a92fd66b6921c24ae20dd7801f8b182b6e4b48d865f6f5b389b"),
    (("complex", "--matroid", "loop.matroid", "--max-dim", "3"), 0,
     "294293e6c3dc8464c8fa02ca7c51ffe8d4a96fc3ff8ccaf4660ceb705350bfa9"),
    (("chessboard", "--k", "3", "--m", "4"), 0,
     "8c9a3e995ebd70ddec2134530ca3f72255e0786e5149f321e1820f8fc91459c3"),
    (("chessboard", "--k", "4", "--m", "6", "--max-dim", "2"), 0,
     "8b849b67e89f19aeff440d4ec1f2d52b773207f276ecb6701164da60e839bf73"),
    (("chessboard", "--k", "5", "--m", "3"), 0,
     "5e0bed7e20fe2c9df22c6d4932f80b0f4832c98f4615cc33e80a9cd6b674edc8"),
    (("homology", "--chessboard", "3,4", "--up-to", "2"), 0,
     "4f87396b8f316174f0dc199fcd9d8e8f1a27b11c052179ee8ffebcf6570db29a"),
    (("homology", "--chessboard", "4,6", "--up-to", "2"), 0,
     "aa5e36506ddd3b7f66d4815dd18dd61b20077ae69ad3ac9278188ccedd86f4d3"),
    (("verify-claim", "--matroid", "u2_4.matroid", "--sets", "0,1;2,3", "--m", "1"), 0,
     "5f2bd92d6abcd6e5f7800e924f9ee9641ce78b201b674c06074f0ba3895fad9f"),
    (("verify-claim", "--matroid", "u2_6.matroid", "--matroid", "k4.matroid",
      "--sets", "0,1,2;3,4,5", "--m", "2"), 0,
     "2e38ebd7ae17e619f671ca35489ba6d59a0aa6c9a63e2e92981d1ce6e93f9a28"),
    (("verify-corollary", "--matroid", "k4.matroid", "--k", "2"), 0,
     "c0821f7cf048074c94e3e0fd98dd5ead89e098c8eb96440b3c3dcd93896bbf06"),
    (("verify-corollary", "--matroid", "k4.matroid", "--k", "3"), 0,
     "27d349e3c753058411497597c8268f311e025807283d441e82f5a2fe5acb28fa"),
    (("verify-corollary", "--matroid", "u2_6.matroid", "--k", "3", "--format", "text"), 0,
     "1ec04c25d0d05e4aa40fbb45930c7bbece9578ccc70056f607cb8c178fb9f1b3"),
    (("verify-matroid-conn", "--matroid", "k4.matroid"), 0,
     "d6b7983e8004b49e34c68d4c07f164d74f02e75305303d0da048db570a421f33"),
    (("verify-matroid-conn", "--matroid", "loop.matroid"), 0,
     "fa75cf359406871f213f104a60582161194d772afbe8197e05cb49ef96176471"),
    (("conjecture-scan", "--matroid", "u1_3.matroid", "--k", "2"), 0,
     "dc8c044c87a7e3bc4b921705cc0423fe6d569b7de59dbc165d7e605fd6df865c"),
    (("conjecture-scan", "--matroid", "u2_4.matroid", "--k", "2"), 1,
     "3a758f9890aa4e5105ed1149e0dffcaedea1001aa9cc8761395ffb9b88298669"),
    (("conjecture-scan", "--matroid", "y21.matroid", "--k", "3"), 1,
     "7edc053af67e8e017317c6b4b0ade790675788965bd6b9de975e2e81a41eca6a"),
    # the cap fires in the join, not in its U(1,5) factor
    (("conjecture-scan", "--matroid", "u1_5.matroid", "--k", "3", "--max-faces", "20"), 3,
     "36c23ba391b89023e3bc72ee940a079bb764b15ac3de22957e5f04e7b7a75a7a"),
    (("complex", "--matroid", "k4.matroid", "--max-dim", "-5"), 2,
     "6cbd7e7b30c4f1efe9228a106667e80c2a9cd13a16d49369a791dec48ff174e4"),
]


def test_complex_commands_golden_bytes(tmp_path, monkeypatch, capsys):
    # relative paths: the report names each input file
    monkeypatch.chdir(tmp_path)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for name, M in (("k4", GraphicMatroid(4, k4)), ("u2_4", UniformMatroid(2, 4)),
                    ("u2_6", UniformMatroid(2, 6)), ("u3_6", UniformMatroid(3, 6)),
                    ("u1_3", UniformMatroid(1, 3)), ("u1_5", UniformMatroid(1, 5)),
                    ("loop", GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (1, 1)])),
                    ("y21", colourful_matroid(2, 1))):
        write_matroid(f"{name}.matroid", M)
    for argv, want_code, want_sha in GOLDEN_COMPLEX_REPORTS:
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_sha), argv


def test_random_points_drawn_for_ground_elements_only(files, capsys):
    argv = ("tverberg", "--matroid", files["u2_4.matroid"], "--dim", "1",
            "--seed", "3", "--t", "2", "--random-points")
    _, small = run(capsys, *argv, "4")
    t0 = time.monotonic()
    code, huge = run(capsys, *argv, str(10**12))
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    small, huge = json.loads(small), json.loads(huge)
    assert huge["payload"] == small["payload"]
    assert huge["inputs"]["random-points"]["n"] == 10**12


def test_packing_honours_time_limit(tmp_path, capsys):
    path = tmp_path / "u2_big.matroid"
    write_matroid(path, UniformMatroid(2, 2**20))  # b = 2**19 bases
    t0 = time.monotonic()
    code, out = run(capsys, "bases", "--matroid", str(path), "--time-limit-s", "1")
    assert time.monotonic() - t0 < 10.0
    rep = json.loads(out)
    assert code == 3 and rep["outcome"] == "resource-limit"
    assert rep["payload"]["error"] == "time limit exceeded"
    assert rep["payload"]["progress"]["packed"] > 0
