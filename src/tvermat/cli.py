"""Batch command-line front end.

Every invocation emits exactly one structured report record on stdout
(``--format json|text``) and exits with the outcome-coded status:

  0  verified / witness-found
  1  property violated (falsification-candidate, hypothesis-violated)
  2  input error
  3  resource limit

An argument error (a missing or malformed flag, an unknown command) is an
input error too.  Its report is JSON with a null command, because the flags
that would say otherwise did not parse; ``--help`` prints usage and exits 0.

Identical inputs and seed give byte-identical stdout; wall time is reported
only under ``--timings`` (it is the one intentionally nondeterministic field,
so it defaults to null).  ``--threads`` is accepted and ignored: every search
runs on the calling thread.  A ``homology --up-to`` above MAX_UP_TO (2**12)
is an input error, so its list of Betti numbers stays small; those above the
complex's dimension are 0 and are not computed.  So is a ``pack --k`` above
MAX_EMPTY_BASES (2**12) on a rank-0 matroid, whose k bases are all empty.
A command runs with the cyclic garbage collector paused and restores the
caller's setting on every exit: tvermat makes no reference cycles, so a
collection would only re-walk the face lists.  The leak guard in test_cli
checks that the cyclic garbage left does not grow with the instance.

File formats (all versioned with a leading format-version field):

  .matroid   one JSON object: {"format-version": 1, "type": T, ...} with
             T = uniform   {"rank": r, "size": n}
                 graphic   {"vertices": nv, "edges": [[u,v], ...]}  (edge
                           indices are the ground elements; self-loops allowed)
                 linear    {"field": "Q" | "GF(p)", "columns": [[...], ...]}
                           entries as integer, "p/q" or decimal strings
                 partition {"blocks": [[ids], ...], "capacities": [c, ...]}
                 explicit  {"size": n, "maximal_independent_sets": [[...], ...]}
             a uniform or explicit "size" above formats.MAX_GROUND_SIZE
             (2**20) is an input error
  .pts       "format-version: 1", then "d=<dim>", then "id: r1 r2 ... rd"
             per element, rationals as integers, "p/q" or decimals
             (exponent notation and zero denominators are input errors)
  .faces     one face per line, strictly increasing vertex ids; the listed
             faces must form a complex (closed under subsets)
  .triplets  "rows <m> cols <n>" header then "row col value" per nonzero
"""

import argparse
import functools
import gc
import hashlib
import re
import sys
import time

from . import formats
from .complexes import (
    DEFAULT_FACE_CAP,
    as_complex,
    chessboard,
)
from .errors import HypothesisViolation, InputError, ResourceLimitError
from .lp import hulls_intersect
from .homology import (
    betti_reduced,
    boundary_matrix,
    conjecture_scan,
    join_connectivity,
    verify_claim,
    verify_corollary,
)
from .packing import (
    BasePacking,
    max_disjoint_bases,
    pack_into_independent,
    pack_k_bases,
)
from .tverberg import (
    choose_prime,
    dold_inequality_holds,
    find_tverberg,
    random_point_config,
    verify_theorem,
)

MAX_UP_TO = 1 << 12  # far above any complex built: dimension d holds 2**(d+1) - 1 faces
MAX_EMPTY_BASES = 1 << 12  # pack --k on a rank-0 matroid lists k empty bases

EXIT_CODES = {
    "verified": 0,
    "witness-found": 0,
    "falsification-candidate": 1,
    "hypothesis-violated": 1,
    "input-error": 2,
    "resource-limit": 3,
}


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _parse_ids(text):
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad id list {text[:40]!r}") from exc


def _parse_groups(text):
    return [frozenset(_parse_ids(part)) for part in text.split(";")]


class _Parser(argparse.ArgumentParser):
    """An argument error raises InputError, so it ends in a report like any
    other input error; subcommand parsers inherit the class."""

    def error(self, message):
        # argparse echoes the offending value whole: keep the first 40
        # characters of each long quoted value or token, as formats._rational does
        message = re.sub(r"'[^']{41,}'|\S{41,}", lambda m: m.group()[:40] + "...", message)
        raise InputError(f"{self.prog}: {message}")


# what a report names when the arguments themselves could not be parsed
_UNPARSED = argparse.Namespace(command=None, seed=0, format="json", timings=False)


@functools.cache
def build_parser():
    top = _Parser(
        prog="tvermat",
        description="matroid base packings, deleted-join homology, Tverberg search",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized configuration generation")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored (searches are single-threaded)")
    common.add_argument("--max-faces", type=int, default=DEFAULT_FACE_CAP,
                        help="face cap per dimension of a complex, in all for "
                             "a witness search (default 5e6)")
    common.add_argument("--max-tuples", type=int, default=None,
                        help="cap on examined witness tuples")
    common.add_argument("--time-limit-s", type=float, default=None,
                        help="wall-clock limit for packing (also inside the "
                             "verifiers) and searches; 0 stops at once")
    common.add_argument("--timings", action="store_true",
                        help="include wall time in the report (nondeterministic)")

    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = cmd("rank", help="rank of a subset or of the ground set")
    p.add_argument("--matroid", required=True)
    p.add_argument("--subset", default=None, help='comma-separated ids, e.g. "0,1,2"')

    p = cmd("bases", help="b(M) with a maximal packing and a maximality certificate")
    p.add_argument("--matroid", required=True)

    p = cmd("pack", help="pack k disjoint bases, or cover a subset by m independent sets")
    p.add_argument("--matroid", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--subset", default=None)
    p.add_argument("--m", type=int, default=None)

    p = cmd("complex", help="materialize the independence complex")
    p.add_argument("--matroid", required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--export", default=None, help="write a .faces file")

    p = cmd("chessboard", help="materialize a chessboard complex C(k,m)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--export", default=None)

    p = cmd("homology", help="reduced rational Betti numbers")
    p.add_argument("--matroid", default=None)
    p.add_argument("--chessboard", default=None, metavar="K,M")
    p.add_argument("--faces", default=None, help="face-list file")
    p.add_argument("--up-to", type=int, required=True)
    p.add_argument("--export-boundary", default=None, metavar="PREFIX",
                   help="write each boundary matrix as PREFIX.d<i>.triplets")

    p = cmd("verify-claim", help="deleted-join connectivity from independent covers")
    p.add_argument("--matroid", action="append", required=True,
                   help="repeat per factor, or give once for identical factors")
    p.add_argument("--sets", required=True, help='semicolon groups: "0,1;2,3"')
    p.add_argument("--m", type=int, required=True)

    p = cmd("verify-corollary", help="packing-derived k-fold deleted-join bound")
    p.add_argument("--matroid", required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("verify-matroid-conn", help="(rank-2)-connectivity of the matroid complex")
    p.add_argument("--matroid", required=True)

    p = cmd("conjecture-scan", help="is the k-fold deleted join (k*rank-2)-connected?")
    p.add_argument("--matroid", required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("hulls", help="exact common point of convex hulls of point groups")
    p.add_argument("--points", required=True)
    p.add_argument("--sets", required=True)

    p = cmd("tverberg", help="first Tverberg witness at size t")
    p.add_argument("--matroid", required=True)
    p.add_argument("--points", default=None)
    p.add_argument("--random-points", type=int, default=None, metavar="N")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--t", type=int, required=True)

    p = cmd("verify-theorem", help="end-to-end threshold check at t* = ceil(sqrt(b)/4)")
    p.add_argument("--matroid", required=True)
    p.add_argument("--points", default=None)
    p.add_argument("--random-points", type=int, default=None, metavar="N")
    p.add_argument("--dim", type=int, default=None)

    p = cmd("prime", help="largest prime in [sqrt(b)/4, sqrt(b)/2]")
    p.add_argument("--b", type=int, required=True)

    p = cmd("inequality", help="exact check of the prime-choice closing inequality")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    return top


def _load_config(args, inputs, n):
    """The point file, or seeded random points for the n ground elements
    (the first n of the N asked for: only ground elements are read)."""
    if args.points is not None:
        inputs[args.points] = _digest(args.points)
        return formats.read_points(args.points)
    if args.random_points is not None:
        if args.random_points < 0:
            raise InputError(f"--random-points must be >= 0, got {args.random_points}")
        if args.dim is None:
            raise InputError("--random-points requires --dim")
        inputs["random-points"] = {
            "n": args.random_points, "dim": args.dim, "seed": args.seed,
        }
        count = min(args.random_points, n)
        if count * args.dim > formats.MAX_GROUND_SIZE:
            raise InputError(f"{count} random points in dimension {args.dim} exceed the cap "
                             f"of {formats.MAX_GROUND_SIZE} coordinates")
        return random_point_config(count, args.dim, args.seed)
    raise InputError("provide --points FILE or --random-points N --dim D")


def _complex_payload(X, export):
    payload = {"f_vector": [1, *X.f_vector()], "complete": X.complete, "num_faces": X.num_faces()}
    if export:
        formats.write_faces(export, X)
        payload["exported"] = export
    return payload


def _report_conn(rep):
    outcome = "verified" if rep.verified else "falsification-candidate"
    return outcome, rep.to_payload()


def dispatch(args, inputs, params):
    cmd = args.command
    if args.max_faces < 0:
        raise InputError(f"--max-faces must be >= 0, got {args.max_faces}")
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    if args.max_tuples is not None and args.max_tuples < 0:
        raise InputError(f"--max-tuples must be >= 0, got {args.max_tuples}")
    if args.time_limit_s is not None and args.time_limit_s < 0:
        raise InputError(f"--time-limit-s must be >= 0, got {args.time_limit_s}")
    deadline = None if args.time_limit_s is None else time.monotonic() + args.time_limit_s

    def load_matroid(path):
        inputs[path] = _digest(path)
        return formats.read_matroid(path)

    if cmd == "rank":
        M = load_matroid(args.matroid)
        params["subset"] = args.subset
        subset = None if args.subset is None else _parse_ids(args.subset)
        return "verified", {"rank": M.rank(subset), "ground_size": M.n,
                            "subset_size": M.n if subset is None else len(set(subset)),
                            "loops": M.loops()}

    if cmd == "bases":
        M = load_matroid(args.matroid)
        b, packing, cert = max_disjoint_bases(M, deadline)
        return "verified", {
            "b": b,
            "rank": M.rank(),
            "packing": packing.bases,
            "certificate_for": None if cert is None else b + 1,
            "certificate": cert,
            "degenerate_rank_zero": M.rank() == 0,
        }

    if cmd == "pack":
        M = load_matroid(args.matroid)
        if args.k is not None and args.subset is not None:
            raise InputError("pack takes either --k or --subset/--m, not both")
        if args.k is not None and args.subset is None:
            params["k"] = args.k
            if args.k > MAX_EMPTY_BASES and M.rank() == 0:
                raise InputError(f"--k {args.k} exceeds the cap {MAX_EMPTY_BASES} "
                                 "on a rank-0 matroid")
            res = pack_k_bases(M, args.k, deadline)
            if isinstance(res, BasePacking):
                return "verified", {"packed": True, "bases": res.bases}
            return "verified", {"packed": False, "certificate": res}
        if args.subset is not None and args.m is not None:
            params["subset"] = args.subset
            params["m"] = args.m
            A = frozenset(_parse_ids(args.subset))
            res = pack_into_independent(M, A, args.m, deadline)
            if isinstance(res, list):
                return "verified", {"covered": True, "parts": res}
            return "verified", {"covered": False, "certificate": res}
        raise InputError("pack needs either --k, or --subset with --m")

    if cmd == "complex":
        M = load_matroid(args.matroid)
        params["max-dim"] = args.max_dim
        X = as_complex(M, args.max_dim, args.max_faces)
        return "verified", _complex_payload(X, args.export)

    if cmd == "chessboard":
        params["k"], params["m"] = args.k, args.m
        X = chessboard(args.k, args.m, trunc=args.max_dim, cap=args.max_faces)
        return "verified", _complex_payload(X, args.export)

    if cmd == "homology":
        given = [x for x in (args.matroid, args.chessboard, args.faces) if x]
        if len(given) != 1:
            raise InputError("give exactly one of --matroid, --chessboard, --faces")
        params["up-to"] = args.up_to
        if args.up_to > MAX_UP_TO:
            raise InputError(f"--up-to {args.up_to} exceeds the cap {MAX_UP_TO}")
        if args.matroid:
            M = load_matroid(args.matroid)
            X = as_complex(M, args.up_to + 1, args.max_faces)
        elif args.chessboard:
            try:
                k, m = (int(t) for t in args.chessboard.split(","))
            except ValueError as exc:
                raise InputError(f"bad chessboard spec {args.chessboard[:40]!r}") from exc
            params["chessboard"] = args.chessboard
            X = chessboard(k, m, args.up_to + 1, args.max_faces,
                           relative=not args.export_boundary)  # an export needs every face
        else:
            inputs[args.faces] = _digest(args.faces)
            X = formats.read_faces(args.faces)
        bv = betti_reduced(X, args.up_to)
        payload = {"betti": list(bv.betti), "up_to": bv.up_to, "f_vector": [1, *X.f_vector()]}
        if args.export_boundary:
            written = []
            for i in range(args.up_to + 2):
                if not X.faces(i):
                    break
                dest = f"{args.export_boundary}.d{i}.triplets"
                formats.write_triplets(dest, boundary_matrix(X, i))
                written.append(dest)
            payload["exported_boundaries"] = written
        return "verified", payload

    if cmd == "verify-claim":
        sets = _parse_groups(args.sets)
        paths = list(args.matroid)
        if len(paths) == 1:
            paths = paths * len(sets)
        if len(paths) != len(sets):
            raise InputError(
                f"{len(args.matroid)} matroid files for {len(sets)} sets"
            )
        mats = [load_matroid(p) for p in paths]
        params["m"] = args.m
        params["sets"] = args.sets
        rep = verify_claim(mats, sets, args.m, cap=args.max_faces, deadline=deadline)
        return _report_conn(rep)

    if cmd == "verify-corollary":
        M = load_matroid(args.matroid)
        params["k"] = args.k
        rep = verify_corollary(M, args.k, cap=args.max_faces, deadline=deadline)
        return _report_conn(rep)

    if cmd == "verify-matroid-conn":
        M = load_matroid(args.matroid)
        rho = M.rank()
        return _report_conn(join_connectivity([M], rho - 2, args.max_faces, {"rank": rho}))

    if cmd == "conjecture-scan":
        M = load_matroid(args.matroid)
        params["k"] = args.k
        record = conjecture_scan(M, args.k, cap=args.max_faces, deadline=deadline)
        payload = {
            "b": record.b,
            "rank": record.rank,
            "k": record.k,
            "target": record.target,
            "verdict": record.verified,
            "report": record.report.to_payload(),
        }
        if not record.verified:
            payload["note"] = (
                "conjecture evidence only: a false verdict bounds the threshold "
                "function from below, it does not contradict any proved statement"
            )
        return ("verified" if record.verified else "falsification-candidate"), payload

    if cmd == "hulls":
        cfg = formats.read_points(args.points)
        inputs[args.points] = _digest(args.points)
        groups = _parse_groups(args.sets)
        params["sets"] = args.sets
        if any(not g for g in groups):
            raise InputError("every hull group needs at least one point id")
        try:
            point_sets = [[cfg.point(e) for e in sorted(g)] for g in groups]
        except KeyError as exc:
            raise InputError(f"point id {exc} missing from configuration") from exc
        res = hulls_intersect(point_sets)
        if res is None:
            return "verified", {"intersects": False}
        point, lambdas = res
        return "witness-found", {"intersects": True, "point": point, "coefficients": lambdas}

    if cmd == "tverberg":
        M = load_matroid(args.matroid)
        cfg = _load_config(args, inputs, M.n)
        params["t"] = args.t
        res = find_tverberg(M, cfg, args.t, args.max_tuples, deadline, args.max_faces)
        payload = {"t": args.t, **vars(res)}
        if res.witness is not None:
            return "witness-found", payload
        payload["exhausted"] = True
        return "verified", payload

    if cmd == "verify-theorem":
        M = load_matroid(args.matroid)
        cfg = _load_config(args, inputs, M.n)
        rep = verify_theorem(M, cfg, args.max_tuples, deadline, args.max_faces)
        outcome = "falsification-candidate" if rep.falsification_candidate else "witness-found"
        return outcome, rep.to_payload()

    if cmd == "prime":
        params["b"] = args.b
        return "verified", {"b": args.b, "prime": choose_prime(args.b)}

    if cmd == "inequality":
        params.update({"b": args.b, "d": args.d, "p": args.p})
        return "verified", {
            "b": args.b, "d": args.d, "p": args.p,
            "holds": dold_inequality_holds(args.b, args.d, args.p),
        }

    raise InputError(f"unknown command {cmd!r}")


def main(argv=None):
    collecting = gc.isenabled()  # the collector is paused: see the module docstring
    gc.disable()
    try:
        args = _UNPARSED
        inputs = {}
        params = {}
        t0 = time.monotonic()
        try:
            args = build_parser().parse_args(argv)
            outcome, payload = dispatch(args, inputs, params)
        except HypothesisViolation as exc:
            outcome, payload = "hypothesis-violated", {
                "error": str(exc),
                "certificate": exc.certificate,
            }
        except ResourceLimitError as exc:
            outcome, payload = "resource-limit", {
                "error": str(exc),
                "progress": exc.progress,
            }
        except (InputError, OSError) as exc:
            outcome, payload = "input-error", {"error": str(exc)}
        elapsed = time.monotonic() - t0
        report = {
            "format-version": formats.FORMAT_VERSION,
            "command": args.command,
            "inputs": inputs,
            "parameters": {**params, "seed": args.seed},
            "outcome": outcome,
            "payload": payload,
            "wall-time-s": round(elapsed, 6) if args.timings else None,
        }
        sys.stdout.write(formats.render_report(report, args.format))
        return EXIT_CODES[outcome]
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
