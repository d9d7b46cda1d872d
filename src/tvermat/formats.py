"""File formats: matroid records (JSON), point configurations, face lists,
and deterministic report rendering.

All formats carry a leading format-version; rationals travel as strings so
exactness survives the round trip.  Report serialization is canonical
(sorted keys, fixed separators): identical inputs give byte-identical bytes.
"""

import json
from fractions import Fraction

from .errors import InputError
from .complexes import SimplicialComplex
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    PartitionMatroid,
    UniformMatroid,
    validate_matroid,
)

FORMAT_VERSION = 1
# Largest "size" a uniform or explicit record may declare.  Commands walk
# the ground set, so a huge declared size would hang or exhaust memory.
MAX_GROUND_SIZE = 1 << 20


# -- matroid files (.matroid, JSON) -------------------------------------------


def matroid_to_record(M):
    """JSON-able record for a constructible matroid (the five base types)."""
    if isinstance(M, UniformMatroid):
        body = {"type": "uniform", "rank": M.r, "size": M.n}
    elif isinstance(M, GraphicMatroid):
        body = {
            "type": "graphic",
            "vertices": M.num_vertices,
            "edges": [[u, v] for u, v in M.edges],
        }
    elif isinstance(M, PartitionMatroid):
        body = {
            "type": "partition",
            "blocks": [sorted(b) for b in M.blocks],
            "capacities": list(M.capacities),
        }
    elif isinstance(M, LinearMatroid):
        body = {
            "type": "linear",
            "field": "Q" if M.field is None else f"GF({M.field})",
            "columns": [[str(x) for x in col] for col in M.columns],
        }
    elif isinstance(M, ExplicitMatroid):
        body = {
            "type": "explicit",
            "size": M.n,
            "maximal_independent_sets": [sorted(s) for s in M.maximal_sets],
        }
    else:
        raise InputError(f"matroid of type {type(M).__name__} is not serializable")
    return {"format-version": FORMAT_VERSION, **body}


def _ground_size(rec):
    n = int(rec["size"])
    if n > MAX_GROUND_SIZE:
        raise InputError(f"ground set size {n} exceeds the cap {MAX_GROUND_SIZE}")
    return n


def matroid_from_record(rec):
    if not isinstance(rec, dict):
        raise InputError("matroid record must be a JSON object")
    version = rec.get("format-version")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format-version {version!r}")
    kind = rec.get("type")
    try:
        if kind == "uniform":
            return UniformMatroid(int(rec["rank"]), _ground_size(rec))
        if kind == "graphic":
            return GraphicMatroid(
                int(rec["vertices"]), [(int(u), int(v)) for u, v in rec["edges"]]
            )
        if kind == "partition":
            return PartitionMatroid(
                [[int(e) for e in blk] for blk in rec["blocks"]],
                [int(c) for c in rec["capacities"]],
            )
        if kind == "linear":
            field = rec.get("field", "Q")
            if field == "Q":
                p = None
            elif isinstance(field, str) and field.startswith("GF(") and field.endswith(")"):
                p = int(field[3:-1])
            else:
                raise InputError(f"unknown field {field!r}")
            cols = [[Fraction(str(x)) for x in col] for col in rec["columns"]]
            return LinearMatroid(cols, field=p)
        if kind == "explicit":
            n = _ground_size(rec)
            sets = [[int(e) for e in s] for s in rec["maximal_independent_sets"]]
            ok, witness = validate_matroid(n, sets)
            if not ok:
                small, large = (sorted(s) for s in witness)
                raise InputError(
                    f"not a matroid: independent {small} cannot grow from {large}"
                )
            return ExplicitMatroid(n, sets)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind!r} matroid record: {exc}") from exc
    raise InputError(f"unknown matroid type {kind!r}")


def write_matroid(path, M):
    with open(path, "w") as fh:
        json.dump(matroid_to_record(M), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_matroid(path):
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read matroid file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"matroid file is not valid JSON: {exc}") from exc
    return matroid_from_record(rec)


# -- point configuration files (.pts) -----------------------------------------


def write_points(path, cfg):
    from .tverberg import PointConfig  # local import avoids a cycle

    assert isinstance(cfg, PointConfig)
    with open(path, "w") as fh:
        fh.write(f"format-version: {FORMAT_VERSION}\n")
        fh.write(f"d={cfg.dim}\n")
        for e in sorted(cfg.coords):
            coords = " ".join(str(c) for c in cfg.coords[e])
            fh.write(f"{e}: {coords}\n")


def parse_points(text):
    from .tverberg import PointConfig

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty point file")
    if lines[0].startswith("format-version:"):
        ver = lines[0].split(":", 1)[1].strip()
        if ver != str(FORMAT_VERSION):
            raise InputError(f"unsupported format-version {ver!r}")
        lines = lines[1:]
    if not lines or not lines[0].startswith("d="):
        raise InputError('point file must start with a "d=<dim>" header')
    try:
        dim = int(lines[0][2:])
    except ValueError as exc:
        raise InputError(f"bad dimension header {lines[0]!r}") from exc
    coords = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise InputError(f"bad point line {ln!r}")
        head, tail = ln.split(":", 1)
        try:
            e = int(head)
            vals = tuple(Fraction(tok) for tok in tail.split())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad point line {ln!r}: {exc}") from exc
        if e in coords:
            raise InputError(f"duplicate coordinates for element {e}")
        coords[e] = vals
    return PointConfig(dim, coords)


def read_points(path):
    try:
        with open(path) as fh:
            return parse_points(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read point file: {exc}") from exc


# -- face lists (.faces) -------------------------------------------------------


def write_faces(path, X):
    with open(path, "w") as fh:
        fh.write(f"format-version: {FORMAT_VERSION}\n")
        for face in X.all_faces():
            fh.write(" ".join(str(v) for v in face) + "\n")


def parse_faces(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if lines and lines[0].startswith("format-version:"):
        ver = lines[0].split(":", 1)[1].strip()
        if ver != str(FORMAT_VERSION):
            raise InputError(f"unsupported format-version {ver!r}")
        lines = lines[1:]
    by_dim = {}
    seen = set()
    for ln in lines:
        try:
            face = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise InputError(f"bad face line {ln!r}") from exc
        if tuple(sorted(set(face))) != face:
            raise InputError(f"face {ln!r} is not strictly increasing")
        if face in seen:
            raise InputError(f"duplicate face {ln!r}")
        seen.add(face)
        by_dim.setdefault(len(face) - 1, []).append(face)
    # a face list is a whole complex: verify down-closure
    for d in sorted(by_dim):
        if d == 0:
            continue
        for face in by_dim[d]:
            for j in range(len(face)):
                if face[:j] + face[j + 1 :] not in seen:
                    raise InputError(
                        f"face list is not closed under subsets: {face} lacks a facet"
                    )
    top = max(by_dim, default=-1)
    return SimplicialComplex({d: sorted(fs) for d, fs in by_dim.items()},
                             trunc=top, complete=True)


def read_faces(path):
    try:
        with open(path) as fh:
            return parse_faces(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read face file: {exc}") from exc


# -- sparse matrix triplets (.triplets) ----------------------------------------


def write_triplets(path, mat):
    """Sparse triplet dump of a boundary matrix for external cross-checking."""
    with open(path, "w") as fh:
        fh.write(f"format-version: {FORMAT_VERSION}\n")
        fh.write(f"rows {mat.nrows} cols {mat.ncols}\n")
        for r, c, v in mat.triplets():
            fh.write(f"{r} {c} {v}\n")


def parse_triplets(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()
             and not ln.strip().startswith("#")]
    if lines and lines[0].startswith("format-version:"):
        lines = lines[1:]
    if not lines or not lines[0].startswith("rows "):
        raise InputError('triplet file needs a "rows <m> cols <n>" header')
    try:
        _, m, _, n = lines[0].split()
        m, n = int(m), int(n)
    except ValueError as exc:
        raise InputError(f"bad triplet header {lines[0]!r}") from exc
    cols = [[] for _ in range(n)]
    for ln in lines[1:]:
        try:
            r, c, v = (int(t) for t in ln.split())
        except ValueError as exc:
            raise InputError(f"bad triplet line {ln!r}") from exc
        if not (0 <= r < m and 0 <= c < n):
            raise InputError(f"triplet {ln!r} out of bounds")
        cols[c].append((r, v))
    from .homology import SparseIntMatrix

    return SparseIntMatrix(m, n, [sorted(col) for col in cols])


# -- report rendering ----------------------------------------------------------


def jsonable(obj):
    """Map report values onto JSON types; Fractions become exact strings."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [jsonable(v) for v in sorted(obj)]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(report):
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    else:
        out.append((prefix, json.dumps(jsonable(obj))))


def render_text(report):
    pairs = []
    _flatten("", report, pairs)
    width = max((len(k) for k, _ in pairs), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


def render_report(report, fmt):
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report)
    raise InputError(f"unknown format {fmt!r}")
