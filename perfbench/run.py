"""Benchmark of the tvermat CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tvermat is imported from its ``src/``.
The workload runs in a child process (``passes.py``) under a wall limit, so
a hang is killed and counted rather than stalling the run.  Set-up time is
the median over that child and SETUP_PROBES more processes that only import
tvermat and write the inputs.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics of
the traced passes under ``--trace 1``.  The line before it names the report
digest, pass count and failures.  Scratch files go to ``.perfbench/`` in the
checkout; the spans of the last traced pass stay there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # the whole run, probes included, ends within this
# End-to-end times are scaled to the speed at which passes.reference_s()
# takes this long, from the reference runs taken while they were measured.
REF_NOMINAL_S = 0.0025

sys.path.insert(0, HERE)
import workloads  # noqa: E402

def _child(args, workdir, out, *extra, timeout):
    """Run passes.py; True if it finished in time.  A late child is killed."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out, *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[1])} exited {proc.returncode}")
    return True


def _scaled(seconds, ref_s):
    return seconds * REF_NOMINAL_S / ref_s


def _killed(progress_path, n):
    """(attempted, failed) of a killed run: unfinished instances of the
    interrupted pass fail, and the passes it finished are counted as run."""
    done = {}
    if os.path.exists(progress_path):
        with open(progress_path) as fh:
            for line in fh:
                rec = json.loads(line)
                done.setdefault(rec["pass"], []).append(rec)
    finished = sum(len(v) // n for k, v in done.items() if k != "warm-up")
    partial = sum(len(v) % n for v in done.values())
    return n * (finished + 1), n - partial


def measure(args):
    tag = f"{args.workload}-seed{args.seed}"
    base = os.path.join(SCRATCH, f"{tag}-{os.getpid()}")
    os.makedirs(base)
    start = time.monotonic()
    try:
        setups = []
        for i in range(SETUP_PROBES):
            out = os.path.join(base, f"probe{i}.json")
            if not _child(args, os.path.join(base, f"probe{i}"), out, "--setup-only",
                          timeout=RUN_LIMIT_S - (time.monotonic() - start)):
                raise RuntimeError("a set-up probe overran the run's wall limit")
            with open(out) as fh:
                probe = json.load(fh)
            setups.append(_scaled(probe["setup_s"], probe["setup_ref_s"]))
        out = os.path.join(base, "result.json")
        progress = os.path.join(base, "progress.jsonl")
        spans = os.path.join(SCRATCH, f"spans-{tag}.jsonl")
        left = RUN_LIMIT_S - (time.monotonic() - start)
        if _child(args, os.path.join(base, "inputs"), out, "--progress", progress,
                  "--spans", spans, timeout=left):
            with open(out) as fh:
                res = json.load(fh)
            setups.append(_scaled(res["setup_s"], res["setup_ref_s"]))
            res["setup_s"] = statistics.median(setups)
            return res
        attempted, failed = _killed(progress, len(probe["instances"]))
        return {"setup_s": statistics.median(setups), "killed": True,
                "attempted": attempted, "failed": failed,
                "reasons": [f"killed after {left:.0f} s"],
                "elapsed_s": time.monotonic() - start}
    finally:
        shutil.rmtree(base, ignore_errors=True)


def metrics(res, trace):
    """The metrics BENCHMARK.json names for this mode, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    timed = [p for p in res.get("passes", ()) if p["label"] != "warm-up"]
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        values = {name: statistics.median(layer[name] for layer in res["layers"])
                  for name in res["layers"][0]} if res.get("layers") else {}
        values["homology.exact_confirmations"] = res.get("exact_confirmations", 0)
        if traced and untraced:
            values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                          - statistics.median(p["wall_s"] for p in untraced))
    else:
        if untraced:
            per_instance = [statistics.median(_scaled(p["instance_s"][i], p["ref_s"])
                                              for p in untraced)
                            for i in range(len(untraced[0]["instance_s"]))]
            wall = statistics.median(_scaled(p["wall_s"], p["ref_s"]) for p in untraced)
            instance_ms = 1000 * statistics.median(per_instance)
        else:  # killed before a timed pass finished
            wall = res.get("elapsed_s", 0.0)
            instance_ms = 1000 * wall
        values = {"wall_s": wall, "instance_ms_p50": instance_ms,
                  "setup_s": res["setup_s"],
                  "peak_rss_mb": res.get("peak_rss_mb", 0.0),
                  "pass_rate": 1 - failed / attempted}
    if res.get("killed"):  # no traced pass finished: the layers read 0
        values = {name: values.get(name, 0) for name in units}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every instance (self-test only)")
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "tvermat", "cli.py")):
        print(f"no tvermat sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2

    res = measure(args)
    values = metrics(res, args.trace)
    attempted, failed = res["attempted"], res["failed"]
    untraced = [p for p in res.get("passes", ()) if p["label"] == "untraced"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "digest": res.get("digest"), "untraced_passes": len(untraced),
        "unscaled_wall_s": statistics.median(p["wall_s"] for p in untraced)
        if untraced else None,
        "ref_s": statistics.mean(p["ref_s"] for p in untraced) if untraced else None,
        "fail_rate": failed / attempted, "failures": res.get("reasons", []),
        "not_run": list(workloads.NOT_RUN),
    }))
    print(json.dumps({"correct": failed == 0 and not res.get("killed"),
                      "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
