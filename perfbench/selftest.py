"""Self-test of the benchmark at tiny sizes; exits 0 when every check passes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted for every
workload, that a tampered report of any instance is caught, that two runs
at one seed give identical report digests, and that a run over its wall
limit is killed and counted as failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import passes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def tamper(out):
    """Change one fact of a report that its checker must not accept."""
    report = json.loads(out)
    p = report["payload"]
    if "b" in p and "packing" in p:
        p["b"] += 1
    elif "parts" in p or "bases" in p:
        key = "parts" if "parts" in p else "bases"
        p[key] = p[key][:-1]
    elif p.get("witness"):
        p["witness"]["point"][0] = str(1 + Fraction(p["witness"]["point"][0]))
    elif "exhausted" in p:
        p["exhausted"] = False
    elif "betti" in p:
        p["betti"][-1] += 1
    else:
        rep = p.get("report", p)
        rep["betti_checked"][-1] += 1
    return json.dumps(report)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    cli = passes.import_tvermat()
    scratch = os.path.join(run.SCRATCH, f"selftest-{os.getpid()}")
    try:
        check_workloads(spec, cli, scratch, expect)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    check_kill(expect)
    return 1 if failures else 0


def check_workloads(spec, cli, scratch, expect):
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench(name, 1, trace)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            expect(got == want and result["correct"],
                   f"{name} --trace {trace}: metrics {sorted(want ^ got) or 'all'} "
                   f"{'differ' if got != want else 'present'}, correct={result['correct']}")

        os.makedirs(os.path.join(scratch, name))
        os.chdir(os.path.join(scratch, name))
        runner = passes.Runner(cli, workloads.build(name, 1, tiny=True))
        runner.run_pass("untraced")
        caught = [passes.verdict(inst, rc, tamper(out)) is not None
                  for inst, (rc, out) in zip(runner.instances, runner.passes[0]["outs"])]
        _, failed, *_ = runner.check(tamper=tamper)
        expect(all(caught) and failed == len(caught),
               f"{name}: tampered reports caught {sum(caught)}/{len(caught)}")

        first, _ = bench(name, 7, 0)
        second, _ = bench(name, 7, 0)
        expect(first["digest"] == second["digest"],
               f"{name}: one seed, one digest {first['digest'][:20]}")


def check_kill(expect):
    limit = run.RUN_LIMIT_S
    run.RUN_LIMIT_S = 3  # full-size packing cannot finish its warm-up in 3 s
    try:
        res = run.measure(argparse.Namespace(workload="packing", seed=1, seconds=1.0,
                                             trace=0, tiny=False))
    finally:
        run.RUN_LIMIT_S = limit
    expect(res.get("killed") and 0 < res["failed"] <= res["attempted"],
           f"over-limit run killed: failed {res['failed']} of {res['attempted']}")


if __name__ == "__main__":
    sys.exit(main())
