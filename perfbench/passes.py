"""One workload's passes, in the process whose time and memory are measured.

Started by ``run.py`` as ``python3 perfbench/passes.py ...`` from the root of
a checkout; never imported by it.  It imports tvermat from the checkout's
``src/``, writes the workload's inputs, runs one warm-up pass and then timed
passes over the fixed instance list, each instance through
``tvermat.cli.main(argv)`` with stdout captured.  Untraced passes come first;
with ``--trace 1`` the wrappers of ``tracing.py`` are installed afterwards for
the traced passes.  Every report is checked against ``facts``; the result is
written as JSON to ``--out``.

A line per finished instance goes to ``--progress`` so that the parent can
count what a killed run did not finish.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_tvermat():
    """Import ``tvermat.cli`` from this checkout, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tvermat.cli

    if not os.path.abspath(tvermat.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"tvermat was imported from {tvermat.cli.__file__}")
    return tvermat.cli


def _exact_confirmations(obj):
    if isinstance(obj, dict):
        return sum(v if k == "exact_confirmations" else _exact_confirmations(v)
                   for k, v in obj.items())
    if isinstance(obj, list):
        return sum(_exact_confirmations(v) for v in obj)
    return 0


def verdict(inst, rc, out):
    """None if the instance's report is correct, else a reason."""
    if rc != inst.expect_exit:
        return f"exit {rc}, expected {inst.expect_exit}"
    try:
        report = json.loads(out)
        if report.get("wall-time-s") is not None:
            return "report carries a wall time"
        return inst.check(report)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError) as exc:
        return f"unreadable report: {exc!r}"


REF_EVERY_S = 0.25  # time between two runs of the reference kernel


def reference_s():
    """Time of one run of a fixed kernel of the operations tvermat spends its
    time in: frozensets, dicts, big integers and Fractions.

    On a 2-vCPU virtual machine on a shared host, speed drifted by ±20%
    over minutes.  Reference runs taken between the instances of a pass
    gauge the speed the pass ran at, and
    ``run.py`` scales times to a fixed reference speed with them.  Garbage
    collection is off inside, so that heaps left by tvermat do not count.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        d, prev, acc = {}, frozenset(), 0
        for i in range(3000):
            f = frozenset((i % 37, i % 41, i % 43))
            acc += len(f | prev)
            prev = f
            d[i % 101] = d.get(i % 101, 0) + i
        x = 1
        for i in range(300):
            x = (x * 1000003 + i) % (1 << 127)
        q = Fraction(0)
        for i in range(1, 150):
            q += Fraction(i % 7 + 1, i % 11 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Runner:
    def __init__(self, cli, instances, progress=None):
        self.cli = cli
        self.instances = instances
        self.progress = progress
        self.passes = []

    def run_pass(self, label, tracer=None):
        outs, times, refs = [], [], []
        if tracer is not None:
            tracer.reset()
        start = last_ref = time.perf_counter()
        for i, inst in enumerate(self.instances):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        rc = self.cli.main(inst.argv)
                    else:
                        rc = tracer.call("main", "cli", self.cli.main, inst.argv)
            except (Exception, SystemExit) as exc:
                rc = f"raised {exc!r}"
            times.append(time.perf_counter() - t0)
            outs.append((rc, buf.getvalue()))
            if self.progress is not None:
                self.progress.write(json.dumps({"pass": label, "i": i, "rc": rc}) + "\n")
                self.progress.flush()
            if time.perf_counter() - last_ref > REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
        wall = time.perf_counter() - start - sum(refs)
        refs.append(reference_s())  # at least one, however short the pass
        record = {"label": label, "traced": tracer is not None, "wall_s": wall,
                  "ref_s": statistics.mean(refs), "instance_s": times, "outs": outs}
        if tracer is not None:
            record["layers"] = tracer.summary()
        self.passes.append(record)
        return record

    def check(self, tamper=None):
        """(attempted, failed, reasons, digest, exact_confirmations) over the
        timed passes.  Each distinct report is checked once; a report that
        differs between passes is checked on its own and also counts as
        failed, since reports must be byte-deterministic.  ``tamper`` maps a
        report string to a modified one (self-test only)."""
        timed = [p for p in self.passes if p["label"] != "warm-up"]
        attempted = failed = 0
        reasons = []
        for i, inst in enumerate(self.instances):
            seen = {}
            first = None
            for p in timed:
                rc, out = p["outs"][i]
                if tamper is not None:
                    out = tamper(out)
                attempted += 1
                key = (rc, out)
                if key not in seen:
                    seen[key] = verdict(inst, rc, out)
                why = seen[key]
                if why is None and first is not None and key != first:
                    why = "report bytes differ between passes"
                if first is None:
                    first = key
                if why is not None:
                    failed += 1
                    reasons.append(f"{inst.name}: {why}")
        digest = hashlib.sha256()
        confirmations = 0
        if timed:
            for rc, out in timed[0]["outs"]:
                digest.update(out.encode())
                with contextlib.suppress(ValueError):
                    confirmations += _exact_confirmations(json.loads(out))
        return attempted, failed, reasons, "sha256:" + digest.hexdigest(), confirmations


def run_window(runner, seconds, label, tracer=None):
    """Timed passes until another would overrun ``seconds``; at least one."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(runner.run_pass(label, tracer)["wall_s"])
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--progress", default=None)
    ap.add_argument("--spans", default=None, help="where to write the last traced pass's spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = os.path.abspath(args.out)
    progress_path = args.progress and os.path.abspath(args.progress)
    spans_path = args.spans and os.path.abspath(args.spans)
    t0 = time.perf_counter()
    cli = import_tvermat()
    import workloads

    # Inputs are named relative to the work directory, so that reports, which
    # name their input files, do not depend on where the run happens.
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    instances = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s,
              "setup_ref_s": statistics.mean(reference_s() for _ in range(5)),
              "instances": [inst.name for inst in instances]}
    if not args.setup_only:
        with (open(progress_path, "w") if progress_path
              else contextlib.nullcontext()) as progress:
            result.update(measure(cli, instances, args, progress, spans_path))
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, instances, args, progress, spans_path):
    runner = Runner(cli, instances, progress)
    runner.run_pass("warm-up")
    untraced = args.seconds / 2 if args.trace else args.seconds
    run_window(runner, untraced, "untraced")
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_window(runner, args.seconds - untraced, "traced", tracer)
        finally:
            tracer.uninstall()
        if spans_path:
            tracer.write(spans_path)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, reasons, digest, confirmations = runner.check()
    return {
        "peak_rss_mb": peak_kb / 1024,
        "passes": [{key: p[key] for key in ("label", "traced", "wall_s", "ref_s", "instance_s")}
                   for p in runner.passes],
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:20],
        "digest": digest,
        "exact_confirmations": confirmations,
        "layers": [p["layers"] for p in runner.passes if p["traced"]],
    }


if __name__ == "__main__":
    sys.exit(main())
