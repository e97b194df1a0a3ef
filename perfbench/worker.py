"""One workload in one process: build the seeded inputs, run whole rounds,
check every output, print a JSON summary as the last line.

run.py starts this file in a fresh process with BLAS threads pinned to 1.
It prints READY once the inputs exist, which is where set-up ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_round(ops, tracer=None, tamper=None):
    """Run every operation once; returns (op kind, wall s, cpu s, failure) per op.

    Only op.run is timed. tamper(op, output), when given, alters a parsed
    output before its check, so a test can corrupt a result on purpose.
    """
    results = []
    for op in ops:
        run = op.run if tracer is None else tracer.span(op.kind, op.run)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            raw, reason = run(), None
        except Exception as exc:  # a raising operation is a failed operation
            raw, reason = None, "raised %s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if reason is None:
            out = op.parse(raw)
            if tamper is not None:
                out = tamper(op, out)
            reason = op.check(out)
        results.append((op.kind, t1 - t0, c1 - c0, reason))
    return results


def summarize(rounds, known_fault):
    """End-to-end metrics (without setup_s) and the failure tally."""
    walls = [sum(r[1] for r in rnd) for rnd in rounds]
    cpus = [sum(r[2] for r in rnd) for rnd in rounds]
    durations = sorted(r[1] for rnd in rounds for r in rnd)
    failures = [(r[0], r[3]) for rnd in rounds for r in rnd if r[3] is not None]
    unexpected = [f for f in failures if not known_fault(*f)]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_s": statistics.median(durations),
        # nearest rank, so a run of few rounds reads the slowest operation
        # type whatever the round count
        "op_p90_s": durations[math.ceil(0.9 * len(durations)) - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": not unexpected,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": metrics,
        "rounds": len(rounds),
        "unexpected": unexpected[:5],
    }


def run_rounds(ops, seconds):
    """Whole rounds until `seconds` have passed, at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ops))
    return rounds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import rank1kit
    if not os.path.abspath(rank1kit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print("error: rank1kit imported from %s, not this checkout" % rank1kit.__file__,
              file=sys.stderr)
        return 2
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, smoke=args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rounds = run_rounds(ops, args.seconds)
    result = summarize(rounds, workloads.is_known_fault)
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_round(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracer.per_layer()
        layers["trace.overhead_s"] = sum(r[1] for r in traced) - result["metrics"]["wall_s"]
        result = dict(summarize(rounds + [traced], workloads.is_known_fault), metrics=layers)
        tracer.write(os.path.join(args.workdir, "trace.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
