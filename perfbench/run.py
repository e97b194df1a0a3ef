"""rank1kit benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload reconstruct|boundary|sequences \
        --seed N --seconds S --trace 0|1 [--smoke]

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced round instead. --smoke runs the workload
at a small size. Inputs come from --seed. Work files and traces go to
perfbench/results/. See perfbench/README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reconstruct", "boundary", "sequences")
SETUP_PROBES = 4       # extra set-up-only processes; set-up is the median of 5
DEADLINE_S = 170.0     # the whole call, set-up probes included

# one thread for numpy's BLAS; the solver's restarts stay serial
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ, **PINNED)
    env.pop("RANK1KIT_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, extra, deadline):
    """Start worker.py; returns (set-up seconds, parsed last line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", args.workdir] + (["--smoke"] if args.smoke else []) + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError("worker did not finish set-up in time")
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError("worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run(args, spec):
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(args.workdir, exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(args, ["--setup-only"], deadline)[0])
    setup, result = _spawn(args, [], deadline)
    setups.append(setup)
    if result is None:
        raise BenchError("worker printed no result")
    for kind, reason in result.pop("unexpected"):
        print("unexpected failure in %s: %s" % (kind, reason), file=sys.stderr)
    print("%s: %d rounds, %d of %d operations failed" % (
        args.workload, result.pop("rounds"), result["failed"], result["attempted"]),
        file=sys.stderr)
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            # a span that never opened on this workload: zero calls, zero time
            if not m["name"].endswith((".calls", ".self_s")):
                raise BenchError("no value for metric %s" % m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for testing the benchmark")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "rank1kit", "__init__.py")):
        print("error: no rank1kit sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args.workdir = os.path.join(HERE, "results", "%s-%d" % (args.workload, args.seed))
    try:
        out = run(args, spec)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
