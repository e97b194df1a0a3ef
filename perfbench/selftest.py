"""Test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It self-tests the references, runs every workload at the small size
with and without tracing and checks every metric prints with its unit
(end-to-end metrics above 0) and that every per-layer count repeats
for the same seed, checks that deliberately corrupted results
count as failed operations, that the failed share does not depend on the
seed or the run length, and that the benchmark refuses to run without
the rank1kit sources. Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import fractions
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must be above 0 on each workload's small size;
# trace.overhead_s is left out, since a small round is too short to
# resolve it from noise
ACTIVE = {
    "reconstruct": ["sl2traces.evaluate.calls", "sl2traces.evaluate.letters",
                    "sl2traces.evaluate.self_s", "sl2traces.evaluate.prefix_share",
                    "spectrum.reconstruct_report.calls", "spectrum.reconstruct_report.self_s",
                    "spectrum.oracle.calls"],
    "boundary": ["algebra.mul.calls", "algebra.inv.calls", "algebra.batched.elements",
                 "algebra.batched.self_s", "nilboundary.nmul.calls", "nilboundary.dist.calls",
                 "nilboundary.crossratio_nil.calls", "ballmodel.stereo.calls",
                 "ballmodel.stereo_inv.calls", "ballmodel.chordal.calls",
                 "ballmodel.crossratio_ball.calls", "isometry.act_nil.calls",
                 "isometry.act_ball.calls"],
    "sequences": ["sl2traces.evaluate.calls", "sl2traces.evaluate.prefix_share",
                  "sl2traces.classify.calls", "spectrum.oracle.calls",
                  "spectrum.lemma1_sequence.self_s", "spectrum.lemma1_matrix_sequence.self_s",
                  "spectrum.crossratio_of_pair.self_s", "isometry.matmul.calls",
                  "isometry.translation_length.self_s", "cli.run.calls"],
}
# and those that must stay 0 there
IDLE = {
    "reconstruct": ["algebra.batched.elements", "nilboundary.nmul.calls"],
    "boundary": ["sl2traces.evaluate.calls", "sl2traces.evaluate.prefix_share",
                 "spectrum.oracle.calls", "cli.run.calls"],
    "sequences": ["spectrum.reconstruct_report.calls", "nilboundary.nmul.calls"],
}


class Failed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Failed(message)


def bench(workload, seed, seconds, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return p.returncode, p.stdout, p.stderr


def result_of(workload, seed, seconds, trace):
    rc, out, err = bench(workload, seed, seconds, trace)
    expect(rc == 0, "%s exited %d: %s" % (workload, rc, err))
    result = json.loads(out.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "result keys are %s" % sorted(result))
    expect(result["correct"] is True, "%s reported an incorrect output: %s" % (workload, err))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    expect(isinstance(result["failed"], int), "failed")
    return result


def test_metrics(spec):
    for workload in workloads.WORKLOADS:
        e2e = result_of(workload, 1, 1, 0)["metrics"]
        expect(list(e2e) == [m["name"] for m in spec["end_to_end"]], "end-to-end names")
        for m in spec["end_to_end"]:
            got = e2e[m["name"]]
            expect(got["unit"] == m["unit"], "unit of %s" % m["name"])
            expect(got["value"] > 0, "%s on %s is %r" % (m["name"], workload, got["value"]))
        layers = result_of(workload, 1, 1, 1)["metrics"]
        expect(list(layers) == [m["name"] for m in spec["per_layer"]], "per-layer names")
        for m in spec["per_layer"]:
            got = layers[m["name"]]
            expect(got["unit"] == m["unit"], "unit of %s" % m["name"])
            if m["name"] != "trace.overhead_s":
                expect(got["value"] >= 0, "%s on %s is %r" % (m["name"], workload, got["value"]))
        for name in ACTIVE[workload]:
            expect(layers[name]["value"] > 0, "%s is 0 on %s" % (name, workload))
        for name in IDLE[workload]:
            expect(layers[name]["value"] == 0, "%s is not 0 on %s" % (name, workload))
        again = result_of(workload, 1, 1, 1)["metrics"]
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                expect(again[m["name"]] == layers[m["name"]],
                       "%s on %s did not repeat" % (m["name"], workload))
        print("ok   metrics and units, counts repeat: %s" % workload)


def test_failed_share():
    shares = set()
    for seed, seconds in ((1, 1), (2, 2)):
        r = result_of("boundary", seed, seconds, 0)
        expect(r["failed"] > 0, "the scale-1e5 slice failed nothing")
        shares.add(fractions.Fraction(r["failed"], r["attempted"]))
    expect(len(shares) == 1, "failed share moved with the seed: %s" % shares)
    print("ok   failed share is fixed: %s" % shares.pop())


def corrupt(op, out):
    """One wrong value per operation type."""
    if op.kind.startswith("reconstruct."):
        gens = [g.copy() for g in out["generators"]]
        gens[0][0, 1] += 1e-3
        return dict(out, generators=gens)
    if op.kind.startswith("boundary.record."):
        return dict(out, cr_nil=out["cr_pole"], cr_pole=out["cr_nil"])
    if op.kind.startswith("boundary.batched_"):
        return out[::-1]
    if op.kind.startswith("boundary.slice."):
        return out
    if op.kind == "sequences.cli_lemma1":
        rc, seq, crs = out
        return rc, seq[:-1] + [seq[-1] * (1 + 1e-6)], crs
    seq = list(out[0])
    seq[-1] *= 1 + 1e-6
    return (seq,) + tuple(out[1:])


def test_corruption(workdir):
    for name, build in workloads.WORKLOADS.items():
        ops = build(3, workdir, smoke=True)
        clean = worker.summarize([worker.run_round(ops)], workloads.is_known_fault)
        bad = worker.summarize([worker.run_round(ops, tamper=corrupt)], workloads.is_known_fault)
        tampered = sum(1 for op in ops if not op.kind.startswith("boundary.slice."))
        expect(clean["correct"], "%s failed before corruption: %s" % (name, clean["unexpected"]))
        expect(bad["failed"] == clean["failed"] + tampered,
               "%s: %d of %d corrupted results counted as failed"
               % (name, bad["failed"] - clean["failed"], tampered))
        expect(not bad["correct"], "%s still reports correct" % name)
        print("ok   corrupted results fail: %s (%d ops)" % (name, tampered))


def test_bare_directory(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, out, _ = bench("boundary", 1, 1, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and not out.strip(), "ran without sources: exit %d, stdout %r" % (rc, out))
    print("ok   refuses to run without the rank1kit sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workdir = os.path.join(HERE, "results", "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        reference.selftest()
        print("ok   references meet their closed forms")
        test_corruption(workdir)
        test_bare_directory(workdir)
        test_failed_share()
        test_metrics(spec)
    except Failed as exc:
        print("FAIL %s" % exc)
        return 1
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
