"""The benchmark's three workloads: seeded inputs, operations and checks.

A workload is a list of operations that makes one round; a run repeats
whole rounds, so every round attempts the same operations on the same
inputs. Each operation has a `run` (the timed call into rank1kit), a
`parse` (turns what `run` returned into plain values, untimed) and a
`check` (compares those values with the references in reference.py or
with a property the method must have, untimed). A check returns None
on success, otherwise the reason the operation failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

import reference as ref
from rank1kit import algebra, ballmodel, cli, isometry, nilboundary, sl2traces, spectrum
from rank1kit.algebra import AlgebraKind

# reconstruct: the README pair, and the pair seeds whose conjugates the
# library and CSV solves use (see README: why the seed conjugates them)
README_PAIR = [[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]]
LIBRARY_PAIR_SEED = 0
TABLE_PAIR_SEED = 1
LENGTH_TOL = 1e-4      # criterion 12's bound, for lengths and trace coordinates

# boundary
KINDS = ((AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2), (AlgebraKind.O, 2))
SLICE_SEED = 100000    # the scale-1e5 slice does not depend on --seed
SLICE_SCALE = 1e5
BATCH = 10_000
# a chart round trip may lose 64 eps relative accuracy per unit of |g|^2
ROUND_TRIP_FACTOR = 64.0
INFINITY_FAULT = "stereo_inv returned infinity for a finite point"

# sequences
SL2_TERMS = 48         # well below the power-word overflow (n = 211 for seed 3)
MATRIX_TERMS = 40


class Op:
    __slots__ = ("kind", "run", "parse", "check")

    def __init__(self, kind, run, check, parse=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.parse = parse if parse is not None else (lambda raw: raw)


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def _quiet_cli(cfg):
    """cli.run in-process; returns (exit code, what it printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(cfg)
    return rc, out.getvalue()


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reconstruct


def _conjugator(rng):
    """Determinant-one matrix with condition number below 8: a unitary
    times a bounded upper-triangular factor."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    q = q / np.sqrt(np.linalg.det(q))
    r = rng.uniform(1.0, 2.0)
    z = complex(*rng.uniform(-1.0, 1.0, 2))
    return q @ np.array([[r, z], [0.0, 1.0 / r]])


def _conjugated_pair(pair_seed, rng):
    base = spectrum.random_schottky_pair(np.random.default_rng(pair_seed))
    c = _conjugator(rng)
    ci = np.linalg.inv(c)
    return [c @ g.mat @ ci for g in base.generators]


def _table_words():
    """Every reduced word up to length 5 and the power families the
    solver's start guesses ask for."""
    words = [w for n in range(1, 6) for w in ref.reduced_words(2, n)]
    for n in range(1, 17):
        for w in ([1] * n, [2] * n, [-2] * n, [1] * n + [2] * n, [1] * n + [-2] * n):
            if w not in words:
                words.append(w)
    return words


def _matrix_from_json(m):
    return np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in m])


def _parse_cli_fit(raw):
    rc, text = raw
    if rc != 0:
        return {"error": "exit code %d" % rc}
    return {"generators": [_matrix_from_json(g) for g in json.loads(text)["generators"]]}


def _parse_report(report):
    return {"generators": [g.mat for g in report["rep"].generators]}


def _fit_check(truth):
    def check(out):
        if "error" in out:
            return out["error"]
        fitted = out["generators"]
        gap = ref.worst_length_gap(fitted, truth)
        if not gap <= LENGTH_TOL:
            return "length gap %.3e over reduced words of length 5 and 6" % gap
        dist = ref.coordinate_distance(fitted, truth)
        if not dist <= LENGTH_TOL:
            return "trace-coordinate distance %.3e" % dist
        return None
    return check


def reconstruct(seed, workdir, smoke=False):
    rng = _rng(seed, 1)
    readme = [np.array(g, dtype=complex) for g in README_PAIR]
    gens_path = os.path.join(workdir, "gens.json")
    with open(gens_path, "w") as fh:
        json.dump({"generators": README_PAIR}, fh)

    lib_truth = _conjugated_pair(LIBRARY_PAIR_SEED, rng)
    lib_rep = sl2traces.SL2Rep([sl2traces.SL2(g) for g in lib_truth])

    table_truth = _conjugated_pair(TABLE_PAIR_SEED, rng)
    table_path = os.path.join(workdir, "table.csv")
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "length"])
        for w in _table_words():
            writer.writerow([" ".join(str(l) for l in w),
                             repr(ref.trace_length(ref.word_matrix(table_truth, w)))])

    readme_cfg = cli.JobConfig(command="reconstruct", input=gens_path)
    table_cfg = cli.JobConfig(command="reconstruct", input=table_path)
    ops = [
        Op("reconstruct.cli_readme", lambda: _quiet_cli(readme_cfg),
           _fit_check(readme), _parse_cli_fit),
        Op("reconstruct.library",
           lambda: spectrum.reconstruct_report(spectrum.LengthOracle(rep=lib_rep)),
           _fit_check(lib_truth), _parse_report),
        Op("reconstruct.cli_table", lambda: _quiet_cli(table_cfg),
           _fit_check(table_truth), _parse_cli_fit),
    ]
    # every solve takes seconds, so the small size keeps the library solve only
    return ops[1:2] if smoke else ops


# ---------------------------------------------------------------------------
# boundary


def _nil_coeffs(g):
    return g.center.coeffs, np.concatenate([h.coeffs for h in g.horizontal])


def _ball_coeffs(x):
    return np.concatenate([c.coeffs for c in x.coords()])


def _round_trip_failure(g, back):
    if back.is_infinity:
        return INFINITY_FAULT
    c0, h0 = _nil_coeffs(g)
    c1, h1 = _nil_coeffs(back)
    size = max(1.0, float(np.linalg.norm(np.concatenate([c0, h0]))))
    gap = max(float(np.max(np.abs(c1 - c0))), float(np.max(np.abs(h1 - h0)))) / size
    bound = ROUND_TRIP_FACTOR * ref.EPS * size * size
    if not gap <= bound:
        return "round-trip relative gap %.3e above the bound %.3e" % (gap, bound)
    return None


def _record(cfg, pts, k, iso, iso_cr, ident, inf):
    """One scalar record: the boundary primitives chained on seeded points."""
    g1, g2 = pts[0], pts[1]

    def run():
        d = nilboundary.dist(g1, g2)
        d_moved = nilboundary.dist(nilboundary.nmul(k, g1), nilboundary.nmul(k, g2))
        xs = [ballmodel.stereo(p) for p in pts]
        back = ballmodel.stereo_inv(xs[0])
        via_nil = ballmodel.stereo(isometry.act_nil(iso, g1))
        ys = [isometry.act_ball(iso_cr, x) for x in xs]
        via_ball = ys[0] if iso_cr is iso else isometry.act_ball(iso, xs[0])
        return {
            "dist": d, "dist_moved": d_moved, "back": back,
            "via_nil": via_nil, "via_ball": via_ball, "xs": xs, "ys": ys,
            "cr_pole": nilboundary.crossratio_nil(g1, g2, ident, inf),
            "cr_nil": nilboundary.crossratio_nil(*pts),
            "cr_ball": ballmodel.crossratio_ball(*xs),
            "cr_moved": ballmodel.crossratio_ball(*ys),
        }

    gauge_ratio = ref.gauge_norm(*_nil_coeffs(g1)) / ref.gauge_norm(*_nil_coeffs(g2))
    size = max(float(np.linalg.norm(np.concatenate(_nil_coeffs(p)))) for p in (g1, g2, k))

    def check(out):
        # the center's twist is quadratic in the coordinates, so dist loses
        # relative accuracy like (size / dist)^2
        d = out["dist"]
        if not abs(out["dist_moved"] - d) <= 1e-11 * max(1.0, size / d) ** 2 * d:
            return "dist is not left invariant: %r vs %r" % (out["dist_moved"], d)
        reason = _round_trip_failure(g1, out["back"])
        if reason is not None:
            return reason
        gap = float(np.max(np.abs(_ball_coeffs(out["via_nil"]) - _ball_coeffs(out["via_ball"]))))
        if not gap <= 1e-9:
            return "act_nil and act_ball disagree by %.3e" % gap
        if not _rel(out["cr_pole"], gauge_ratio) <= 1e-11:
            return "pole cross-ratio %r is not the gauge ratio %r" % (out["cr_pole"], gauge_ratio)
        # cross-ratio errors grow like eps over the smallest chordal distance,
        # which is of the order of the squared Euclidean gap between points
        coords = [_ball_coeffs(x) for x in out["xs"] + out["ys"]]
        near = min(float(np.linalg.norm(coords[i] - coords[j]))
                   for quad in (range(4), range(4, 8)) for i in quad for j in quad if i < j)
        tol = 1e-11 / min(1.0, near) ** 2
        if not _rel(out["cr_nil"], out["cr_ball"]) <= tol:
            return "nil and ball cross-ratios differ: %r vs %r" % (out["cr_nil"], out["cr_ball"])
        if not _rel(out["cr_moved"], out["cr_ball"]) <= tol:
            return "act_ball moved the cross-ratio: %r vs %r" % (out["cr_moved"], out["cr_ball"])
        return None

    return Op("boundary.record.%s" % cfg.kind.name, run, check)


def _batched_ops(kind, rng, n):
    x = rng.standard_normal((n, kind.dim))
    y = rng.standard_normal((n, kind.dim))

    def check_mul(xy):
        lhs = ref.cd_norm(xy)
        rhs = ref.cd_norm(x) * ref.cd_norm(y)
        worst = float(np.max(np.abs(lhs - rhs) / rhs))
        return None if worst <= 1e-12 else "|xy| - |x||y| relative %.3e" % worst

    def check_inv(xinv):
        one = ref.cd_mul(x, xinv)
        one[:, 0] -= 1.0
        worst = float(np.max(np.abs(one)))
        return None if worst <= 1e-12 else "x x^-1 - 1 is %.3e" % worst

    return [
        Op("boundary.batched_mul.%s" % kind.name, lambda: algebra.mul_coeffs(kind, x, y), check_mul),
        Op("boundary.batched_inv.%s" % kind.name, lambda: algebra.inv_coeffs(kind, x), check_inv),
    ]


def _slice_op(g):
    return Op("boundary.slice.%s" % g.config.kind.name,
              lambda: ballmodel.stereo_inv(ballmodel.stereo(g)),
              lambda back: _round_trip_failure(g, back))


def boundary(seed, workdir, smoke=False):
    records = 4 if smoke else 150
    slice_points = 4 if smoke else 50
    batch = 100 if smoke else BATCH
    ops = []
    for index, (kind, m) in enumerate(KINDS):
        cfg = nilboundary.SpaceConfig(kind, m)
        rng = _rng(seed, 10 + index)
        ident, inf = nilboundary.NilPoint.identity(cfg), nilboundary.NilPoint.infinity(cfg)
        for _ in range(records):
            pts = [nilboundary.random_point(cfg, rng) for _ in range(4)]
            k = nilboundary.random_point(cfg, rng)
            iso = isometry.random_normal_isometry(cfg, rng)
            # octonion rotation blocks do not preserve cross-ratios; dilations do
            iso_cr = isometry.NormalIsometry.dilation(cfg, float(rng.uniform(-1.5, 1.5))) \
                if kind is AlgebraKind.O else iso
            ops.append(_record(cfg, pts, k, iso, iso_cr, ident, inf))
        ops.extend(_batched_ops(kind, rng, batch))
        slice_rng = np.random.default_rng([SLICE_SEED, index])
        ops.extend(_slice_op(nilboundary.random_point(cfg, slice_rng, scale=SLICE_SCALE))
                   for _ in range(slice_points))
    return ops


def is_known_fault(kind, reason):
    """The one failure the benchmark keeps: stereo_inv's absolute
    infinity test on the scale-1e5 slice."""
    return kind.startswith("boundary.slice.") and reason == INFINITY_FAULT


# ---------------------------------------------------------------------------
# sequences


def _sequence_check(seq, est, want, tol):
    errors = [abs(v - want) for v in seq]
    if not errors[-1] <= tol * want:
        return "last term %r is not the cross-ratio %r" % (seq[-1], want)
    if est is not None and not abs(est - want) <= tol * want:
        return "extrapolated limit %r is not the cross-ratio %r" % (est, want)
    if not max(errors[:4]) > errors[-1]:
        return "the error does not decay"
    return None


def _sl2_op(a, b, terms):
    rep = sl2traces.SL2Rep([a, b])
    want = ref.sl2_crossratio_sq(a.mat, b.mat)

    def run():
        seq = spectrum.lemma1_sequence(spectrum.LengthOracle(rep=rep), [1], [2], terms)
        est, _ = spectrum.crossratio_estimate(seq)
        return seq, est, spectrum.crossratio_of_pair(a, b)

    def check(out):
        seq, est, pair = out
        if not _rel(pair, want) <= 1e-10:
            return "crossratio_of_pair %r is not %r" % (pair, want)
        return _sequence_check(seq, est, want, 1e-9)

    return Op("sequences.lemma1", run, check)


def _cli_lemma1_op(cli_seed, terms):
    a, b = spectrum.random_schottky_pair(np.random.default_rng(cli_seed)).generators
    want = ref.sl2_crossratio_sq(a.mat, b.mat)
    cfg = cli.JobConfig(command="lemma1", seed=cli_seed, n=terms)

    def parse(raw):
        rc, text = raw
        rows = list(csv.DictReader(io.StringIO(text)))
        return rc, [float(r["sequence"]) for r in rows], [float(r["crossratio"]) for r in rows]

    def check(out):
        rc, seq, crs = out
        if rc != 0 or len(seq) != terms:
            return "exit code %d with %d rows" % (rc, len(seq))
        if not _rel(crs[-1], want) <= 1e-10:
            return "crossratio column %r is not %r" % (crs[-1], want)
        return _sequence_check(seq, None, want, 1e-9)

    return Op("sequences.cli_lemma1", lambda: _quiet_cli(cfg), check, parse)


def _complex_matrix(g):
    c = g.coeffs
    return c[:, :, 0] + (1j * c[:, :, 1] if c.shape[2] > 1 else 0.0)


def _matrix_op(a, b, terms):
    want = ref.matrix_crossratio(_complex_matrix(a), _complex_matrix(b))

    def run():
        seq = spectrum.lemma1_matrix_sequence(a, b, terms)
        est, _ = spectrum.crossratio_estimate(seq)
        return seq, est

    return Op("sequences.matrix.%s" % a.config.kind.name, run,
              lambda out: _sequence_check(out[0], out[1], want, 1e-8))


def sequences(seed, workdir, smoke=False):
    rng = _rng(seed, 2)
    ops = []
    for _ in range(2 if smoke else 6):
        a, b = spectrum.random_schottky_pair(rng).generators
        ops.append(_sl2_op(a, b, SL2_TERMS))
    ops.append(_cli_lemma1_op(int(rng.integers(2**31)), SL2_TERMS))
    for kind, m in KINDS[:2]:
        cfg = nilboundary.SpaceConfig(kind, m)
        pair = []
        for _ in range(2):
            c = isometry.random_form_preserving(cfg, rng)
            iso = isometry.random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))
            pair.append(c @ isometry.embed_normal(iso) @ c.inverse())
        ops.append(_matrix_op(pair[0], pair[1], MATRIX_TERMS))
    return ops


WORKLOADS = {"reconstruct": reconstruct, "boundary": boundary, "sequences": sequences}
