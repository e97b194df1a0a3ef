"""The invariant table of every module.

Each check is one record: a name, a bound, a sample count, a sampler, a
batched residual and a detail template, reported as {"name", "status",
"detail"}.  It passes when its worst residual meets the bound and fails
otherwise, on a NaN residual, or when drawing or scoring it raises (the
detail then names the exception); "info" marks the two unscored
measurements (the displayed rotation action of the non-associative kind,
and the two readings of the product-form action identity).  A fixed seed
yields a byte-identical report.  The public residual functions are the
one statement of each invariant that the acceptance tests share: arrays
with a leading sample axis in, one residual per sample out.
"""

import contextlib
import functools
import io
import json
import math
import operator
import os
import tempfile
import traceback
from collections import namedtuple

import numpy as np

from . import algebra, ballmodel, cli, isometry, nilboundary, sl2traces, spectrum
from .algebra import AlgebraKind, mul_coeffs, norm_coeffs
from .nilboundary import SpaceConfig

_KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)
_O2 = SpaceConfig(AlgebraKind.O, 2)


def _gap(a, b):
    # largest coefficient difference of points (..., m, dim); b = 0 gives the size of a
    return np.max(np.abs(a - b), axis=(-2, -1))


# ---------------------------------------------------------------------------
# residuals: algebra


def right_division(kind, x, y):
    """|(x y) y^-1 - x| / |x|."""
    back = mul_coeffs(kind, mul_coeffs(kind, x, y), algebra.inv_coeffs(kind, y))
    return norm_coeffs(back - x) / norm_coeffs(x)


def _left_alternative(kind, x, y):
    # |x (x y) - (x x) y| / (|x|^2 |y|)
    nx, ny = norm_coeffs(x), norm_coeffs(y)
    gap = mul_coeffs(kind, x, mul_coeffs(kind, x, y)) - mul_coeffs(kind, mul_coeffs(kind, x, x), y)
    return norm_coeffs(gap) / (nx * nx * ny)


def norm_product(kind, x, y):
    """||x y| - |x| |y|| / (|x| |y|)."""
    nx, ny = norm_coeffs(x), norm_coeffs(y)
    return np.abs(norm_coeffs(mul_coeffs(kind, x, y)) - nx * ny) / (nx * ny)


def conj_square(kind, x):
    """|x conj(x) - |x|^2| / |x|^2."""
    n2 = np.add.reduce(x * x, axis=-1)
    res = mul_coeffs(kind, x, algebra.conj_coeffs(kind, x))
    res[..., 0] -= n2
    return norm_coeffs(res) / n2


def _associator(kind, x, y, z):
    # |(x y) z - x (y z)| / (|x| |y| |z|)
    gap = mul_coeffs(kind, mul_coeffs(kind, x, y), z) - mul_coeffs(kind, x, mul_coeffs(kind, y, z))
    return norm_coeffs(gap) / (norm_coeffs(x) * norm_coeffs(y) * norm_coeffs(z))


def _embedding_gap(big, small, x, y):
    # the embedding of small in big commutes with mul, conj, inv and norm
    def pad(a):
        return np.concatenate([a, np.zeros(a.shape[:-1] + (big.dim - small.dim,))], axis=-1)

    X, Y = pad(x), pad(y)
    return np.max([
        norm_coeffs(pad(mul_coeffs(small, x, y)) - mul_coeffs(big, X, Y)),
        norm_coeffs(pad(algebra.conj_coeffs(small, x)) - algebra.conj_coeffs(big, X)),
        norm_coeffs(pad(algebra.inv_coeffs(small, x)) - algebra.inv_coeffs(big, X)),
        np.abs(norm_coeffs(x) - norm_coeffs(X)),
    ], axis=0)


# ---------------------------------------------------------------------------
# residuals: boundary group and ball model


def _group_laws(kind, g, h, k):
    # the associativity (relative), identity and inverse gaps of the group law
    nmul = nilboundary.nmul_coeffs
    e = np.zeros_like(g)
    lhs = nmul(kind, nmul(kind, g, h), k)
    return (
        _gap(lhs, nmul(kind, g, nmul(kind, h, k))) / np.maximum(1.0, _gap(lhs, 0)),
        np.maximum(_gap(nmul(kind, g, e), g), _gap(nmul(kind, e, g), g)),
        np.maximum(_gap(nmul(kind, g, -g), e), _gap(nmul(kind, -g, g), e)),
    )


def _symmetry(kind, g, h):
    d = nilboundary.dist_coeffs(kind, g, h)
    return np.abs(d - nilboundary.dist_coeffs(kind, h, g)) / d


def left_invariance(kind, g, h, f):
    """|d(f g, f h) - d(g, h)| / d(g, h)."""
    d = nilboundary.dist_coeffs(kind, g, h)
    fg, fh = nilboundary.nmul_coeffs(kind, f, g), nilboundary.nmul_coeffs(kind, f, h)
    return np.abs(nilboundary.dist_coeffs(kind, fg, fh) - d) / d


def distance_scaling(kind, M, nu, s, g, h):
    """|d(phi g, phi h) - e^-s d(g, h)| / (e^-s d(g, h)) for normal forms
    phi = (M, nu, s), one per sample."""
    ref = np.exp(-s) * nilboundary.dist_coeffs(kind, g, h)
    act = isometry.act_nil_coeffs
    got = nilboundary.dist_coeffs(kind, act(kind, M, nu, s, g), act(kind, M, nu, s, h))
    return np.abs(got - ref) / ref


def _crossratio_reduction(kind, g1, g2):
    # [e, g1, inf, g2] = [g2^-1, g2^-1 g1, inf, e]
    e = np.zeros_like(g1)
    inv2 = nilboundary.ninv_coeffs(g2)
    at_inf = [False, False, True, False]
    lhs = nilboundary.crossratio_nil_coeffs(kind, np.stack([e, g1, e, g2], axis=-3), at_inf)
    moved = np.stack([inv2, nilboundary.nmul_coeffs(kind, inv2, g1), e, e], axis=-3)
    return np.abs(lhs - nilboundary.crossratio_nil_coeffs(kind, moved, at_inf)) / np.abs(lhs)


def round_trip_gap(kind, g, infinity):
    """Largest coefficient gap of stereo_inv(stereo(g)) from g, relative to
    max(1, largest coefficient of g).  infinity (...) or None marks the
    points at infinity, whose gap is 0 when they come back as infinity;
    any other change of infinity is an infinite gap."""
    back, back_inf = ballmodel.stereo_inv_coeffs(kind, ballmodel.stereo_coeffs(kind, g, infinity))
    at_inf = back_inf if infinity is None else np.asarray(infinity, dtype=bool)
    gap = _gap(back, g) / np.maximum(1.0, _gap(g, 0))
    return np.where(at_inf | back_inf, np.where(at_inf & back_inf, 0.0, np.inf), gap)


def _expanded_projection_gap(kind, g):
    # stereo against the expanded chart w1 = 2 ((1 + a) + c) k / den and
    # w2 = ((1 - a^2 - |c|^2) + 2 c) / den, a = |k|^2, den = (1 + a)^2 + |c|^2
    a = nilboundary._norm_sq(g[..., 1:, :])
    c = g[..., 0, :]
    c2 = np.add.reduce(c * c, axis=-1)
    den = (1.0 + a) ** 2 + c2
    lead = c.copy()
    lead[..., 0] += 1.0 + a
    tail = 2.0 * c
    tail[..., 0] += 1.0 - a * a - c2
    want = np.concatenate([
        (2.0 / den)[..., None, None] * mul_coeffs(kind, lead[..., None, :], g[..., 1:, :]),
        (1.0 / den)[..., None, None] * tail[..., None, :],
    ], axis=-2)
    return _gap(ballmodel.stereo_coeffs(kind, g), want)


def _factorization(kind, g):
    # (a^2 + a + m)^2 + m = (a^2 + m) ((1 + a)^2 + m), a = |k|^2, m = |c|^2,
    # for the points 1.5 g
    g = 1.5 * g
    a = nilboundary._norm_sq(g[..., 1:, :])
    mm = np.add.reduce(g[..., 0, :] ** 2, axis=-1)
    rhs = (a * a + mm) * ((1.0 + a) ** 2 + mm)
    return np.abs((a * a + a + mm) ** 2 + mm - rhs) / rhs


def gauge_ratio(kind, g1, g2, h=None):
    """Relative gap of [S, N, stereo g1, stereo g2] from |g2|^2 / |g1|^2,
    S and N the south and north poles of the ball, the images of infinity
    and 0.  With a left translation h, which fixes infinity, the gap of
    [S, stereo h, stereo h g1, stereo h g2] from the same ratio."""
    poles = np.zeros(g1.shape[:-2] + (2,) + g1.shape[-2:])
    poles[..., :, -1, 0] = [-1.0, 1.0]
    g = np.stack([g1, g2], axis=-3)
    if h is not None:
        poles[..., 1, :, :] = ballmodel.stereo_coeffs(kind, h)
        g = nilboundary.nmul_coeffs(kind, h[..., None, :, :], g)
    pts = np.concatenate([poles, ballmodel.stereo_coeffs(kind, g)], axis=-3)
    ref = nilboundary.qnorm_coeffs(g2) ** 2 / nilboundary.qnorm_coeffs(g1) ** 2
    return np.abs(ballmodel.crossratio_ball_coeffs(kind, pts) - ref) / ref


def _cosh_invariance(kind, A, x, y):
    # cosh d(x A, y A) = cosh d(x, y) for interior points
    ref = ballmodel.coshdist_coeffs(kind, x, y)
    act = isometry.act_interior_coeffs
    return np.abs(ballmodel.coshdist_coeffs(kind, act(kind, A, x), act(kind, A, y)) - ref) / ref


def _crossratio_ball_invariance(kind, M, nu, s, *g):
    # [phi x1, ..., phi x4] = [x1, ..., x4] for xi = stereo(gi)
    pts = ballmodel.stereo_coeffs(kind, np.stack(g, axis=1))
    ref = ballmodel.crossratio_ball_coeffs(kind, pts)
    moved = isometry.act_ball_coeffs(kind, M[:, None], nu[:, None], s[:, None], pts)
    return np.abs(ballmodel.crossratio_ball_coeffs(kind, moved) - ref) / np.abs(ref)


def crossratio_translation_invariance(kind, g):
    """|[x1', ..., x4'] - [x1, ..., x4]| / |[x1, ..., x4]| for xi = stereo(gi)
    and xi' = stereo(f gi), g (N, 5, m, dim) = (g1, ..., g4, f)."""
    gs, f = g[:, :4], g[:, 4:]
    ref = ballmodel.crossratio_ball_coeffs(kind, ballmodel.stereo_coeffs(kind, gs))
    moved = ballmodel.stereo_coeffs(kind, nilboundary.nmul_coeffs(kind, f, gs))
    return np.abs(ballmodel.crossratio_ball_coeffs(kind, moved) - ref) / np.abs(ref)


def equivariance_gap(kind, M, nu, s, g):
    """Largest coefficient gap of stereo(act_nil(phi, g)) from
    act_ball(phi, stereo(g)) for normal forms phi = (M, nu, s)."""
    lhs = ballmodel.stereo_coeffs(kind, isometry.act_nil_coeffs(kind, M, nu, s, g))
    return _gap(lhs, isometry.act_ball_coeffs(kind, M, nu, s, ballmodel.stereo_coeffs(kind, g)))


# ---------------------------------------------------------------------------
# residuals: SL2 traces and length spectra


def trace_length_gauge(mats):
    """For loxodromics with length l and gauge g = |tr - 2| + |tr + 2|: the
    relative errors of the length read back from the gauge, and of the
    gauge against 2 (e^(l/2) + e^(-l/2))."""
    t = np.array([A.trace() for A in mats])
    l = sl2traces._trace_lengths(t).length
    g = sl2traces.length_gauge(t)
    back = np.array([sl2traces.gauge_to_length(v) for v in g])
    ref = 2.0 * (np.exp(l / 2.0) + np.exp(-l / 2.0))
    return np.abs(back - l) / l, np.abs(g - ref) / ref


def triple_traces(mats):
    """The traces x1, x2, x3, y12, y13, y23 and tr(A B C) of triples
    (A, B, C) = mats (N, 3, 2, 2)."""
    A, B, C = mats[:, 0], mats[:, 1], mats[:, 2]
    AB = A @ B
    return tuple(m[:, 0, 0] + m[:, 1, 1] for m in (A, B, C, AB, A @ C, B @ C, AB @ C))


def quadratic_residual(P, Q, z):
    """|z^2 - P z + Q| / max(1, |P|, |Q|): how far z is from a root of
    the triple-trace quadratic."""
    return np.abs(z * z - P * z + Q) / np.maximum(1.0, np.maximum(np.abs(P), np.abs(Q)))


def product_length_errors(rep, n):
    """Relative errors of e^(l(a^k) + l(b^k) - l(a^k b^k)), k = 1..n, from
    the cross-ratio of the fixed points of the generators a, b of rep."""
    seq = spectrum.lemma1_sequence(spectrum.LengthOracle(rep=rep), [1], [2], n)
    limit = spectrum.crossratio_of_pair(*rep.generators)
    return np.abs(np.array(seq) - limit) / limit


def matrix_route_error(A, B, n):
    """Relative error of term n of the matrix product-length sequence
    from the fixed-point cross-ratio."""
    ref = spectrum.matrix_crossratio_reference(A, B)
    return abs(spectrum.lemma1_matrix_sequence(A, B, n)[-1] - ref) / abs(ref)


def reconstruction_errors(truth, report):
    """The held-out length errors of a reconstruct_report from the truth's
    oracle, and the trace-coordinate distance of its fit from the truth."""
    errs = np.array(list(report["holdout_errors"].values()))
    return errs, spectrum.conjugacy_distance(truth, report["rep"])


# ---------------------------------------------------------------------------
# samplers: (streams, n) -> draws


class _Streams:
    """A suite's generators by key, seeded off (seed, *key) and drawn from in table order."""

    def __init__(self, seed):
        self.seed = seed
        self._rngs = {}

    def __call__(self, *key):
        if key not in self._rngs:
            self._rngs[key] = np.random.default_rng((self.seed,) + key)
        return self._rngs[key]


def _cases(cases, draw):
    # per case (config, key): (kind, arrays of n samples draw(config, rng, n) from the stream key)
    return lambda streams, n: [(cfg.kind, *draw(cfg, streams(*key), n)) for cfg, key in cases]


def _per_kind(key, kinds, draw):
    return _cases([(SpaceConfig(kind, m), (key, i)) for i, (kind, m) in enumerate(kinds)], draw)


def _each(draw):
    # n samples of draw(config, rng), one at a time: their draws interleave
    return lambda cfg, rng, n: [np.array(v) for v in zip(*(draw(cfg, rng) for _ in range(n)))]


def _points(k):
    # k points per sample, as k arrays
    return lambda cfg, rng, n: nilboundary.random_point_coeffs(cfg, rng, (n, k)).swapaxes(0, 1)


def _repeat(key, draw):
    # n draws draw(rng) from the stream key
    return lambda streams, n: [draw(streams(key)) for _ in range(n)]


def _normal_form(iso):
    return iso.M, iso.nu.coeffs, iso.s


def _random_form(cfg, rng):
    return _normal_form(isometry.random_normal_isometry(cfg, rng))


def _rotation(cfg, rng):
    M, nu = isometry.random_rotation_block(cfg, rng), algebra.random_unit(cfg.kind, rng)
    return _normal_form(isometry.NormalIsometry(cfg, M, nu, 0.0))


def _dilation(bound):
    return lambda cfg, rng: _normal_form(isometry.NormalIsometry.dilation(cfg, rng.uniform(-bound, bound)))


def _points_then(k, form):
    # per sample: k points, then a normal form; as (M, nu, s, points...)
    def draw(cfg, rng):
        pts = tuple(nilboundary.random_point_coeffs(cfg, rng, (k,)))
        return form(cfg, rng) + pts
    return _each(draw)


def _form_then(form, k):
    # per sample: a normal form, then k points; as (M, nu, s, points...)
    return _each(lambda cfg, rng: form(cfg, rng) + tuple(nilboundary.random_point_coeffs(cfg, rng, (k,))))


def _elements(kind, arity):
    # from the algebra suite's one stream
    return lambda streams, n: [(kind, *streams(11).standard_normal((n, arity, kind.dim)).swapaxes(0, 1))]


def _chain(streams, n):
    # (big, small, x, y) for pairs x, y of each small algebra in R in C in H in O
    big = {AlgebraKind.R: AlgebraKind.C, AlgebraKind.C: AlgebraKind.H, AlgebraKind.H: AlgebraKind.O}
    return [(big[small],) + case for small in big for case in _elements(small, 2)(streams, n)]


def _ball_actions(streams, n):
    # random normal forms of R, C and H; dilations of O, from their own stream
    return (_per_kind(44, _KINDS[:3], _points_then(4, _random_form))(streams, n)
            + _cases([(_O2, (45,))], _points_then(4, _dilation(1.2)))(streams, n))


def _action_draws(streams, n):
    rng = streams(48)
    rows = []
    for _ in range(n):
        s = float(rng.uniform(-1.2, 1.2))
        knorm = float(abs(rng.standard_normal())) + 0.2
        Q = algebra.random_imaginary(AlgebraKind.O, rng).coeffs
        rows.append((s, Q, algebra.random_unit(AlgebraKind.O, rng).coeffs, knorm))
    return [np.array(v) for v in zip(*rows)]


_SIX = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]


def _nondegenerate_triples(streams, n):
    # n nonelementary triples with |Delta| >= 1e-3 from 40 draws; None for each not found
    rng = streams(54)
    reps = []
    for _ in range(40):
        if len(reps) >= n:
            break
        rep = sl2traces.SL2Rep([sl2traces.random_loxodromic(rng) for _ in range(3)])
        if sl2traces.is_nonelementary(rep):
            if abs(sl2traces.vogt(*(sl2traces.trace_word(rep, w) for w in _SIX))[2]) >= 1e-3:
                reps.append(rep)
    return reps + [None] * (n - len(reps))


def _matrix_pairs(streams, n):
    # per group, n conjugated pairs of hyperbolic matrices, each pair from its own stream
    pairs = []
    for gi, (kind, m) in enumerate(((AlgebraKind.R, 3), (AlgebraKind.C, 2))):
        cfg = SpaceConfig(kind, m)
        for k in range(n):
            rng = streams(62, gi, k)
            isos = [isometry.random_normal_isometry(cfg, rng, s_range=(0.7, 1.8)) for _ in range(2)]
            K, L = (isometry.random_form_preserving(cfg, rng) for _ in range(2))
            pairs.append((K @ isometry.embed_normal(isos[0]) @ K.inverse(),
                          L @ isometry.embed_normal(isos[1]) @ L.inverse()))
    return pairs


def _reconstructions(streams, n):
    # the truth and n reconstructions from its oracle
    truth = spectrum.random_schottky_pair(streams(63))
    oracle = spectrum.LengthOracle(rep=truth)
    return truth, [spectrum.reconstruct_report(oracle) for _ in range(n)]


def _cli_runs(streams, n):
    """Per CLI check, whether it held and the values of its detail: n
    identical vogt runs and n identical lemma1 runs exit 0 with the same
    bytes, and a vogt run on a malformed input exits 1 without output."""
    traces = {"x1": 2, "x2": 2, "x3": 2, "y12": 2, "y13": 2, "y23": 2}
    with tempfile.TemporaryDirectory() as td:
        def run(name, **fields):
            out = os.path.join(td, name)
            # keep the child command's chatter out of the verify matrix
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.run(cli.JobConfig(output=out, **fields))
            if not os.path.exists(out):
                return rc, None
            with open(out, "rb") as fh:
                return rc, fh.read()

        def same(name, **fields):
            (rc1, b1), (rc2, b2) = (run(name % i, seed=streams.seed, **fields) for i in range(1, n + 1))
            match = b1 is not None and b1 == b2
            values = {"rc1": rc1, "rc2": rc2, "same": "match" if match else "differ"}
            return rc1 == rc2 == 0 and match, values

        inp, bad = os.path.join(td, "vogt.json"), os.path.join(td, "bad.json")
        for path, data in ((inp, traces), (bad, {k: v for k, v in traces.items() if k != "y23"})):
            with open(path, "w") as fh:
                json.dump(data, fh)
        vogt, table = same("out%d.json", command="vogt", input=inp), same("seq%d.csv", command="lemma1", n=12)
        rc, out = run("out3.json", command="vogt", input=bad)
        file = "absent" if out is None else "written"
        return vogt, table, (rc == 1 and out is None, {"rc": rc, "file": file})


# ---------------------------------------------------------------------------
# the table


# One invariant: sample(streams, count) draws, and residual(draws) gives the
# residuals, or them and a dict of further values for the detail template
# next to worst, count and n (the number of residuals).  The worst residual
# must meet the bound, at most it unless meets says otherwise; None: "info".
_Check = namedtuple("_Check", "name bound count sample residual detail meets", defaults=(operator.le,))


def _per_case(fn):
    """A residual over per-case draws: fn(*case) for each case, joined."""
    return lambda draws: np.concatenate([np.ravel(fn(*case)) for case in draws])


def _run(check, draw):
    try:
        out = check.residual(draw(check.sample, check.count))
    except Exception as e:  # a check that raises fails, and the others still run
        traceback.print_exc()
        return {"name": check.name, "status": "fail", "detail": f"{type(e).__name__}: {e}"}
    r, values = out if isinstance(out, tuple) else (out, {})
    worst = float(np.max(r))  # a NaN residual stays NaN here
    status = ("fail" if math.isnan(worst) else "info" if check.bound is None
              else "pass" if check.meets(worst, check.bound) else "fail")
    detail = check.detail.format(worst=worst, count=check.count, n=np.size(r), **values)
    return {"name": check.name, "status": status, "detail": detail}


_octonion_pairs = _elements(AlgebraKind.O, 2)

_ALGEBRA = [
    _Check("right division (x y) y^-1 = x", 1e-12, 2500, _octonion_pairs, _per_case(right_division),
           "worst rel {worst:.3e} over {count} octonion pairs"),
    _Check("left alternative x (x y) = (x x) y", 1e-12, 2500, _octonion_pairs,
           _per_case(_left_alternative), "worst rel {worst:.3e} over {count} octonion pairs"),
    _Check("norm multiplicativity |x y| = |x| |y|", 1e-12, 2500, _octonion_pairs,
           _per_case(norm_product), "worst rel {worst:.3e} over {count} octonion pairs"),
    _Check("x conj(x) = |x|^2", 1e-12, 2500, _octonion_pairs,
           _per_case(lambda kind, x, y: conj_square(kind, x)),
           "worst rel {worst:.3e} over {count} octonion samples"),
] + [
    _Check(f"associativity over {kind.name}", 1e-12, 800, _elements(kind, 3), _per_case(_associator),
           "worst rel {worst:.3e} over {count} triples")
    for kind in (AlgebraKind.R, AlgebraKind.C, AlgebraKind.H)
] + [
    _Check("octonion non-associativity witness", 1e-6, 200, _elements(AlgebraKind.O, 3),
           _per_case(_associator), "largest associator rel {worst:.3e} over {count} triples", operator.gt),
    _Check("subalgebra embeddings commute with mul, conj, inv, norm", 1e-12, 300, _chain,
           _per_case(_embedding_gap), "worst abs {worst:.3e} over the chain R in C in H in O"),
]


def _group_law(i):
    return _per_case(lambda kind, g, h, k: _group_laws(kind, g, h, k)[i])


def _separation(draws):
    # d(g, g) near 0 (exact cancellation leaves a fourth-root floor near
    # 1e-8), and distinct draws apart: a pair closer than 1e-3 fails
    pair = np.concatenate([nilboundary.dist_coeffs(kind, g, h) for kind, g, h, _ in draws])
    self_dist = np.concatenate([nilboundary.dist_coeffs(kind, g, g) for kind, g, _, _ in draws])
    return np.where(pair > 1e-3, self_dist, np.inf), {"pair": float(np.min(pair))}


_nil_triples = _per_kind(21, _KINDS, _points(3))
_nil_distances = _per_kind(23, _KINDS, _points(3))

_NILBOUNDARY = [
    _Check("group product associativity (all kinds)", 1e-12, 250, _nil_triples, _group_law(0),
           "worst rel gap {worst:.3e} over {count} triples per kind"),
    _Check("identity element laws", 1e-12, 250, _nil_triples, _group_law(1), "worst gap {worst:.3e}"),
    _Check("inverse element laws", 1e-12, 250, _nil_triples, _group_law(2), "worst gap {worst:.3e}"),
    # |g| is the distance from the identity, which dilations fix
    _Check("gauge homogeneity under dilation", 1e-12, 250,
           _per_kind(22, _KINDS, _points_then(1, _dilation(1.5))),
           _per_case(lambda kind, M, nu, s, g: distance_scaling(kind, M, nu, s, g, np.zeros_like(g))),
           "worst rel {worst:.3e} over {count} draws per kind"),
    _Check("distance symmetry", 1e-12, 250, _nil_distances,
           _per_case(lambda kind, g, h, f: _symmetry(kind, g, h)), "worst rel {worst:.3e}"),
    _Check("distance separation", 1e-7, 250, _nil_distances, _separation,
           "worst self-distance {worst:.3e}, smallest pair distance {pair:.3e}"),
    _Check("distance left invariance", 1e-12, 250, _nil_distances, _per_case(left_invariance),
           "worst rel {worst:.3e} over {count} draws per kind"),
    _Check("cross-ratio left-translation reduction", 1e-12, 250, _per_kind(24, _KINDS, _points(2)),
           _per_case(_crossratio_reduction), "worst rel {worst:.3e} over {count} draws per kind"),
]


def _plus_infinity(cfg, rng, n):
    # n points, then the point at infinity, and the mask that marks it
    g = nilboundary.random_point_coeffs(cfg, rng, (n,))
    return np.concatenate([g, np.zeros((1,) + cfg.shape)]), np.arange(n + 1) == n


def _interior_pair(cfg, rng):
    A = isometry.random_form_preserving(cfg, rng).coeffs
    return A, ballmodel.random_interior(cfg, rng).coeffs, ballmodel.random_interior(cfg, rng).coeffs


_BALLMODEL = [
    _Check("projection round trip", 1e-10, 250, _per_kind(31, _KINDS, _plus_infinity),
           _per_case(round_trip_gap),
           "worst rel gap {worst:.3e} over {count} draws per kind plus infinity"),
    _Check("expanded projection formula matches stereo", 1e-10, 250, _cases([(_O2, (32,))], _points(1)),
           _per_case(_expanded_projection_gap),
           "worst coordinate gap {worst:.3e} over {count} octonion draws"),
    _Check("gauge denominator factorization identity", 1e-12, 250,
           _cases([(_O2, (32,))], _points(1)), _per_case(_factorization),
           "worst rel {worst:.3e} over {count} octonion draws"),
    _Check("cross-ratio equals gauge ratio at the poles", 1e-9, 200, _per_kind(33, _KINDS, _points(2)),
           _per_case(gauge_ratio), "worst rel {worst:.3e} over {count} pairs per kind"),
    _Check("cosh distance invariance under the matrix action (R, C, H)", 1e-9, 150,
           _per_kind(34, _KINDS[:3], _each(_interior_pair)), _per_case(_cosh_invariance),
           "worst rel {worst:.3e} over {count} draws per kind"),
]


def _literal(draws):
    r = isometry.action_identity_coeffs(AlgebraKind.O, *draws, "literal")
    return r, {"low": float(np.min(r))}


_ISOMETRY = [
    _Check("rotation part acts by isometries (R, C, H)", 1e-9, 200,
           _per_kind(41, _KINDS[:3], _form_then(_rotation, 2)), _per_case(distance_scaling),
           "worst rel {worst:.3e} over {count} pairs per kind"),
    _Check("octonion rotation action distance deviation", None, 200,
           _cases([(_O2, (42,))], _form_then(_rotation, 2)), _per_case(distance_scaling),
           "the displayed twist action is not distance preserving for the non-associative kind: "
           "worst rel deviation {worst:.3e} over {count} pairs "
           "(dilations and left translations remain exact)"),
    _Check("dilation scales distance by exp(-s)", 1e-12, 200,
           _per_kind(43, _KINDS, _points_then(2, _dilation(1.5))), _per_case(distance_scaling),
           "worst rel {worst:.3e} over {count} pairs per kind"),
    _Check("cross-ratio invariance under the ball action (R, C, H; O dilations)", 1e-9, 150,
           _ball_actions, _per_case(_crossratio_ball_invariance),
           "worst rel {worst:.3e} over {count} quadruples per case"),
    _Check("cross-ratio invariance under left translations (all kinds)", 1e-9, 150,
           _per_kind(46, _KINDS, lambda cfg, rng, n: [nilboundary.random_point_coeffs(cfg, rng, (n, 5))]),
           _per_case(crossratio_translation_invariance),
           "worst rel {worst:.3e} over {count} quadruples per kind"),
    _Check("model equivariance of the two actions (all kinds)", 1e-9, 150,
           _per_kind(47, _KINDS, _form_then(_random_form, 1)), _per_case(equivariance_gap),
           "worst coordinate gap {worst:.3e} over {count} draws per kind"),
    _Check("product-form action identity, corrected reading", 1e-10, 300, _action_draws,
           lambda d: isometry.action_identity_coeffs(AlgebraKind.O, *d, "corrected"),
           "worst residual {worst:.3e} over {count} octonion draws"),
    _Check("product-form action identity, literal reading", None, 300, _action_draws, _literal,
           "the final displayed bracketing fails at order one: residual range [{low:.3e}, {worst:.3e}] "
           "over the same draws; kept for side-by-side disambiguation"),
]


def _fd_gaps(reps):
    words = sl2traces.default_f2_words()
    gaps = []
    for rep in reps:
        J_an, J_fd = (sl2traces.trace_jacobian(rep, words, method=m)[0] for m in ("analytic", "fd"))
        gaps.append((np.abs(J_an - J_fd) / np.maximum(1.0, np.abs(J_an))).max())
    return gaps


def _seventh_pairings(reps):
    # the triple-product trace differential against the kernel of the six
    # trace differentials, per triple; a triple that was not found fails
    worst = []
    for rep in reps:
        if rep is None:
            worst.append(np.inf)
            continue
        _, s, vh = np.linalg.svd(sl2traces.trace_jacobian(rep, _SIX)[0])
        J7, _ = sl2traces.trace_jacobian(rep, [[1, 2, 3]])
        scale = 1.0 + float(np.abs(J7).max())
        null = vh[np.sum(s > 1e-8 * s[0]):]
        worst.append(max((abs(J7 @ v.conj())[0] / scale for v in null), default=0.0))
    return worst, {"tested": sum(rep is not None for rep in reps)}


def _vogt_residuals(mats):
    # the quadratic residuals of the returned roots and of tr(A B C), and Delta - (P^2 - 4Q)
    *traces, z = triple_traces(np.array(mats))
    P, Q, delta, roots = sl2traces.vogt(*traces)
    return (np.concatenate([quadratic_residual(P, Q, r) for r in roots]), quadratic_residual(P, Q, z),
            np.abs(delta - (P * P - 4.0 * Q)))


_sl2_triples = _repeat(52, lambda rng: [sl2traces.random_sl2(rng).mat for _ in range(3)])

_SL2TRACES = [
    _Check("trace-length gauge identity", 1e-12, 10000, _repeat(51, sl2traces.random_loxodromic),
           lambda mats: trace_length_gauge(mats)[0],
           "worst rel {worst:.3e} over {count} random loxodromics"),
    _Check("triple-trace quadratic has the returned roots", 1e-10, 10000, _sl2_triples,
           lambda m: _vogt_residuals(m)[0], "worst scaled residual {worst:.3e} over {count} random triples"),
    _Check("triple-product trace is a root of the quadratic", 1e-10, 10000, _sl2_triples,
           lambda m: _vogt_residuals(m)[1], "worst scaled residual {worst:.3e} over {count} random triples"),
    _Check("discriminant equals P^2 - 4Q as computed", 0.0, 10000, _sl2_triples,
           lambda m: _vogt_residuals(m)[2], "largest deviation {worst:.3e}"),
    _Check("analytic and finite-difference trace differentials agree", 1e-7, 20,
           _repeat(53, lambda rng: sl2traces.SL2Rep([sl2traces.random_loxodromic(rng) for _ in range(2)])),
           _fd_gaps, "worst entrywise rel gap {worst:.3e} over {count} two-generator draws"),
    _Check("triple-product trace differential vanishes on the six-trace kernel", 1e-7, 10,
           _nondegenerate_triples, _seventh_pairings,
           "worst scaled pairing {worst:.3e} over {tested} nondegenerate triples"),
]


def _envelope_ratios(reps):
    # raw consecutive error ratios oscillate; compare windowed envelopes
    ratios, tails = [], []
    for rep in reps:
        errs = product_length_errors(rep, 20)
        env = [errs[4:9].max(), errs[9:14].max(), errs[14:20].max()]
        ratios.append(max(env[1] / env[0], env[2] / env[1]))
        tails.append(errs[-1])
    return ratios, {"tail": float(np.max(tails))}


def _deterministic(draws):
    _, (r1, r2) = draws
    same = all(r1[k] == r2[k] for k in ("parameters", "rms", "restart_index"))
    outcome = "two runs on the same oracle returned bit-identical parameters" if same else "reruns disagreed"
    return [0.0 if same else 1.0], {"outcome": outcome}


def _held(i):
    return lambda draws: ([0.0 if draws[i][0] else 1.0], draws[i][1])


_SPECTRUM = [
    _Check("product-length sequence error decays geometrically", 1.0, 5,
           lambda streams, n: [spectrum.random_schottky_pair(streams(61, k)) for k in range(n)],
           _envelope_ratios,
           "worst windowed envelope ratio {worst:.3e}, tail rel err {tail:.3e} over {count} pairs",
           operator.lt),
    _Check("matrix-isometry route matches the fixed-point cross-ratio", 1e-5, 4, _matrix_pairs,
           lambda pairs: [matrix_route_error(A, B, 24) for A, B in pairs],
           "worst rel err {worst:.3e} at n = 24 over {count} conjugated pairs per group"),
    _Check("reconstruction matches held-out word lengths", 1e-3, 2, _reconstructions,
           lambda d: reconstruction_errors(d[0], d[1][0])[0],
           "worst held-out abs err {worst:.3e} over {n} words"),
    _Check("solver trajectory is deterministic for a fixed seed", 0.0, 2, _reconstructions,
           _deterministic, "{outcome}"),
    _Check("round-trip class recovery", 1e-4, 2, _reconstructions,
           lambda d: [reconstruction_errors(d[0], d[1][0])[1]],
           "trace-coordinate distance {worst:.3e} after the solved fit"),
]

_CLI = [
    _Check("identical config gives byte-identical output", 0.0, 2, _cli_runs, _held(0),
           "exit codes ({rc1}, {rc2}), outputs {same}"),
    _Check("seeded table generation is reproducible", 0.0, 2, _cli_runs, _held(1),
           "exit codes ({rc1}, {rc2}), tables {same}"),
    _Check("malformed input fails without partial output", 0.0, 2, _cli_runs, _held(2),
           "exit code {rc}, output file {file}"),
]


# ---------------------------------------------------------------------------
# orchestration

_SUITES = (
    ("algebra", _ALGEBRA),
    ("nilboundary", _NILBOUNDARY),
    ("ballmodel", _BALLMODEL),
    ("isometry", _ISOMETRY),
    ("sl2traces", _SL2TRACES),
    ("spectrum", _SPECTRUM),
    ("cli", _CLI),
)


def run_all(seed=0, modules=None):
    """Run every module's invariant suite; returns a list of
    (module name, checks) pairs in a fixed order."""
    results = []
    for name, table in _SUITES:
        if modules is not None and name not in modules:
            continue
        # the records with one sampler and count share one draw, made in table order
        streams = _Streams(seed)
        draw = functools.lru_cache(None)(lambda sample, n: sample(streams, n))
        results.append((name, [_run(check, draw) for check in table]))
    return results


def summarize(results):
    counts = {"pass": 0, "fail": 0, "info": 0}
    for _, checks in results:
        for c in checks:
            counts[c["status"]] += 1
    return counts


def format_report(results):
    lines = []
    width = max(
        len(c["name"]) for _, checks in results for c in checks
    )
    for name, checks in results:
        lines.append(name)
        for c in checks:
            lines.append(f"  {c['status']:<4}  {c['name']:<{width}}  {c['detail']}")
    counts = summarize(results)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['info']} informational"
    )
    return "\n".join(lines) + "\n"
