"""Batch invariant suites for every module.

Each check is a small record {"name", "status", "detail"} where status
is "pass", "fail", or "info".  Info entries carry measurements that are
reported but not scored: the known breakdown of the displayed rotation
action for the non-associative kind, and the side-by-side comparison of
the two readings of the product-form action identity.  All randomness
comes from generators seeded off the caller's seed, so a fixed seed
yields a byte-identical report.
"""

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraKind,
    random_element,
    random_imaginary,
    random_unit,
)
from .nilboundary import (
    NilPoint,
    SpaceConfig,
    crossratio_nil,
    dist,
    ninv,
    nmul,
    qnorm,
    random_point,
)
from .ballmodel import (
    BallPoint,
    coshdist,
    crossratio_ball,
    random_interior,
    stereo,
    stereo_inv,
)
from . import isometry
from . import sl2traces
from . import spectrum

_KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)


def _check(name, passed, detail):
    return {"name": name, "status": "pass" if bool(passed) else "fail", "detail": detail}


def _info(name, detail):
    return {"name": name, "status": "info", "detail": detail}


def _nil_size(p):
    return 1.0 if p.is_infinity else float(np.max(np.abs(p.coeffs)))


def _nil_gap(p, q):
    if p.is_infinity or q.is_infinity:
        return 0.0 if (p.is_infinity and q.is_infinity) else math.inf
    return float(np.max(np.abs(p.coeffs - q.coeffs)))


def _ball_gap(x, y):
    return float(np.max(np.abs(x.coeffs - y.coeffs)))


# ---------------------------------------------------------------------------
# algebra


def verify_algebra(seed=0):
    checks = []
    rng = np.random.default_rng((seed, 11))
    kind = AlgebraKind.O
    w_rdiv = w_lalt = w_nm = w_qc = 0.0
    for _ in range(2500):
        x = random_element(kind, rng)
        y = random_element(kind, rng)
        sx, sy = x.norm(), y.norm()
        w_rdiv = max(w_rdiv, ((x * y) * y.inv() - x).norm() / sx)
        w_lalt = max(w_lalt, (x * (x * y) - (x * x) * y).norm() / (sx * sx * sy))
        w_nm = max(w_nm, abs((x * y).norm() - sx * sy) / (sx * sy))
        w_qc = max(
            w_qc,
            (x * x.conj() - AlgebraElement.from_real(kind, x.norm_sq())).norm() / x.norm_sq(),
        )
    checks.append(_check(
        "right division (x y) y^-1 = x", w_rdiv <= 1e-12,
        f"worst rel {w_rdiv:.3e} over 2500 octonion pairs"))
    checks.append(_check(
        "left alternative x (x y) = (x x) y", w_lalt <= 1e-12,
        f"worst rel {w_lalt:.3e} over 2500 octonion pairs"))
    checks.append(_check(
        "norm multiplicativity |x y| = |x| |y|", w_nm <= 1e-12,
        f"worst rel {w_nm:.3e} over 2500 octonion pairs"))
    checks.append(_check(
        "x conj(x) = |x|^2", w_qc <= 1e-12,
        f"worst rel {w_qc:.3e} over 2500 octonion samples"))

    for akind in (AlgebraKind.R, AlgebraKind.C, AlgebraKind.H):
        worst = 0.0
        for _ in range(800):
            x = random_element(akind, rng)
            y = random_element(akind, rng)
            z = random_element(akind, rng)
            worst = max(
                worst,
                ((x * y) * z - x * (y * z)).norm() / (x.norm() * y.norm() * z.norm()),
            )
        checks.append(_check(
            f"associativity over {akind.name}", worst <= 1e-12,
            f"worst rel {worst:.3e} over 800 triples"))
    witness = 0.0
    for _ in range(200):
        x = random_element(kind, rng)
        y = random_element(kind, rng)
        z = random_element(kind, rng)
        witness = max(
            witness,
            ((x * y) * z - x * (y * z)).norm() / (x.norm() * y.norm() * z.norm()),
        )
    checks.append(_check(
        "octonion non-associativity witness", witness > 1e-6,
        f"largest associator rel {witness:.3e} over 200 triples"))

    chain = ((AlgebraKind.R, AlgebraKind.C), (AlgebraKind.C, AlgebraKind.H), (AlgebraKind.H, AlgebraKind.O))
    worst = 0.0
    for small, big in chain:
        for _ in range(300):
            x = random_element(small, rng)
            y = random_element(small, rng)
            worst = max(worst, ((x * y).embed(big) - x.embed(big) * y.embed(big)).norm())
            worst = max(worst, (x.conj().embed(big) - x.embed(big).conj()).norm())
            worst = max(worst, (x.inv().embed(big) - x.embed(big).inv()).norm())
            worst = max(worst, abs(x.norm() - x.embed(big).norm()))
    checks.append(_check(
        "subalgebra embeddings commute with mul, conj, inv, norm", worst <= 1e-12,
        f"worst abs {worst:.3e} over the chain R in C in H in O"))
    return checks


# ---------------------------------------------------------------------------
# nilboundary


def verify_nilboundary(seed=0):
    checks = []
    w_assoc = w_unit = w_inv = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 21, ki))
        e = NilPoint.identity(cfg)
        for _ in range(250):
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            k = random_point(cfg, rng)
            lhs = nmul(nmul(g, h), k)
            rhs = nmul(g, nmul(h, k))
            w_assoc = max(w_assoc, _nil_gap(lhs, rhs) / max(1.0, _nil_size(lhs)))
            w_unit = max(w_unit, _nil_gap(nmul(g, e), g), _nil_gap(nmul(e, g), g))
            w_inv = max(w_inv, _nil_gap(nmul(g, ninv(g)), e), _nil_gap(nmul(ninv(g), g), e))
    checks.append(_check(
        "group product associativity (all kinds)", w_assoc <= 1e-12,
        f"worst rel gap {w_assoc:.3e} over 250 triples per kind"))
    checks.append(_check(
        "identity element laws", w_unit <= 1e-12, f"worst gap {w_unit:.3e}"))
    checks.append(_check(
        "inverse element laws", w_inv <= 1e-12, f"worst gap {w_inv:.3e}"))

    w_hom = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 22, ki))
        for _ in range(250):
            g = random_point(cfg, rng)
            s = float(rng.uniform(-1.5, 1.5))
            dil = isometry.NormalIsometry.dilation(cfg, s)
            ref = math.exp(-s) * qnorm(g)
            w_hom = max(w_hom, abs(qnorm(isometry.act_nil(dil, g)) - ref) / ref)
    checks.append(_check(
        "gauge homogeneity under dilation", w_hom <= 1e-12,
        f"worst rel {w_hom:.3e} over 250 draws per kind"))

    w_sym = w_self = w_left = 0.0
    min_sep = math.inf
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 23, ki))
        for _ in range(250):
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            f = random_point(cfg, rng)
            d = dist(g, h)
            w_sym = max(w_sym, abs(d - dist(h, g)) / d)
            # exact cancellation leaves a fourth-root floor near 1e-8
            w_self = max(w_self, dist(g, g))
            min_sep = min(min_sep, d)
            w_left = max(w_left, abs(dist(nmul(f, g), nmul(f, h)) - d) / d)
    checks.append(_check(
        "distance symmetry", w_sym <= 1e-12, f"worst rel {w_sym:.3e}"))
    checks.append(_check(
        "distance separation", w_self <= 1e-7 and min_sep > 1e-3,
        f"worst self-distance {w_self:.3e}, smallest pair distance {min_sep:.3e}"))
    checks.append(_check(
        "distance left invariance", w_left <= 1e-12,
        f"worst rel {w_left:.3e} over 250 draws per kind"))

    w_red = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 24, ki))
        e = NilPoint.identity(cfg)
        inf_pt = NilPoint.infinity(cfg)
        for _ in range(250):
            g1 = random_point(cfg, rng)
            g2 = random_point(cfg, rng)
            lhs = crossratio_nil(e, g1, inf_pt, g2)
            rhs = crossratio_nil(ninv(g2), nmul(ninv(g2), g1), inf_pt, e)
            w_red = max(w_red, abs(lhs - rhs) / abs(lhs))
    checks.append(_check(
        "cross-ratio left-translation reduction", w_red <= 1e-12,
        f"worst rel {w_red:.3e} over 250 draws per kind"))
    return checks


# ---------------------------------------------------------------------------
# ballmodel


def verify_ballmodel(seed=0):
    checks = []
    w_rt = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 31, ki))
        inf_pt = NilPoint.infinity(cfg)
        if not stereo_inv(stereo(inf_pt)).is_infinity:
            w_rt = math.inf
        for _ in range(250):
            g = random_point(cfg, rng)
            back = stereo_inv(stereo(g))
            w_rt = max(w_rt, _nil_gap(back, g) / max(1.0, _nil_size(g)))
    checks.append(_check(
        "projection round trip", w_rt <= 1e-10,
        f"worst rel gap {w_rt:.3e} over 250 draws per kind plus infinity"))

    kind = AlgebraKind.O
    cfg = SpaceConfig(kind, 2)
    rng = np.random.default_rng((seed, 32))
    w_exp = 0.0
    for _ in range(250):
        g = random_point(cfg, rng)
        a = g.horizontal_norm_sq()
        c = g.center
        den = (1.0 + a) ** 2 + c.norm_sq()
        lead = AlgebraElement.from_real(kind, 1.0 + a) + c
        w1 = tuple((2.0 / den) * (lead * k) for k in g.horizontal)
        w2 = (1.0 / den) * (
            AlgebraElement.from_real(kind, 1.0 - a * a - c.norm_sq()) + 2.0 * c
        )
        img = stereo(g)
        gap = float(np.max(np.abs(img.w2.coeffs - w2.coeffs)))
        for u, v in zip(img.w1, w1):
            gap = max(gap, float(np.max(np.abs(u.coeffs - v.coeffs))))
        w_exp = max(w_exp, gap)
    checks.append(_check(
        "expanded projection formula matches stereo", w_exp <= 1e-10,
        f"worst coordinate gap {w_exp:.3e} over 250 octonion draws"))

    w_fac = 0.0
    for _ in range(250):
        g = random_point(cfg, rng, scale=1.5)
        a = g.horizontal_norm_sq()
        mm = g.center.norm_sq()
        lhs = (a * a + a + mm) ** 2 + mm
        rhs = (a * a + mm) * ((1.0 + a) ** 2 + mm)
        w_fac = max(w_fac, abs(lhs - rhs) / rhs)
    checks.append(_check(
        "gauge denominator factorization identity", w_fac <= 1e-12,
        f"worst rel {w_fac:.3e} over 250 octonion draws"))

    w_cr = 0.0
    for ki, (kind_i, m) in enumerate(_KINDS):
        cfg_i = SpaceConfig(kind_i, m)
        rng = np.random.default_rng((seed, 33, ki))
        south = BallPoint.pole(cfg_i, -1)
        north = BallPoint.pole(cfg_i, 1)
        for _ in range(200):
            g1 = random_point(cfg_i, rng)
            g2 = random_point(cfg_i, rng)
            got = crossratio_ball(south, north, stereo(g1), stereo(g2))
            ref = qnorm(g2) ** 2 / qnorm(g1) ** 2
            w_cr = max(w_cr, abs(got - ref) / ref)
    checks.append(_check(
        "cross-ratio equals gauge ratio at the poles", w_cr <= 1e-9,
        f"worst rel {w_cr:.3e} over 200 pairs per kind"))

    w_cd = 0.0
    for ki, (kind_i, m) in enumerate(_KINDS[:3]):
        cfg_i = SpaceConfig(kind_i, m)
        rng = np.random.default_rng((seed, 34, ki))
        for _ in range(150):
            A = isometry.random_form_preserving(cfg_i, rng)
            x = random_interior(cfg_i, rng)
            y = random_interior(cfg_i, rng)
            ref = coshdist(x, y)
            got = coshdist(isometry.act_interior(A, x), isometry.act_interior(A, y))
            w_cd = max(w_cd, abs(got - ref) / ref)
    checks.append(_check(
        "cosh distance invariance under the matrix action (R, C, H)", w_cd <= 1e-9,
        f"worst rel {w_cd:.3e} over 150 draws per kind"))
    return checks


# ---------------------------------------------------------------------------
# isometry


def verify_isometry(seed=0):
    checks = []
    w_rot = 0.0
    for ki, (kind, m) in enumerate(_KINDS[:3]):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 41, ki))
        for _ in range(200):
            iso = isometry.NormalIsometry(
                cfg, isometry.random_rotation_block(cfg, rng), random_unit(kind, rng), 0.0
            )
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            ref = dist(g, h)
            got = dist(isometry.act_nil(iso, g), isometry.act_nil(iso, h))
            w_rot = max(w_rot, abs(got - ref) / ref)
    checks.append(_check(
        "rotation part acts by isometries (R, C, H)", w_rot <= 1e-9,
        f"worst rel {w_rot:.3e} over 200 pairs per kind"))

    cfg_o = SpaceConfig(AlgebraKind.O, 2)
    rng = np.random.default_rng((seed, 42))
    w_orot = 0.0
    for _ in range(200):
        iso = isometry.NormalIsometry(
            cfg_o, isometry.random_rotation_block(cfg_o, rng), random_unit(AlgebraKind.O, rng), 0.0
        )
        g = random_point(cfg_o, rng)
        h = random_point(cfg_o, rng)
        ref = dist(g, h)
        got = dist(isometry.act_nil(iso, g), isometry.act_nil(iso, h))
        w_orot = max(w_orot, abs(got - ref) / ref)
    checks.append(_info(
        "octonion rotation action distance deviation",
        f"the displayed twist action is not distance preserving for the "
        f"non-associative kind: worst rel deviation {w_orot:.3e} over 200 pairs "
        f"(dilations and left translations remain exact)"))

    w_dil = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 43, ki))
        for _ in range(200):
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            s = float(rng.uniform(-1.5, 1.5))
            dil = isometry.NormalIsometry.dilation(cfg, s)
            ref = math.exp(-s) * dist(g, h)
            got = dist(isometry.act_nil(dil, g), isometry.act_nil(dil, h))
            w_dil = max(w_dil, abs(got - ref) / ref)
    checks.append(_check(
        "dilation scales distance by exp(-s)", w_dil <= 1e-12,
        f"worst rel {w_dil:.3e} over 200 pairs per kind"))

    w_crb = 0.0
    for ki, (kind, m) in enumerate(_KINDS[:3]):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 44, ki))
        for _ in range(150):
            pts = [stereo(random_point(cfg, rng)) for _ in range(4)]
            iso = isometry.random_normal_isometry(cfg, rng)
            ref = crossratio_ball(*pts)
            got = crossratio_ball(*[isometry.act_ball(iso, p) for p in pts])
            w_crb = max(w_crb, abs(got - ref) / abs(ref))
    rng = np.random.default_rng((seed, 45))
    for _ in range(150):
        pts = [stereo(random_point(cfg_o, rng)) for _ in range(4)]
        dil = isometry.NormalIsometry.dilation(cfg_o, float(rng.uniform(-1.2, 1.2)))
        ref = crossratio_ball(*pts)
        got = crossratio_ball(*[isometry.act_ball(dil, p) for p in pts])
        w_crb = max(w_crb, abs(got - ref) / abs(ref))
    checks.append(_check(
        "cross-ratio invariance under the ball action (R, C, H; O dilations)",
        w_crb <= 1e-9, f"worst rel {w_crb:.3e} over 150 quadruples per case"))

    w_crn = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 46, ki))
        for _ in range(150):
            gs = [random_point(cfg, rng) for _ in range(4)]
            f = random_point(cfg, rng)
            ref = crossratio_ball(*[stereo(g) for g in gs])
            got = crossratio_ball(*[stereo(nmul(f, g)) for g in gs])
            w_crn = max(w_crn, abs(got - ref) / abs(ref))
    checks.append(_check(
        "cross-ratio invariance under left translations (all kinds)",
        w_crn <= 1e-9, f"worst rel {w_crn:.3e} over 150 quadruples per kind"))

    w_eq = 0.0
    for ki, (kind, m) in enumerate(_KINDS):
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng((seed, 47, ki))
        for _ in range(150):
            iso = isometry.random_normal_isometry(cfg, rng)
            g = random_point(cfg, rng)
            w_eq = max(
                w_eq,
                _ball_gap(stereo(isometry.act_nil(iso, g)), isometry.act_ball(iso, stereo(g))),
            )
    checks.append(_check(
        "model equivariance of the two actions (all kinds)", w_eq <= 1e-9,
        f"worst coordinate gap {w_eq:.3e} over 150 draws per kind"))

    rng = np.random.default_rng((seed, 48))
    w_cor = 0.0
    lit_min = math.inf
    lit_max = 0.0
    for _ in range(300):
        s = float(rng.uniform(-1.2, 1.2))
        knorm = float(abs(rng.standard_normal())) + 0.2
        Q = random_imaginary(AlgebraKind.O, rng)
        nu = random_unit(AlgebraKind.O, rng)
        w_cor = max(w_cor, isometry.action_identity_residual(s, Q, nu, knorm, "corrected"))
        lit = isometry.action_identity_residual(s, Q, nu, knorm, "literal")
        lit_min = min(lit_min, lit)
        lit_max = max(lit_max, lit)
    checks.append(_check(
        "product-form action identity, corrected reading", w_cor <= 1e-10,
        f"worst residual {w_cor:.3e} over 300 octonion draws"))
    checks.append(_info(
        "product-form action identity, literal reading",
        f"the final displayed bracketing fails at order one: residual range "
        f"[{lit_min:.3e}, {lit_max:.3e}] over the same draws; kept for "
        f"side-by-side disambiguation"))
    return checks


# ---------------------------------------------------------------------------
# sl2traces


def verify_sl2traces(seed=0):
    checks = []
    rng = np.random.default_rng((seed, 51))
    w_gauge = 0.0
    for _ in range(10000):
        A = sl2traces.random_loxodromic(rng)
        ref = sl2traces.length(A)
        got = sl2traces.gauge_to_length(sl2traces.length_gauge(A))
        w_gauge = max(w_gauge, abs(got - ref) / ref)
    checks.append(_check(
        "trace-length gauge identity", w_gauge <= 1e-12,
        f"worst rel {w_gauge:.3e} over 10000 random loxodromics"))

    rng = np.random.default_rng((seed, 52))
    w_vogt = 0.0
    w_delta = 0.0
    for _ in range(10000):
        A = sl2traces.random_sl2(rng)
        B = sl2traces.random_sl2(rng)
        C = sl2traces.random_sl2(rng)
        x1, x2, x3 = A.trace(), B.trace(), C.trace()
        y12, y13, y23 = (A @ B).trace(), (A @ C).trace(), (B @ C).trace()
        P, Q, delta, roots = sl2traces.vogt(x1, x2, x3, y12, y13, y23)
        scale = max(1.0, abs(P), abs(Q))
        for z in roots:
            w_vogt = max(w_vogt, abs(z * z - P * z + Q) / scale)
        w_delta = max(w_delta, abs(delta - (P * P - 4.0 * Q)))
    checks.append(_check(
        "triple-trace quadratic has the returned roots", w_vogt <= 1e-10,
        f"worst scaled residual {w_vogt:.3e} over 10000 random triples"))
    checks.append(_check(
        "discriminant equals P^2 - 4Q as computed", w_delta == 0.0,
        f"largest deviation {w_delta:.3e}"))

    rng = np.random.default_rng((seed, 53))
    w_fd = 0.0
    for _ in range(20):
        rep = sl2traces.SL2Rep([sl2traces.random_loxodromic(rng), sl2traces.random_loxodromic(rng)])
        words = sl2traces.default_f2_words()
        J_an, _ = sl2traces.trace_jacobian(rep, words, method="analytic")
        J_fd, _ = sl2traces.trace_jacobian(rep, words, method="fd")
        gap = np.abs(J_an - J_fd) / np.maximum(1.0, np.abs(J_an))
        w_fd = max(w_fd, float(gap.max()))
    checks.append(_check(
        "analytic and finite-difference trace differentials agree", w_fd <= 1e-7,
        f"worst entrywise rel gap {w_fd:.3e} over 20 two-generator draws"))

    rng = np.random.default_rng((seed, 54))
    six = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    w_seventh = 0.0
    tested = 0
    for _ in range(40):
        if tested >= 10:
            break
        rep = sl2traces.SL2Rep([
            sl2traces.random_loxodromic(rng),
            sl2traces.random_loxodromic(rng),
            sl2traces.random_loxodromic(rng),
        ])
        if not sl2traces.is_nonelementary(rep):
            continue
        x1, x2, x3 = (sl2traces.trace_word(rep, [i]) for i in (1, 2, 3))
        y12 = sl2traces.trace_word(rep, [1, 2])
        y13 = sl2traces.trace_word(rep, [1, 3])
        y23 = sl2traces.trace_word(rep, [2, 3])
        _, _, delta, _ = sl2traces.vogt(x1, x2, x3, y12, y13, y23)
        if abs(delta) < 1e-3:
            continue
        tested += 1
        J6, _ = sl2traces.trace_jacobian(rep, six)
        u, s, vh = np.linalg.svd(J6)
        null = vh[np.sum(s > 1e-8 * s[0]):]
        J7, _ = sl2traces.trace_jacobian(rep, [[1, 2, 3]])
        scale = 1.0 + float(np.abs(J7).max())
        for v in null:
            w_seventh = max(w_seventh, float(np.abs(J7 @ v.conj())[0]) / scale)
    checks.append(_check(
        "triple-product trace differential vanishes on the six-trace kernel",
        tested == 10 and w_seventh <= 1e-7,
        f"worst scaled pairing {w_seventh:.3e} over {tested} nondegenerate triples"))
    return checks


# ---------------------------------------------------------------------------
# spectrum


def verify_spectrum(seed=0):
    checks = []
    w_ratio = 0.0
    w_tail = 0.0
    for k in range(5):
        rng = np.random.default_rng((seed, 61, k))
        rep = spectrum.random_schottky_pair(rng)
        oracle = spectrum.LengthOracle(rep=rep)
        seq = spectrum.lemma1_sequence(oracle, [1], [2], 20)
        ga, gb = rep.generators
        limit = spectrum.crossratio_of_pair(ga, gb)
        errs = [abs(v - limit) for v in seq]
        # raw consecutive ratios oscillate; compare windowed envelopes
        env = [max(errs[4:9]), max(errs[9:14]), max(errs[14:20])]
        w_ratio = max(w_ratio, env[1] / env[0], env[2] / env[1])
        w_tail = max(w_tail, errs[-1] / limit)
    checks.append(_check(
        "product-length sequence error decays geometrically", w_ratio < 1.0,
        f"worst windowed envelope ratio {w_ratio:.3e}, tail rel err {w_tail:.3e} over 5 pairs"))

    w_mat = 0.0
    for gi, (kind, m) in enumerate(((AlgebraKind.R, 3), (AlgebraKind.C, 2))):
        cfg = SpaceConfig(kind, m)
        for k in range(4):
            rng = np.random.default_rng((seed, 62, gi, k))
            iso_a = isometry.random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))
            iso_b = isometry.random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))
            K = isometry.random_form_preserving(cfg, rng)
            L = isometry.random_form_preserving(cfg, rng)
            A = K @ isometry.embed_normal(iso_a) @ K.inverse()
            B = L @ isometry.embed_normal(iso_b) @ L.inverse()
            seq = spectrum.lemma1_matrix_sequence(A, B, 24)
            ref = spectrum.matrix_crossratio_reference(A, B)
            w_mat = max(w_mat, abs(seq[-1] - ref) / abs(ref))
    checks.append(_check(
        "matrix-isometry route matches the fixed-point cross-ratio", w_mat <= 1e-5,
        f"worst rel err {w_mat:.3e} at n = 24 over 4 conjugated pairs per group"))

    rng = np.random.default_rng((seed, 63))
    rep = spectrum.random_schottky_pair(rng)
    oracle = spectrum.LengthOracle(rep=rep)
    r1 = spectrum.reconstruct_report(oracle)
    r2 = spectrum.reconstruct_report(oracle)
    w_hold = max(r1["holdout_errors"].values())
    checks.append(_check(
        "reconstruction matches held-out word lengths", w_hold <= 1e-3,
        f"worst held-out abs err {w_hold:.3e} over {len(r1['holdout_errors'])} words"))
    same = (
        r1["parameters"] == r2["parameters"]
        and r1["rms"] == r2["rms"]
        and r1["restart_index"] == r2["restart_index"]
    )
    checks.append(_check(
        "solver trajectory is deterministic for a fixed seed", same,
        "two runs on the same oracle returned bit-identical parameters"
        if same else "reruns disagreed"))
    dd = spectrum.conjugacy_distance(rep, r1["rep"])
    checks.append(_check(
        "round-trip class recovery", dd <= 1e-4,
        f"trace-coordinate distance {dd:.3e} after the solved fit"))
    return checks


# ---------------------------------------------------------------------------
# cli


def verify_cli(seed=0):
    import contextlib
    import io
    import json
    import os
    import tempfile

    from . import cli

    def quiet_run(cfg):
        # keep the child command's chatter out of the verify matrix
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run(cfg)

    checks = []
    with tempfile.TemporaryDirectory() as td:
        inp = os.path.join(td, "vogt.json")
        with open(inp, "w") as fh:
            json.dump({"x1": 2, "x2": 2, "x3": 2, "y12": 2, "y13": 2, "y23": 2}, fh)
        out1 = os.path.join(td, "out1.json")
        out2 = os.path.join(td, "out2.json")
        rc1 = quiet_run(cli.JobConfig(command="vogt", input=inp, output=out1, seed=seed))
        rc2 = quiet_run(cli.JobConfig(command="vogt", input=inp, output=out2, seed=seed))
        with open(out1, "rb") as fh:
            b1 = fh.read()
        with open(out2, "rb") as fh:
            b2 = fh.read()
        checks.append(_check(
            "identical config gives byte-identical output", rc1 == 0 and rc2 == 0 and b1 == b2,
            f"exit codes ({rc1}, {rc2}), outputs {'match' if b1 == b2 else 'differ'}"))

        csv1 = os.path.join(td, "seq1.csv")
        csv2 = os.path.join(td, "seq2.csv")
        rc3 = quiet_run(cli.JobConfig(command="lemma1", output=csv1, seed=seed, n=12))
        rc4 = quiet_run(cli.JobConfig(command="lemma1", output=csv2, seed=seed, n=12))
        with open(csv1, "rb") as fh:
            c1 = fh.read()
        with open(csv2, "rb") as fh:
            c2 = fh.read()
        checks.append(_check(
            "seeded table generation is reproducible", rc3 == 0 and rc4 == 0 and c1 == c2,
            f"exit codes ({rc3}, {rc4}), tables {'match' if c1 == c2 else 'differ'}"))

        bad = os.path.join(td, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"x1": 2, "x2": 2, "x3": 2, "y12": 2, "y13": 2}, fh)
        out3 = os.path.join(td, "out3.json")
        rc5 = quiet_run(cli.JobConfig(command="vogt", input=bad, output=out3))
        checks.append(_check(
            "malformed input fails without partial output",
            rc5 == 1 and not os.path.exists(out3),
            f"exit code {rc5}, output file {'absent' if not os.path.exists(out3) else 'written'}"))
    return checks


# ---------------------------------------------------------------------------
# orchestration

_SUITES = (
    ("algebra", verify_algebra),
    ("nilboundary", verify_nilboundary),
    ("ballmodel", verify_ballmodel),
    ("isometry", verify_isometry),
    ("sl2traces", verify_sl2traces),
    ("spectrum", verify_spectrum),
    ("cli", verify_cli),
)


def run_all(seed=0, modules=None):
    """Run every module's invariant suite; returns a list of
    (module name, checks) pairs in a fixed order."""
    results = []
    for name, fn in _SUITES:
        if modules is not None and name not in modules:
            continue
        results.append((name, fn(seed)))
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
