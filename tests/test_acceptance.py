"""Top-level acceptance gate.

Each test is one stated requirement at its stated load and tolerance;
the module-level suites cover API details and edge cases at lighter
loads.  The residuals are the ones `rank1kit verify` scores, evaluated
on each criterion's own draws.  Runtime-budgeted tests measure wall
time and assert the cap.
"""

import math
import time

import numpy as np

from rank1kit.algebra import (
    AlgebraKind,
    inv_coeffs,
    mul_coeffs,
    norm_coeffs,
    random_imaginary,
    random_unit,
)
from rank1kit.ballmodel import stereo, stereo_coeffs, stereo_inv_coeffs
from rank1kit.isometry import (
    NormalIsometry,
    action_identity_coeffs,
    embed_normal,
    random_form_preserving,
    random_normal_isometry,
)
from rank1kit.nilboundary import NilPoint, SpaceConfig, random_point_coeffs
from rank1kit import sl2traces, spectrum, verify

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)


def worst(*residuals):
    # np.max keeps a NaN, which then fails every bound
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def stacked(rows):
    return [np.array(v) for v in zip(*rows)]


def normal_form(iso):
    return iso.M, iso.nu.coeffs, iso.s


def test_criterion_01_octonion_algebra_laws():
    t0 = time.time()
    rng = np.random.default_rng(20260816)
    kind = AlgebraKind.O
    n = 12000
    q = rng.standard_normal((n, 8))
    p = rng.standard_normal((n, 8))
    x = rng.standard_normal((n, 8))
    y = rng.standard_normal((n, 8))

    lhs = inv_coeffs(kind, mul_coeffs(kind, x, y))
    rhs = mul_coeffs(kind, inv_coeffs(kind, y), inv_coeffs(kind, x))
    w = worst(
        verify.conj_square(kind, q),
        verify.norm_product(kind, q, p),
        verify.right_division(kind, x, y),
        norm_coeffs(lhs - rhs) / norm_coeffs(lhs),
    )
    elapsed = time.time() - t0
    assert w <= 1e-12, f"worst relative law violation {w:.3e}"
    assert elapsed < 5.0, f"algebra law sweep took {elapsed:.2f}s"


def test_criterion_02_boundary_metric_invariances():
    rng = np.random.default_rng(101)
    worst_left = []
    worst_dil = []
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        c, g, h = np.moveaxis(random_point_coeffs(cfg, rng, (1000, 3)), 1, 0)
        worst_left.append(verify.left_invariance(kind, g, h, c))
        rows = []
        for _ in range(1000):
            iso = NormalIsometry.dilation(cfg, float(rng.uniform(-1.5, 1.5)))
            rows.append(normal_form(iso) + tuple(random_point_coeffs(cfg, rng, (2,))))
        worst_dil.append(verify.distance_scaling(kind, *stacked(rows)))
    assert worst(*worst_left) <= 1e-12, f"left-invariance violation {worst(*worst_left):.3e}"
    assert worst(*worst_dil) <= 1e-12, f"dilation homogeneity violation {worst(*worst_dil):.3e}"
    # left translations fix the ball cross-ratio, which reads the twist of the
    # group law and the octonionic seminorm term; drawn apart from the above
    rng = np.random.default_rng(1010)
    cr = [verify.crossratio_translation_invariance(kind, random_point_coeffs(SpaceConfig(kind, m), rng, (250, 5)))
          for kind, m in KINDS]
    assert worst(*cr) <= 1e-9, f"cross-ratio translation invariance violation {worst(*cr):.3e}"


def test_criterion_03_projection_fixed_values_and_round_trip():
    rng = np.random.default_rng(102)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        north = stereo(NilPoint.identity(cfg))
        south = stereo(NilPoint.infinity(cfg))
        for c in north.w1 + south.w1:
            assert np.all(c.coeffs == 0.0)
        assert north.w2.re == 1.0 and north.w2.im().norm() == 0.0
        assert south.w2.re == -1.0 and south.w2.im().norm() == 0.0
        g = random_point_coeffs(cfg, rng, (250,))
        x = stereo_coeffs(kind, g)
        assert np.max(np.abs(np.sum(x * x, axis=(1, 2)) - 1.0)) <= 1e-10
        back, _ = stereo_inv_coeffs(kind, x)
        # every coordinate within 1e-10, absolutely
        assert np.max(norm_coeffs(back - g)) <= 1e-10
        assert worst(verify.round_trip_gap(kind, g, None)) <= 1e-10


def test_criterion_04_crossratio_gauge_identity():
    rng = np.random.default_rng(103)
    cfg = SpaceConfig(AlgebraKind.O, 2)
    g = random_point_coeffs(cfg, rng, (1000, 2))
    w = worst(verify.gauge_ratio(AlgebraKind.O, g[:, 0], g[:, 1]))
    assert w <= 1e-9, f"worst relative deviation {w:.3e}"


def test_criterion_05_model_equivalence():
    rng = np.random.default_rng(104)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        rows = [normal_form(random_normal_isometry(cfg, rng)) + (random_point_coeffs(cfg, rng, ()),)
                for _ in range(1000)]
        assert worst(verify.equivariance_gap(kind, *stacked(rows))) <= 1e-9


def test_criterion_06_action_identity_and_disambiguation():
    rng = np.random.default_rng(105)
    rows = []
    for _ in range(1000):
        q = random_imaginary(AlgebraKind.O, rng).coeffs
        nu = random_unit(AlgebraKind.O, rng).coeffs
        rows.append((float(rng.uniform(0.1, 1.5)), q, nu, float(rng.uniform(0.1, 2.0))))
    w = worst(action_identity_coeffs(AlgebraKind.O, *stacked(rows), "corrected"))
    assert w <= 1e-10, f"corrected-reading residual {w:.3e}"
    # the verifier must surface both readings of the ambiguous display
    [(_, checks)] = verify.run_all(seed=0, modules=["isometry"])
    names = {c["name"]: c["status"] for c in checks}
    corrected = [n for n in names if "corrected reading" in n]
    literal = [n for n in names if "literal reading" in n]
    assert corrected and names[corrected[0]] == "pass"
    assert literal and names[literal[0]] == "info"


def test_criterion_07_product_length_crossratio_limit():
    t0 = time.time()
    rng = np.random.default_rng(106)
    sl2 = [verify.product_length_errors(spectrum.random_schottky_pair(rng), 24)[-1] for _ in range(100)]
    assert worst(sl2) <= 1e-5, f"SL2 route worst rel err {worst(sl2):.3e}"

    errs = []
    for kind, m in ((AlgebraKind.R, 3), (AlgebraKind.C, 2)):
        cfg = SpaceConfig(kind, m)
        for _ in range(20):
            C = random_form_preserving(cfg, rng)
            D = random_form_preserving(cfg, rng)
            A = C @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ C.inverse()
            B = D @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ D.inverse()
            errs.append(verify.matrix_route_error(A, B, 24))
    elapsed = time.time() - t0
    assert worst(errs) <= 1e-5, f"matrix route worst rel err {worst(errs):.3e}"
    assert elapsed < 60.0, f"product-length sweep took {elapsed:.2f}s"


def test_criterion_08_trace_length_gauge():
    rng = np.random.default_rng(107)
    mats = [sl2traces.random_loxodromic(rng) for _ in range(10000)]
    w = worst(*verify.trace_length_gauge(mats))
    assert w <= 1e-12, f"worst relative gauge deviation {w:.3e}"
    A = sl2traces.SL2.diagonal(2.0)  # trace 2.5
    assert sl2traces.length_gauge(A) == 5.0
    assert abs(sl2traces.length(A) - 2.0 * math.log(2.0)) <= 1e-15


def test_criterion_09_triple_trace_quadratic():
    rng = np.random.default_rng(108)
    mats = np.array([[sl2traces.random_sl2(rng).mat for _ in range(3)] for _ in range(10000)])
    *traces, z = verify.triple_traces(mats)
    P, Q, delta, _ = sl2traces.vogt(*traces)
    assert np.all(delta == P * P - 4.0 * Q)
    w = worst(verify.quadratic_residual(P, Q, z))
    assert w <= 1e-10, f"worst scaled quadratic residual {w:.3e}"
    P, Q, delta, roots = sl2traces.vogt(2, 2, 2, 2, 2, 2)
    assert P == 4.0 and Q == 4.0 and delta == 0.0 and roots == (2.0, 2.0)


def test_criterion_10_trace_kernel_dimensions():
    six = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    za, zb = 1.3 + 0.2j, 0.7 + 0.1j
    commuting = sl2traces.SL2Rep(
        [
            sl2traces.SL2.diagonal(2.0 + 0.3j),
            sl2traces.SL2.diagonal(1.5 - 0.2j),
            sl2traces.SL2([[za, zb], [zb, (1.0 + zb * zb) / za]]),
        ]
    )
    J, rank = sl2traces.trace_jacobian(commuting, six)
    assert J.shape[1] - rank == 4, f"kernel {J.shape[1] - rank} at the commuting configuration"

    rng = np.random.default_rng(109)
    rep = sl2traces.SL2Rep([sl2traces.random_loxodromic(rng) for _ in range(3)])
    assert sl2traces.is_nonelementary(rep)
    J2, rank2 = sl2traces.trace_jacobian(rep, six)
    assert J2.shape[1] - rank2 == 3, f"kernel {J2.shape[1] - rank2} at a generic triple"


def test_criterion_11_length_chart_rank():
    rng = np.random.default_rng(110)
    words = sl2traces.default_f2_words()
    produced = 0
    while produced < 20:
        rep = spectrum.random_schottky_pair(rng)
        produced += 1
        _, rank = sl2traces.length_jacobian(rep, words)
        assert rank == 6, f"rank {rank} at draw {produced}"
    shared = sl2traces.SL2Rep(
        [sl2traces.SL2.diagonal(2.0), sl2traces.SL2.diagonal(1.5 + 0.3j)]
    )
    _, rank = sl2traces.length_jacobian(shared, words)
    assert rank <= 2, f"shared-axis rank {rank}"


def test_criterion_12_rigidity_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(111)
    truth = spectrum.random_schottky_pair(rng)
    report = spectrum.reconstruct_report(spectrum.LengthOracle(rep=truth))
    holdout, d = verify.reconstruction_errors(truth, report)
    assert d <= 1e-4, f"round-trip class distance {d:.3e}"
    assert len(holdout), "no held-out words were scored"
    assert worst(holdout) <= 1e-3, f"worst held-out length error {worst(holdout):.3e}"

    mirrored = spectrum.reconstruct(spectrum.LengthOracle(rep=truth.entrywise_conj()))
    d2 = spectrum.conjugacy_distance(mirrored, truth)
    assert d2 <= 1e-4, f"conjugate-oracle class distance {d2:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"round trip took {elapsed:.2f}s"
