import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rank1kit import cli, sl2traces, spectrum
from rank1kit.algebra import AlgebraKind
from rank1kit.ballmodel import BallPoint, stereo
from rank1kit.isometry import NormalIsometry, random_normal_isometry
from rank1kit.nilboundary import NilPoint, SpaceConfig, crossratio_nil, qnorm, random_point
from rank1kit.sl2traces import SL2Rep
from rank1kit.spectrum import random_schottky_pair


def run_quiet(argv):
    """Run a CLI job in process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(cli.parse(argv))
    return rc, out.getvalue(), err.getvalue()


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_parse_examples():
    cfg = cli.parse(["lemma1", "--n", "24", "--seed", "7"])
    assert cfg.command == "lemma1" and cfg.n == 24 and cfg.seed == 7
    assert cfg.input is None and cfg.output is None and cfg.tol is None
    with pytest.raises(SystemExit) as exc:
        cli.parse(["--bad"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.parse(["frobnicate"])
    assert exc.value.code == 1


def test_parse_reads_every_flag():
    cases = [
        (["vogt", "--seed", "3", "--input", "a.json", "--output", "b.json"],
         cli.JobConfig("vogt", input="a.json", output="b.json", seed=3)),
        (["lemma1", "--seed", "9", "--tol", "1e-07", "--n", "12"],
         cli.JobConfig("lemma1", n=12, seed=9, tol=1e-7)),
        (["reconstruct", "--seed", "0", "--input", "t.csv", "--words", "24"],
         cli.JobConfig("reconstruct", input="t.csv", words=24)),
    ]
    for argv, cfg in cases:
        assert cli.parse(argv) == cfg


def test_vogt_identity_values(tmp_path):
    inp = write_json(tmp_path / "v.json", {k: 2 for k in ("x1", "x2", "x3", "y12", "y13", "y23")})
    rc, out, _ = run_quiet(["vogt", "--input", inp])
    assert rc == 0
    data = json.loads(out)
    assert data["P"] == 4.0 and data["Q"] == 4.0 and data["Delta"] == 0.0
    assert data["roots"] == [2.0, 2.0]


def test_vogt_missing_field_names_it(tmp_path):
    inp = write_json(tmp_path / "v.json", {k: 2 for k in ("x1", "x2", "x3", "y12", "y13")})
    outp = str(tmp_path / "result.json")
    rc, _, err = run_quiet(["vogt", "--input", inp, "--output", outp])
    assert rc == 1
    assert "y23" in err
    assert not os.path.exists(outp)  # no partial output on failure


def test_lemma2_closed_values(tmp_path):
    inp = write_json(tmp_path / "l2.json", {"trace": 2.5})
    rc, out, _ = run_quiet(["lemma2", "--input", inp])
    assert rc == 0
    data = json.loads(out)
    assert data["gauge"] == 5.0
    assert abs(data["length"] - 2.0 * math.log(2.0)) <= 1e-15
    # every trace sits at or above gauge 4; elliptic traces land exactly on it
    inp2 = write_json(tmp_path / "l2b.json", {"trace": 1.0})
    rc, out, _ = run_quiet(["lemma2", "--input", inp2])
    data = json.loads(out)
    assert rc == 0 and data["gauge"] == 4.0 and data["length"] == 0.0


@pytest.mark.parametrize("trace", [-0.6, -0.32, -1.79])
def test_lemma2_elliptic_traces_have_length_zero(tmp_path, trace):
    # the smooth kernel length reads 4.4e-16 on these traces
    assert sl2traces._trace_lengths(trace).length > 0.0
    rc, out, _ = run_quiet(["lemma2", "--input", write_json(tmp_path / "l2.json", {"trace": trace})])
    assert rc == 0 and json.loads(out)["length"] == 0.0


@pytest.mark.parametrize("trace, want", [
    (2.5, 1.3862943611198906), (1e200, 400.0 * math.log(10.0)), ([0, 1e160], 320.0 * math.log(10.0))])
def test_lemma2_large_traces_have_finite_lengths(tmp_path, trace, want):
    # the squared gauge overflows past 1e154; the length does not
    inp = write_json(tmp_path / "l2.json", {"trace": trace})
    rc, out, _ = run_quiet(["lemma2", "--input", inp])
    assert rc == 0
    length = json.loads(out)["length"]
    assert length == want if trace == 2.5 else abs(length - want) <= 1e-15 * want


def test_large_entry_matrices_pass_the_determinant_check(tmp_path):
    big = [[1e200, 0.0], [0.0, 1e-200]]
    inp = write_json(tmp_path / "m.json", {"matrix": big})
    rc, out, err = run_quiet(["lemma2", "--input", inp])
    assert rc == 0, err
    assert abs(json.loads(out)["length"] - 400.0 * math.log(10.0)) <= 1e-12
    inp = write_json(tmp_path / "cr.json", {"a": big, "b": [[2.0, 1.0], [1.0, 1.0]]})
    rc, out, err = run_quiet(["crossratio", "--input", inp])
    assert rc == 0, err
    assert json.loads(out)["fixed_points"]["a"]["attracting"] == "inf"
    # a determinant that overflows still fails validation, naming the field
    for command, payload, field in (
            ("lemma2", {"matrix": [[1e200, 1e200], [1e200, 1e200]]}, "matrix"),
            ("crossratio", {"a": [[1e200, 1e200], [1e200, 1e200]], "b": big}, "a")):
        outp = tmp_path / "out.json"
        rc, _, err = run_quiet([command, "--input", write_json(tmp_path / "bad.json", payload),
                                "--output", str(outp)])
        assert rc == 1 and f"field '{field}'" in err and "determinant" in err
        assert not outp.exists()


def test_lemma2_infinite_gauge_is_encoded(tmp_path):
    inp = write_json(tmp_path / "l2.json", {"trace": [1e308, 1e308]})
    rc, out, _ = run_quiet(["lemma2", "--input", inp])
    assert rc == 0
    assert "Infinity" not in out
    data = json.loads(out)
    # the gauge overflows; the length, read from the trace, does not
    assert data["gauge"] == "inf" and data["length"] == 1419.085564464892


def test_lemma1_non_finite_terms_exit_2(tmp_path, monkeypatch):
    # the power words stay finite for any n, so a non-finite term is
    # planted to exercise the gate
    def planted(oracle, a, b, N, check=True):
        return [1.0, 2.0, math.nan] + [2.5] * (N - 3)

    monkeypatch.setattr(cli.spectrum, "lemma1_sequence", planted)
    outp = tmp_path / "seq.csv"
    rc, _, err = run_quiet(["lemma1", "--seed", "3", "--n", "6", "--output", str(outp)])
    assert rc == 2
    assert "n = 3" in err
    assert not outp.exists()


def test_lemma1_long_sequence_is_finite(tmp_path):
    # the unscaled power words of seed 3 overflow from n = 211 on
    outp = str(tmp_path / "seq.csv")
    rc, _, _ = run_quiet(["lemma1", "--seed", "3", "--n", "400", "--output", outp])
    assert rc == 0
    rows = Path(outp).read_text().splitlines()[1:]
    assert len(rows) == 400
    values = [[float(v) for v in r.split(",")] for r in rows]
    assert all(math.isfinite(v) for row in values for v in row)
    n, _, ref, err = values[-1]
    assert n == 400 and err <= 1e-9 * ref


def test_lemma1_bundled_table(tmp_path):
    outp = str(tmp_path / "seq.csv")
    rc, out, _ = run_quiet(["lemma1", "--seed", "5", "--n", "20", "--output", outp])
    assert rc == 0
    assert f"wrote {outp}" in out
    lines = Path(outp).read_text().splitlines()
    assert lines[0] == "n,sequence,crossratio,error"
    assert len(lines) == 21
    last = lines[-1].split(",")
    assert int(last[0]) == 20
    assert float(last[3]) <= 1e-5 * float(last[2])


def test_lemma1_reads_the_readme_pair(tmp_path):
    # the limit column is the README's crossratio of the same pair
    inp = write_json(tmp_path / "pair.json",
                     {"a": [[2.0, 0.0], [0.0, 0.5]], "b": [[2.0, 1.0], [1.0, 1.0]]})
    outp = tmp_path / "seq.csv"
    rc, _, _ = run_quiet(["lemma1", "--input", inp, "--output", str(outp)])
    assert rc == 0
    lines = outp.read_text().splitlines()
    assert lines[0] == "n,sequence,crossratio,error" and len(lines) == 25
    assert {line.split(",")[2] for line in lines[1:]} == {"1.9098300562505257"}


def test_lemma1_seeded_reproducibility(tmp_path):
    p1, p2, p3 = (str(tmp_path / f"s{i}.csv") for i in range(3))
    for p in (p1, p2):
        rc, _, _ = run_quiet(["lemma1", "--seed", "11", "--n", "10", "--output", p])
        assert rc == 0
    rc, _, _ = run_quiet(["lemma1", "--seed", "12", "--n", "10", "--output", p3])
    assert rc == 0
    assert Path(p1).read_text() == Path(p2).read_text()
    assert Path(p1).read_text() != Path(p3).read_text()


def test_crossratio_from_matrix_pair(tmp_path):
    rep = random_schottky_pair(np.random.default_rng(2))
    A, B = rep.generators
    inp = write_json(
        tmp_path / "cr.json",
        {"a": A.to_list(), "b": B.to_list()},
    )
    rc, out, _ = run_quiet(["crossratio", "--input", inp])
    assert rc == 0
    data = json.loads(out)
    assert data["crossratio"] > 0.0
    assert "fixed_points" in data
    # the attracting point of a is 1e15: finite, and so printed
    inp = write_json(tmp_path / "far.json", {"a": [[2, 0], [1.5e-15, 0.5]], "b": [[2, 1], [1, 1]]})
    rc, out, err = run_quiet(["crossratio", "--input", inp])
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert data["fixed_points"]["a"]["attracting"] == 1000000000000000.1
    assert data["crossratio"] == 1.909830056250523
    # at 1.5e309 it has no float: a numeric failure, not a point at infinity
    inp = write_json(tmp_path / "past.json", {"a": [[2, 0], [1e-309, 0.5]], "b": [[2, 1], [1, 1]]})
    rc, out, err = run_quiet(["crossratio", "--input", inp])
    assert rc == 2 and "overflows the float range" in err and not out
    # at about 9.76e307, from a lift with a subnormal coordinate, it is a float
    inp = write_json(tmp_path / "subnormal.json", {"a": [[1.05, 0], [1e-309, 1 / 1.05]], "b": [[2, 1], [1, 1]]})
    rc, out, err = run_quiet(["crossratio", "--input", inp])
    assert (rc, err) == (0, "")
    data = json.loads(out)
    assert math.isfinite(data["fixed_points"]["a"]["attracting"]) and data["crossratio"] == 1.909830056250525


def test_crossratio_nil_gauge_identity(tmp_path):
    # |k|^4 and |center|^2 leave the float range at scales 1e78 and 1e-170,
    # and |center| itself nearly does at 1e300
    for scale in (1.0, 1e78, 1e-170, 1e300):
        cfg = SpaceConfig(AlgebraKind.O, 2)
        rng = np.random.default_rng(3)
        g1, g2 = random_point(cfg, rng, scale), random_point(cfg, rng, scale)
        pts = [
            g1.to_dict(),
            g2.to_dict(),
            NilPoint.identity(cfg).to_dict(),
            NilPoint.infinity(cfg).to_dict(),
        ]
        inp = write_json(tmp_path / "nil.json", {"model": "nil", "points": pts})
        rc, out, err = run_quiet(["crossratio", "--input", inp])
        assert (rc, err) == (0, "")
        got = json.loads(out)["crossratio"]
        ref = (qnorm(g1) / qnorm(g2)) ** 2
        assert abs(got - ref) <= 1e-9 * ref
        for kind, m in [(AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2), (AlgebraKind.O, 2)]:
            quad = [random_point(SpaceConfig(kind, m), rng, scale) for _ in range(4)]
            points = [g.to_dict() for g in quad]
            inp = write_json(tmp_path / "quad.json", {"model": "nil", "points": points})
            rc, out, err = run_quiet(["crossratio", "--input", inp])
            assert (rc, err) == (0, "")
            assert 0.0 < json.loads(out)["crossratio"] == crossratio_nil(*quad) < math.inf


def test_project_round_trip(tmp_path):
    cfg = SpaceConfig(AlgebraKind.H, 2)
    rng = np.random.default_rng(4)
    g = random_point(cfg, rng)
    inp = write_json(tmp_path / "fwd.json", {"points": [g.to_dict()]})
    rc, out, _ = run_quiet(["project", "--input", inp])
    assert rc == 0
    ball_pt = json.loads(out)["points"][0]
    assert BallPoint.from_dict(ball_pt).isclose(stereo(g), tol=1e-12)
    inp2 = write_json(tmp_path / "back.json", {"points": [ball_pt], "inverse": True})
    rc, out, _ = run_quiet(["project", "--input", inp2])
    assert rc == 0
    back = NilPoint.from_dict(json.loads(out)["points"][0])
    assert back.isclose(g, tol=1e-9)


def test_act_matches_library(tmp_path):
    cfg = SpaceConfig(AlgebraKind.C, 2)
    rng = np.random.default_rng(5)
    iso = random_normal_isometry(cfg, rng)
    g = random_point(cfg, rng)
    inp = write_json(
        tmp_path / "act.json",
        {"isometry": iso.to_dict(), "model": "nil", "points": [g.to_dict()]},
    )
    rc, out, _ = run_quiet(["act", "--input", inp])
    assert rc == 0
    from rank1kit.isometry import act_nil

    moved = NilPoint.from_dict(json.loads(out)["points"][0])
    assert moved.isclose(act_nil(iso, g), tol=1e-12)


@pytest.mark.parametrize("kind,m", [(AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2), (AlgebraKind.O, 2)])
def test_project_and_act_at_huge_scales(tmp_path, kind, m):
    # from scale 1e78 on, |d|^2 in the chart and the action overflows;
    # the image is still a finite point on the sphere, and the action
    # still scales |k| by e^-s and |c| by e^-2s
    from rank1kit.isometry import act_nil

    cfg = SpaceConfig(kind, m)
    rng = np.random.default_rng(14)
    pts = [random_point(cfg, rng, scale=scale) for scale in (1e78, 1e100)]
    iso = random_normal_isometry(cfg, rng)
    inp = write_json(tmp_path / "project.json", {"points": [g.to_dict() for g in pts]})
    rc, out, err = run_quiet(["project", "--input", inp])
    assert (rc, err) == (0, "")
    for p in json.loads(out)["points"]:
        x = BallPoint.from_dict(p)
        assert abs(x.norm_sq() - 1.0) <= 1e-12 and np.any(x.coeffs[:-1] != 0.0)
    inp = write_json(tmp_path / "act.json",
                     {"isometry": iso.to_dict(), "model": "nil", "points": [g.to_dict() for g in pts]})
    rc, out, err = run_quiet(["act", "--input", inp])
    assert (rc, err) == (0, "")
    for p, g in zip(json.loads(out)["points"], pts):
        moved = NilPoint.from_dict(p)
        assert np.array_equal(moved.coeffs, act_nil(iso, g).coeffs)
        k, k_moved = np.linalg.norm(g.coeffs[1:]), np.linalg.norm(moved.coeffs[1:])
        c, c_moved = np.linalg.norm(g.coeffs[0]), np.linalg.norm(moved.coeffs[0])
        assert abs(k_moved - math.exp(-iso.s) * k) <= 1e-12 * k_moved
        assert abs(c_moved - math.exp(-2.0 * iso.s) * c) <= 1e-12 * c_moved


def test_points_whose_squared_norm_overflows_exit_2(tmp_path):
    # |k|^2 = inf has no chart image and no action: the error names the
    # point, and numpy emits no warning on the way
    point = {"config": {"kind": "C", "m": 2}, "center": [0.0, 1.0], "horizontal": [[1e160, 1e160]]}
    fine = {"config": {"kind": "C", "m": 2}, "center": [0.0, 1.0], "horizontal": [[1.0, 0.5]]}
    iso = NormalIsometry.dilation(SpaceConfig(AlgebraKind.C, 2), 0.5)
    jobs = [("project", {"points": [fine, point]}),
            ("act", {"isometry": iso.to_dict(), "model": "nil", "points": [fine, point]})]
    for command, payload in jobs:
        inp = write_json(tmp_path / f"{command}.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run_quiet([command, "--input", inp])
        assert caught == []
        assert (rc, out) == (2, "")
        assert "non-finite" in err and "'points[1]'" in err


def test_jacobian_ranks(tmp_path):
    rep = random_schottky_pair(np.random.default_rng(6))
    gens = rep.to_list()
    inp = write_json(tmp_path / "jac.json", {"generators": gens, "target": "trace"})
    rc, out, _ = run_quiet(["jacobian", "--input", inp])
    assert rc == 0
    data = json.loads(out)
    # six default words, six complex parameters, three conjugation directions
    assert data["rank"] == 3
    assert len(data["words"]) == 6 and len(data["singular_values"]) == 6
    inp2 = write_json(tmp_path / "jacl.json", {"generators": gens, "target": "length"})
    rc, out, _ = run_quiet(["jacobian", "--input", inp2])
    assert rc == 0
    assert json.loads(out)["rank"] == 6


def test_jacobian_validation(tmp_path):
    rep = random_schottky_pair(np.random.default_rng(7))
    gens = rep.to_list()
    inp = write_json(tmp_path / "bad.json", {"generators": gens, "words": ["1 0"]})
    rc, _, err = run_quiet(["jacobian", "--input", inp])
    assert rc == 1 and "words[0]" in err
    inp2 = write_json(tmp_path / "bad2.json", {"generators": gens, "target": "nope"})
    rc, _, err = run_quiet(["jacobian", "--input", inp2])
    assert rc == 1 and "target" in err
    # the length Jacobian has no finite-difference path
    outp = tmp_path / "out.json"
    for method, code in (("fd", 1), ("analytic", 0)):
        inp3 = write_json(tmp_path / "len.json", {"generators": gens, "target": "length", "method": method})
        rc, _, err = run_quiet(["jacobian", "--input", inp3, "--output", str(outp)])
        assert rc == code and ("'method'" in err) == (code == 1) and outp.exists() == (code == 0)


def test_jacobian_of_an_overflowing_word_exits_2(tmp_path):
    # a product past the float range is a numeric failure, not a malformed
    # input or an elliptic word; warnings are errors in this suite
    gens = [[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]]
    outp = tmp_path / "jac_out.json"
    for target in ("length", "trace"):
        inp = write_json(tmp_path / "jac.json",
                         {"generators": gens, "words": [[1] * 1030, [2], [1, 2]], "target": target})
        rc, out, err = run_quiet(["jacobian", "--input", inp, "--output", str(outp)])
        assert rc == 2 and "overflows" in err and not out
        assert not outp.exists()


def test_reconstruct_from_generators(tmp_path):
    rep = random_schottky_pair(np.random.default_rng(8))
    gens = rep.to_list()
    inp = write_json(tmp_path / "rec.json", {"generators": gens})
    outp = str(tmp_path / "rec_out.json")
    rc, _, _ = run_quiet(["reconstruct", "--input", inp, "--output", outp])
    assert rc == 0
    data = json.loads(Path(outp).read_text())
    assert data["rms"] <= 1e-6
    assert data["conjugacy_distance"] <= 1e-4
    # the printed generators load back into the library as printed
    assert SL2Rep.from_list(data["generators"], "generators").to_list() == data["generators"]
    assert set(data["parameters"]) == {
        "length_a", "angle_a", "length_b", "angle_b", "second_fixed_point_b",
    }


def test_reconstruct_from_csv_table(tmp_path):
    from rank1kit.spectrum import LengthOracle, default_budget_words

    rep = random_schottky_pair(np.random.default_rng(9))
    oracle = LengthOracle(rep=rep)
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("word,length\n")
        for w in default_budget_words(2):
            fh.write("%s,%r\n" % (" ".join(str(l) for l in w), oracle(w)))
    rc, out, _ = run_quiet(["reconstruct", "--input", str(path)])
    assert rc == 0
    data = json.loads(out)
    assert data["rms"] <= 1e-6
    assert "conjugacy_distance" not in data  # no reference provided
    assert "diagnostics" not in data  # the solver's own record stays in the library


@pytest.mark.parametrize("words,rc", [("0", 1), ("-3", 1), ("11", 1), ("12", 0)])
def test_reconstruct_words_below_the_minimum_exit_1(tmp_path, words, rc):
    inp = write_json(tmp_path / "gens.json",
                     {"generators": [[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]]})
    outp = str(tmp_path / "out.json")
    got, _, err = run_quiet(["reconstruct", "--input", inp, "--words", words, "--output", outp])
    assert got == rc
    if rc:
        assert "field 'words'" in err and not os.path.exists(outp)
    else:
        with open(outp) as fh:
            assert len(json.load(fh)["words"]) == 12


def test_reconstruct_nonconvergence_exit_code(tmp_path):
    from rank1kit.spectrum import default_budget_words

    rng = np.random.default_rng(10)
    path = tmp_path / "garbled.csv"
    with open(path, "w") as fh:
        fh.write("word,length\n")
        for w in default_budget_words(2)[:12]:
            fh.write("%s,%r\n" % (" ".join(str(l) for l in w), float(rng.uniform(0.5, 6.0))))
    outp = str(tmp_path / "never.json")
    rc, _, err = run_quiet(["reconstruct", "--input", str(path), "--output", outp])
    assert rc == 2
    assert "did not converge" in err
    assert not os.path.exists(outp)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_non_finite_lengths(tmp_path, bad):
    from rank1kit.spectrum import default_budget_words

    words = [" ".join(str(l) for l in w) for w in default_budget_words(2)[:12]]
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("word,length\n")
        for i, w in enumerate(words):
            fh.write("%s,%s\n" % (w, bad if i == 4 else "1.5"))
    # json.dump writes NaN and Infinity literals, which json.load reads back
    table = {w: float(bad) if i == 4 else 1.5 for i, w in enumerate(words)}
    inp = write_json(tmp_path / "table.json", {"table": table})
    for source in (str(path), inp):
        outp = str(tmp_path / "never.json")
        rc, _, err = run_quiet(["reconstruct", "--input", source, "--output", outp])
        assert rc == 1 and "finite" in err
        assert not os.path.exists(outp)


# JSON true and false load as Python bools, which are ints
@pytest.mark.parametrize("command,payload,field", [
    ("reconstruct", {"table": {"1": True, "2": 1.5, "1 2": 2.5}}, "1"),
    ("lemma2", {"trace": True}, "trace"),
    ("lemma2", {"trace": [2.5, False]}, "trace"),
    ("reconstruct", {"generators": [[[True, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 1.0]]]},
     "generators[0][0][0]"),
    ("reconstruct", {"generators": [[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]],
                     "noise": True}, "noise"),
    ("reconstruct", {"generators": [[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]],
                     "noise": "nan"}, "noise"),
])
def test_non_numbers_are_rejected(tmp_path, command, payload, field):
    inp = write_json(tmp_path / "in.json", payload)
    rc, out, err = run_quiet([command, "--input", inp])
    assert rc == 1 and out == ""
    assert repr(field) in err and "must be a" in err and "number" in err


_C2 = {"kind": "C", "m": 2}
_NIL = {"config": _C2, "infinity": False, "center": [0.0, 0.3], "horizontal": [[0.5, -0.2]]}
_ISO = {"config": {"kind": "R", "m": 2}, "M": [[[1.0]]], "nu": [1.0], "s": 0.5}


def _with(base, **fields):
    return dict(base, **fields)


# malformed points and isometries; each exits 1 and names the field
@pytest.mark.parametrize("command,payload,field", [
    ("project", {"points": [_with(_NIL, horizontal=[[True, 0.0]])]}, "points[0]"),
    ("project", {"points": [_with(_NIL, center=[0.0, "1"])]}, "points[0]"),
    ("project", {"points": [_NIL, _with(_NIL, horizontal=[[math.nan, 0.0]])]}, "points[1]"),
    ("project", {"points": [_with(_NIL, infinity="no")]}, "points[0]"),
    ("project", {"points": [_with(_NIL, config={"kind": "C", "m": 2.7})]}, "points[0]"),
    ("project", {"points": [{"config": _C2, "w1": [[3.0, 0.0]], "w2": [0.2, 0.0]}],
                 "inverse": True}, "points[0]"),
    ("act", {"isometry": _with(_ISO, s=True), "points": [_NIL]}, "isometry"),
    ("act", {"isometry": _with(_ISO, nu=[True]), "points": [_NIL]}, "isometry"),
    ("crossratio", {"model": "nil", "points": [1, 2, 3, 4]}, "points[0]"),
], ids=["bool", "string", "nan", "infinity-flag", "fractional-m", "off-sphere",
        "bool-s", "bool-nu", "bare-numbers"])
def test_malformed_geometry_input_exits_1(tmp_path, command, payload, field):
    inp = write_json(tmp_path / "in.json", payload)
    rc, out, err = run_quiet([command, "--input", inp])
    assert rc == 1 and out == ""
    assert repr(field) in err


_PAIR = '[[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]]]'
_NAN_PAIR = '[[[2.0, 0.0], [NaN, 0.5]], [[2.0, 1.0], [1.0, 1.0]]]'


# input files as raw JSON text, so that NaN and Infinity literals reach the
# decoders; each run exits 1 before computing, naming the field
@pytest.mark.parametrize("argv,text,field", [
    (["lemma2"], '{"trace": NaN}', "trace"),
    (["vogt"], '{"x1": NaN, "x2": 2, "x3": 2, "y12": 2, "y13": 2, "y23": 2}', "x1"),
    (["vogt"], '{"x1": [1.0, Infinity], "x2": 2, "x3": 2, "y12": 2, "y13": 2, "y23": 2}', "x1"),
    (["vogt"], '["x1"]', "input"),
    (["vogt"], '"x1 x2"', "input"),
    (["crossratio"], '{"a": [[Infinity, 0.0], [0.0, 0.5]], "b": [[2.0, 1.0], [1.0, 1.0]]}', "a[0][0]"),
    (["reconstruct"], '{"generators": %s}' % _NAN_PAIR, "generators[0][1][0]"),
    (["jacobian"], '{"generators": %s}' % _NAN_PAIR, "generators[0][1][0]"),
    (["project"], '{"points": [%s], "inverse": "no"}' % json.dumps(_NIL), "inverse"),
    (["jacobian"], '{"generators": %s, "words": 5}' % _PAIR, "words"),
    (["jacobian"], '{"generators": %s, "words": [[true, 2], [1]]}' % _PAIR, "words[0]"),
    (["jacobian"], '{"generators": %s, "words": [[1.7], [2]]}' % _PAIR, "words[0]"),
    (["reconstruct"], '{"table": [1, 2]}', "table"),
    (["jacobian", "--tol", "nan"], '{"generators": %s}' % _PAIR, "tol"),
], ids=["lemma2-nan", "vogt-nan", "vogt-infinity", "vogt-list", "vogt-string", "crossratio-infinity",
        "reconstruct-nan", "jacobian-nan", "project-inverse-string", "jacobian-words-number",
        "jacobian-bool-letter", "jacobian-fractional-letter", "reconstruct-table-list", "tol-nan"])
def test_malformed_input_exits_1_naming_the_field(tmp_path, argv, text, field):
    inp = tmp_path / "in.json"
    inp.write_text(text)
    outp = tmp_path / "out.json"
    rc, out, err = run_quiet(argv + ["--input", str(inp), "--output", str(outp)])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: field {field!r}")
    assert not outp.exists()


_G3 = '[[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]]]'
_ONE_POINT = json.dumps({"model": "nil", "points": [{"config": _C2, "infinity": True}]})


# the remaining validation exits, each with its whole stderr line; a
# message that quotes a decoder's own words is matched up to them
@pytest.mark.parametrize("argv,text,message", [
    (["lemma1", "--n", "0"], None, "field 'n' must be at least 1"),
    (["jacobian"], '{"generators": %s}' % _G3, "field 'words' is missing (required for arity 3)"),
    (["reconstruct"], '{"generators": %s, "noise": -1}' % _PAIR,
     "field 'noise' must be a finite number >= 0"),
    (["reconstruct"], '{"reference": %s}' % _PAIR, "field 'table' or 'generators' is missing"),
    (["reconstruct"], '{"generators": %s}' % _G3, "field 'generators' must list 2 matrices"),
    (["vogt"], '{"x1": ', "field 'input' is not valid JSON: ..."),
    (["vogt"], b'{"x1": "\xff\xfe"}', "field 'input' cannot be read: ..."),
    (["crossratio"], _ONE_POINT, "field 'points' must list 4 points"),
], ids=["lemma1-n", "jacobian-arity-3", "reconstruct-noise", "reconstruct-neither",
        "reconstruct-arity-3", "vogt-json", "vogt-bytes", "crossratio-one-point"])
def test_validation_exits_1_with_its_message(tmp_path, argv, text, message):
    if text is not None:
        inp = tmp_path / "in.json"
        (inp.write_bytes if isinstance(text, bytes) else inp.write_text)(text)
        argv = argv + ["--input", str(inp)]
    outp = tmp_path / "out.json"
    rc, out, err = run_quiet(argv + ["--output", str(outp)])
    assert rc == 1 and out == ""
    if message.endswith(": ..."):
        assert err.startswith("error: " + message[:-3]) and err.count("\n") == 1
    else:
        assert err == f"error: {message}\n"
    assert not outp.exists()


@pytest.mark.parametrize("name,text,field,first", [
    ("in.csv", "word,length\n1,1.3862943611198906\n2,1.5\n1,5.0\n", "row 4", "row 2"),
    ("in.json", '{"table": {"1": 1.3862943611198906, "2": 1.5, " 1": 5.0}}', "table[' 1']", "table['1']"),
], ids=["csv", "json"])
def test_repeated_table_word_exits_1_naming_the_later_entry(tmp_path, name, text, field, first):
    inp = tmp_path / name
    inp.write_text(text)
    rc, out, err = run_quiet(["reconstruct", "--input", str(inp)])
    assert rc == 1 and out == ""
    assert err == f"error: field {field!r} repeats the word of field {first!r}\n"


_WORD_ERROR = "must be a word: a list or string of nonzero integer letters of absolute value at most 2"


@pytest.mark.parametrize("text,message", [
    ("word,length\n1 3,1.5\n", f"field 'row 2' {_WORD_ERROR}"),
    ("word,length\n1 0,1.5\n", f"field 'row 2' {_WORD_ERROR}"),
    ("word,length\n,1.5\n", f"field 'row 2' {_WORD_ERROR}"),
    ("word,length\n1.0,1.5\n", f"field 'row 2' {_WORD_ERROR}"),
    ("word,length\n+1 02,1.5\n1 +3,2\n", f"field 'row 3' {_WORD_ERROR}"),
    ("word,length\n1,abc\n", "field 'row 2' must be a number"),
    ("word,length\n1, 1.5 \n2,1e999\n", "field 'row 3' must be a finite number"),
    # the column count of every row is checked before any word
    ("word,length\n1 3,1.5\n2,1.5,9\n", "field 'row 3' must hold two columns, word and length"),
    ("word,length\n\n", "field 'table' has no entries"),
], ids=["letter-3", "letter-0", "empty-word", "fractional-letter", "spelled-letter-3", "text-length",
        "overflowing-length", "columns-before-words", "no-rows"])
def test_csv_table_errors_name_the_row(tmp_path, text, message):
    inp = tmp_path / "in.csv"
    inp.write_text(text)
    rc, out, err = run_quiet(["reconstruct", "--input", str(inp)])
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_csv_table_reads_other_spellings_of_letters(tmp_path):
    plain, spelled = tmp_path / "plain.csv", tmp_path / "spelled.csv"
    plain.write_text("word,length\n1 -2,1.5\n2 1,2.5\n")
    spelled.write_text("Word ,length\n +1 -02 , 1.5 \n2  01,2.5\n")
    tables = [cli._csv_table(cli.JobConfig("reconstruct", input=str(p))) for p in (plain, spelled)]
    assert tables[0] == tables[1] == {(1, -2): 1.5, (2, 1): 2.5}
    assert all(type(l) is int for word in tables[1] for l in word)


@pytest.mark.parametrize("name", ["gens.json", "table.csv"])
def test_input_with_a_byte_order_mark_reads_as_without_it(tmp_path, name):
    # spreadsheets export UTF-8 CSV with a byte-order mark
    if name.endswith(".json"):
        text = '{"generators": %s}' % _PAIR
    else:
        rep = random_schottky_pair(np.random.default_rng(11))
        words = spectrum.default_budget_words(2, 5, 16)
        lengths = spectrum.LengthOracle(rep=rep).lengths(words)
        text = "word,length\n" + "".join(
            "%s,%r\n" % (" ".join(map(str, w)), v) for w, v in zip(words, lengths))
    plain, marked = tmp_path / ("plain_" + name), tmp_path / ("marked_" + name)
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    runs = [run_quiet(["reconstruct", "--input", str(p)]) for p in (plain, marked)]
    assert runs[0][0] == 0 and runs[0][1] and runs[1] == runs[0]


def test_failed_write_keeps_existing_output(tmp_path, monkeypatch):
    inp = write_json(tmp_path / "v.json", {k: 2 for k in ("x1", "x2", "x3", "y12", "y13")})
    outp = tmp_path / "result.json"
    outp.write_bytes(b"previous result\n")
    # a run that fails before writing
    rc, _, _ = run_quiet(["vogt", "--input", inp, "--output", str(outp)])
    assert rc == 1
    assert outp.read_bytes() == b"previous result\n"
    # a run that fails while writing: a lone surrogate cannot be encoded
    monkeypatch.setitem(cli._RUNNERS, "vogt", lambda cfg: ("{\"P\": \"\ud800\"}\n", 0))
    with pytest.raises(UnicodeEncodeError):
        run_quiet(["vogt", "--input", inp, "--output", str(outp)])
    assert outp.read_bytes() == b"previous result\n"
    assert sorted(os.listdir(tmp_path)) == ["result.json", "v.json"]


def test_missing_input_file():
    rc, _, err = run_quiet(["vogt", "--input", "/nonexistent/v.json"])
    assert rc == 1 and "does not exist" in err


def test_outputs_are_byte_identical(tmp_path):
    inp = write_json(tmp_path / "v.json", {k: 2 for k in ("x1", "x2", "x3", "y12", "y13", "y23")})
    p1, p2 = str(tmp_path / "o1.json"), str(tmp_path / "o2.json")
    for p in (p1, p2):
        rc, _, _ = run_quiet(["vogt", "--input", inp, "--output", p])
        assert rc == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_console_script_subprocess(tmp_path):
    inp = write_json(tmp_path / "v.json", {k: 2 for k in ("x1", "x2", "x3", "y12", "y13", "y23")})
    proc = subprocess.run(
        [sys.executable, "-m", "rank1kit.cli", "vogt", "--input", inp],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["P"] == 4.0
    proc = subprocess.run(
        [sys.executable, "-m", "rank1kit.cli", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


GOLDEN = Path(__file__).parent / "golden"


def test_outputs_are_byte_identical_to_the_goldens(tmp_path):
    # a change that moves a last bit of these outputs regenerates the
    # goldens and says so; see tests/golden
    jobs = {
        "lemma1.csv": ["lemma1", "--seed", "3", "--n", "400"],
        "reconstruct.json": ["reconstruct", "--input", str(GOLDEN / "gens.json")],
        "verify.json": ["verify", "--seed", "0"],
    }
    for name, argv in jobs.items():
        rc, _, err = run_quiet(argv + ["--output", str(tmp_path / name)])
        assert rc == 0, err
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("job,fragment", [
    pytest.param(cli.JobConfig("vogt"), "error: field 'input' is missing", id="vogt-without-input"),
    pytest.param(cli.JobConfig("nope"), "error: unknown command 'nope'", id="unknown-command"),
])
def test_cli_validation_raises(job, fragment):
    # a CommandError exits 1 with its message on stderr and nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(job)
    assert (rc, out.getvalue()) == (1, "") and fragment in err.getvalue()
