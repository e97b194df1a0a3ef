"""Batch front end: runs the verification suites and experiments,
emits JSON and CSV tables.

Exit codes: 0 success, 1 validation failure (bad flags, malformed or
missing input fields), 2 numeric non-convergence.  Output files are
written in one shot after the computation finishes, so a failing run
never leaves a partial file, and a fixed seed plus config yields
byte-identical bytes.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from .nilboundary import NilPoint, crossratio_nil
from .ballmodel import BallPoint, crossratio_ball
from .isometry import NormalIsometry, act_ball, act_nil
from . import sl2traces
from . import spectrum

COMMANDS = (
    "crossratio",
    "project",
    "act",
    "lemma1",
    "lemma2",
    "vogt",
    "jacobian",
    "reconstruct",
    "verify",
)


class CommandError(Exception):
    """Validation failure; the message names the offending field."""


@dataclasses.dataclass(frozen=True)
class JobConfig:
    command: str
    input: str | None = None
    output: str | None = None
    seed: int = 0
    tol: float | None = None
    n: int | None = None
    words: int | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: usage error: {message}\n")


def _build_parser():
    p = _Parser(prog="rank1kit", description="batch experiments and verification")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", help="JSON (or CSV length table) input path")
    p.add_argument("--output", help="where to write the JSON/CSV result")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--n", type=int, default=None, help="sequence cutoff")
    p.add_argument("--words", type=int, default=None, help="word budget override")
    return p


def parse(argv):
    args = _build_parser().parse_args(argv)
    return JobConfig(
        command=args.command,
        input=args.input,
        output=args.output,
        seed=args.seed,
        tol=args.tol,
        n=args.n,
        words=args.words,
    )


def render(cfg):
    """Flag list that parses back to cfg."""
    argv = [cfg.command, "--seed", str(cfg.seed)]
    if cfg.input is not None:
        argv += ["--input", cfg.input]
    if cfg.output is not None:
        argv += ["--output", cfg.output]
    if cfg.tol is not None:
        argv += ["--tol", repr(cfg.tol)]
    if cfg.n is not None:
        argv += ["--n", str(cfg.n)]
    if cfg.words is not None:
        argv += ["--words", str(cfg.words)]
    return argv


# ---------------------------------------------------------------------------
# value plumbing


def _is_number(value):
    # JSON true and false arrive as bool, which is an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num_in(value, field):
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise CommandError(f"field {field!r} must be a number or an [re, im] pair")


def _num_out(z):
    z = complex(z)
    if z.real in (math.inf, -math.inf) or z.imag in (math.inf, -math.inf):
        return "inf"
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _field(data, name):
    if name not in data:
        raise CommandError(f"missing field {name!r}")
    return data[name]


def _sl2_in(value, field):
    if not (isinstance(value, list) and len(value) == 2 and all(
            isinstance(row, list) and len(row) == 2 for row in value)):
        raise CommandError(f"field {field!r} must be a 2 x 2 matrix")
    mat = np.array(
        [[_num_in(value[i][j], f"{field}[{i}][{j}]") for j in range(2)] for i in range(2)]
    )
    try:
        return sl2traces.SL2(mat)
    except ValueError as e:
        raise CommandError(f"field {field!r}: {e}") from None


def _sl2_out(A):
    return [[_num_out(A.mat[i, j]) for j in range(2)] for i in range(2)]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise CommandError(f"input is not valid JSON: {e}") from None


def _json_text(obj):
    # every non-finite number must already be "inf"; anything else is a
    # numeric failure, not output
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise ArithmeticError(f"non-finite number in the result: {e}") from None


def _word_in(value, field):
    if isinstance(value, str):
        parts = value.split()
    elif isinstance(value, list):
        parts = value
    else:
        raise CommandError(f"field {field!r} must be a word (list of nonzero letters)")
    try:
        word = [int(v) for v in parts]
    except (TypeError, ValueError):
        raise CommandError(f"field {field!r} must contain integer letters") from None
    if any(l == 0 for l in word) or not word:
        raise CommandError(f"field {field!r} must contain nonzero letters")
    return word


def _read_length_table(path):
    table = {}
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if i == 0 and row[0].strip().lower() == "word":
                continue
            if len(row) != 2:
                raise CommandError(f"length table row {i + 1} needs two columns")
            word = tuple(_word_in(row[0], f"row {i + 1} word"))
            try:
                table[word] = float(row[1])
            except ValueError:
                raise CommandError(f"length table row {i + 1} has a bad length") from None
            if not math.isfinite(table[word]):
                raise CommandError(f"length table row {i + 1} has a non-finite length")
    if not table:
        raise CommandError("length table is empty")
    return table


# ---------------------------------------------------------------------------
# commands


def _cmd_crossratio(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    if "a" in data or "b" in data:
        A = _sl2_in(_field(data, "a"), "a")
        B = _sl2_in(_field(data, "b"), "b")
        value = spectrum.crossratio_of_pair(A, B)
        fa = spectrum.fixed_points(A)
        fb = spectrum.fixed_points(B)
        out = {
            "crossratio": _num_out(value),
            "fixed_points": {
                "a": {"attracting": _num_out(fa.attracting), "repelling": _num_out(fa.repelling)},
                "b": {"attracting": _num_out(fb.attracting), "repelling": _num_out(fb.repelling)},
            },
        }
        return _json_text(out), 0
    pts = _field(data, "points")
    if not isinstance(pts, list) or len(pts) != 4:
        raise CommandError("field 'points' must list exactly four points")
    model = data.get("model", "nil")
    if model not in ("nil", "ball"):
        raise CommandError("field 'model' must be 'nil' or 'ball'")
    decode, crossratio = {"nil": (NilPoint.from_dict, crossratio_nil),
                          "ball": (BallPoint.from_dict, crossratio_ball)}[model]
    points = []
    for i, p in enumerate(pts):
        try:
            points.append(decode(p))
        except ValueError as e:
            raise CommandError(f"field 'points[{i}]': {e}") from None
    return _json_text({"crossratio": _num_out(crossratio(*points))}), 0


def _cmd_project(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    pts = _field(data, "points")
    if not isinstance(pts, list) or not pts:
        raise CommandError("field 'points' must be a nonempty list")
    inverse = bool(data.get("inverse", False))
    out = []
    from .ballmodel import stereo, stereo_inv

    for i, p in enumerate(pts):
        try:
            if inverse:
                out.append(stereo_inv(BallPoint.from_dict(p)).to_dict())
            else:
                out.append(stereo(NilPoint.from_dict(p)).to_dict())
        except (KeyError, ValueError) as e:
            raise CommandError(f"field 'points[{i}]': {e}") from None
    return _json_text({"points": out}), 0


def _cmd_act(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    try:
        iso = NormalIsometry.from_dict(_field(data, "isometry"))
    except (KeyError, ValueError) as e:
        raise CommandError(f"field 'isometry': {e}") from None
    model = data.get("model", "nil")
    pts = _field(data, "points")
    if not isinstance(pts, list) or not pts:
        raise CommandError("field 'points' must be a nonempty list")
    out = []
    for i, p in enumerate(pts):
        try:
            if model == "nil":
                out.append(act_nil(iso, NilPoint.from_dict(p)).to_dict())
            elif model == "ball":
                out.append(act_ball(iso, BallPoint.from_dict(p)).to_dict())
            else:
                raise CommandError("field 'model' must be 'nil' or 'ball'")
        except CommandError:
            raise
        except (KeyError, ValueError) as e:
            raise CommandError(f"field 'points[{i}]': {e}") from None
    return _json_text({"points": out}), 0


def _lemma1_pair(cfg):
    if cfg.input is not None:
        data = _load_json(cfg.input)
        return _sl2_in(_field(data, "a"), "a"), _sl2_in(_field(data, "b"), "b")
    rep = spectrum.random_schottky_pair(np.random.default_rng(cfg.seed))
    return rep.generators


def _cmd_lemma1(cfg):
    A, B = _lemma1_pair(cfg)
    n = cfg.n if cfg.n is not None else 24
    if n < 1:
        raise CommandError("field 'n' must be at least 1")
    oracle = spectrum.LengthOracle(rep=sl2traces.SL2Rep([A, B]))
    seq = spectrum.lemma1_sequence(oracle, [1], [2], n)
    bad = next((i for i, v in enumerate(seq, start=1) if not math.isfinite(v)), None)
    if bad is not None:
        raise ArithmeticError(f"sequence term n = {bad} is not finite")
    ref = spectrum.crossratio_of_pair(A, B)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "sequence", "crossratio", "error"])
    for i, v in enumerate(seq, start=1):
        writer.writerow([i, repr(v), repr(ref), repr(abs(v - ref))])
    return buf.getvalue(), 0


def _cmd_lemma2(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    if "matrix" in data:
        t = _sl2_in(data["matrix"], "matrix").trace()
    else:
        t = _num_in(_field(data, "trace"), "trace")
    g = abs(t - 2.0) + abs(t + 2.0)
    try:
        length = sl2traces.gauge_to_length(g)
    except ValueError as e:
        raise CommandError(str(e)) from None
    return _json_text({"trace": _num_out(t), "gauge": _num_out(g), "length": _num_out(length)}), 0


def _cmd_vogt(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    vals = [_num_in(_field(data, k), k) for k in ("x1", "x2", "x3", "y12", "y13", "y23")]
    P, Q, delta, roots = sl2traces.vogt(*vals)
    out = {
        "P": _num_out(P),
        "Q": _num_out(Q),
        "Delta": _num_out(delta),
        "roots": [_num_out(z) for z in roots],
    }
    return _json_text(out), 0


def _cmd_jacobian(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    data = _load_json(cfg.input)
    gens = _field(data, "generators")
    if not isinstance(gens, list) or not gens:
        raise CommandError("field 'generators' must be a nonempty list")
    rep = sl2traces.SL2Rep([_sl2_in(g, f"generators[{i}]") for i, g in enumerate(gens)])
    if "words" in data:
        words = [_word_in(w, f"words[{i}]") for i, w in enumerate(_field(data, "words"))]
    elif rep.arity == 2:
        words = sl2traces.default_f2_words()
    else:
        raise CommandError(f"missing field 'words' (required for arity {rep.arity})")
    target = data.get("target", "trace")
    rtol = cfg.tol if cfg.tol is not None else sl2traces.RANK_RTOL
    if target == "trace":
        method = data.get("method", "analytic")
        if method not in ("analytic", "fd"):
            raise CommandError("field 'method' must be 'analytic' or 'fd'")
        matrix, _ = sl2traces.trace_jacobian(rep, words, method=method)
        entries = [[_num_out(v) for v in row] for row in matrix]
    elif target == "length":
        matrix, _ = sl2traces.length_jacobian(rep, words)
        entries = [[float(v) for v in row] for row in matrix]
    else:
        raise CommandError("field 'target' must be 'trace' or 'length'")
    report = sl2traces.rank_report(matrix, rtol=rtol)
    out = {
        "matrix": entries,
        "words": [" ".join(str(l) for l in w) for w in words],
        "rank": report["rank"],
        "singular_values": [float(s) for s in report["singular_values"]],
        "tolerance": report["tolerance"],
    }
    return _json_text(out), 0


def _cmd_reconstruct(cfg):
    if cfg.input is None:
        raise CommandError("missing field 'input'")
    reference = None
    if cfg.input.endswith(".csv"):
        oracle = spectrum.LengthOracle(table=_read_length_table(cfg.input))
    else:
        data = _load_json(cfg.input)
        noise = data.get("noise", 0.0)
        if not _is_number(noise) or not math.isfinite(noise) or noise < 0:
            raise CommandError("field 'noise' must be a finite number >= 0")
        if "table" in data:
            table = {}
            for key, val in _field(data, "table").items():
                word = tuple(_word_in(key, f"table key {key!r}"))
                if not _is_number(val) or not math.isfinite(val):
                    raise CommandError(f"table entry {key!r} must be a finite number")
                table[word] = float(val)
            oracle = spectrum.LengthOracle(table=table, noise=noise, seed=cfg.seed)
        elif "generators" in data:
            gens = data["generators"]
            if not isinstance(gens, list) or len(gens) != 2:
                raise CommandError("field 'generators' must list two matrices")
            rep = sl2traces.SL2Rep(
                [_sl2_in(g, f"generators[{i}]") for i, g in enumerate(gens)]
            )
            oracle = spectrum.LengthOracle(rep=rep, noise=noise, seed=cfg.seed)
            reference = rep
        else:
            raise CommandError("input must provide 'table' or 'generators'")
        if "reference" in data:
            refs = data["reference"]
            if not isinstance(refs, list) or len(refs) != 2:
                raise CommandError("field 'reference' must list two matrices")
            reference = sl2traces.SL2Rep(
                [_sl2_in(g, f"reference[{i}]") for i, g in enumerate(refs)]
            )
    budget = cfg.words if cfg.words is not None else 30
    report = spectrum.reconstruct_report(oracle, budget=budget)
    la, ta, lb, tb, re_p, im_p = report["parameters"]
    out = {
        "parameters": {
            "length_a": la,
            "angle_a": ta,
            "length_b": lb,
            "angle_b": tb,
            "second_fixed_point_b": [re_p, im_p],
        },
        "generators": [_sl2_out(g) for g in report["rep"].generators],
        "words": [" ".join(str(l) for l in w) for w in report["words"]],
        "residuals": report["residuals"],
        "rms": report["rms"],
        "restart_index": report["restart_index"],
        "holdout_errors": report["holdout_errors"],
    }
    if reference is not None:
        out["conjugacy_distance"] = spectrum.conjugacy_distance(reference, report["rep"])
    return _json_text(out), 0


def _cmd_verify(cfg):
    from . import verify as verify_mod

    results = verify_mod.run_all(cfg.seed)
    sys.stdout.write(verify_mod.format_report(results))
    counts = verify_mod.summarize(results)
    out = {
        "seed": cfg.seed,
        "modules": {name: checks for name, checks in results},
        "summary": counts,
    }
    return _json_text(out), 0 if counts["fail"] == 0 else 1


_RUNNERS = {
    "crossratio": _cmd_crossratio,
    "project": _cmd_project,
    "act": _cmd_act,
    "lemma1": _cmd_lemma1,
    "lemma2": _cmd_lemma2,
    "vogt": _cmd_vogt,
    "jacobian": _cmd_jacobian,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
}


def _write_output(path, text):
    """Write text to path through a temporary file in the same directory
    and os.replace, so a run that fails while writing leaves an existing
    file as it was."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, ".%s.%d.tmp" % (name, os.getpid()))
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def run(cfg):
    """Execute one job; returns the process exit code."""
    try:
        if cfg.command not in _RUNNERS:
            raise CommandError(f"unknown command {cfg.command!r}")
        if cfg.input is not None and not os.path.exists(cfg.input):
            raise CommandError(f"input file does not exist: {cfg.input}")
        text, rc = _RUNNERS[cfg.command](cfg)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg.output is not None:
        _write_output(cfg.output, text)
        if cfg.command != "verify":
            print(f"wrote {cfg.output}")
    elif cfg.command != "verify":
        sys.stdout.write(text)
    return rc


def main(argv=None):
    cfg = parse(argv if argv is not None else sys.argv[1:])
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
