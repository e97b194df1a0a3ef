"""Batch front end: runs the verification suites and experiments,
emits JSON and CSV tables.

Exit codes: 0 success, 1 validation failure (bad flags, malformed or
missing input fields), 2 numeric non-convergence.  Output files are
written in one shot after the computation finishes, so a failing run
never leaves a partial file, and a fixed seed plus config yields
byte-identical bytes.

Every command reads its input through one layer: --input holds one JSON
object (or, for reconstruct, a CSV length table), and each kind of field
has one decoder (complex numbers, words, length-table entries, points,
SL2 matrices through SL2.from_list, choices and flags).  A malformed
field exits 1 naming it before any computation starts.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from .algebra import decode_coeffs, decode_complex, encode_complex
from .nilboundary import NilPoint, crossratio_nil
from .ballmodel import BallPoint, crossratio_ball, stereo, stereo_inv
from .isometry import NormalIsometry, act_ball, act_nil
from .sl2traces import SL2, SL2Rep
from . import sl2traces
from . import spectrum


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
    return JobConfig(**vars(_build_parser().parse_args(argv)))


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
# the input layer: one decoder per kind of field


def _read(cfg):
    """The text of the --input file."""
    if cfg.input is None:
        raise CommandError("field 'input' is missing")
    try:
        with open(cfg.input, newline="") as fh:
            return fh.read()
    except (OSError, ValueError) as e:  # unreadable, or not text
        raise CommandError(f"field 'input' cannot be read: {e}") from None


def _input(cfg):
    """The JSON object in the --input file."""
    try:
        data = json.loads(_read(cfg))
    except ValueError as e:
        raise CommandError(f"field 'input' is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise CommandError("field 'input' must hold a JSON object")
    return data


def _field(data, name):
    if name not in data:
        raise CommandError(f"field {name!r} is missing")
    return data[name]


def _real(value, field):
    """A finite real number; JSON booleans are not numbers."""
    return float(decode_coeffs(value, (), field))


def _word(value, field, arity):
    """A word from a list of letters or a space-separated string of them,
    the letters as check_word takes them: nonzero integers, not booleans."""
    try:
        letters = [int(s) for s in value.split()] if isinstance(value, str) else value
        if not isinstance(letters, list) or not letters:
            raise ValueError
        return sl2traces.check_word(letters, arity)
    except ValueError:
        raise CommandError(f"field {field!r} must be a word: a list or string of "
                           f"nonzero integer letters of absolute value at most {arity}") from None


def _table(entries):
    """A length table from (word, length, field) entries of a CSV or JSON
    table; the words are in two generators and the lengths finite."""
    table = {tuple(_word(word, field, 2)): _real(length, field) for word, length, field in entries}
    if not table:
        raise CommandError("field 'table' has no entries")
    return table


def _csv_table(cfg):
    """The length table in a CSV --input file: rows word,length after an
    optional header."""
    try:
        rows = list(csv.reader(io.StringIO(_read(cfg), newline="")))
    except csv.Error as e:
        raise CommandError(f"field 'input' is not a CSV table: {e}") from None
    entries = []
    for i, row in enumerate(rows, start=1):
        if not row or (i == 1 and row[0].strip().lower() == "word"):
            continue
        if len(row) != 2:
            raise CommandError(f"field 'row {i}' must hold two columns, word and length")
        word, length = row
        with contextlib.suppress(ValueError):
            length = float(length)  # text that is no number stays text, which _table rejects
        entries.append((word, length, f"row {i}"))
    return _table(entries)


def _choice(data, name, choices):
    """data[name], or choices[0] when absent: it must equal one of choices
    and have its type, so 1 is not true and "no" is not a boolean."""
    value = data.get(name, choices[0])
    if not any(type(value) is type(c) and value == c for c in choices):
        raise CommandError(f"field {name!r} must be one of {', '.join(map(json.dumps, choices))}")
    return value


def _points(data, fn, count):
    """fn of each entry of the list data['points'], which holds count
    entries (any nonzero number for None); an entry that fn rejects with
    ValueError or KeyError is named, as in 'points[2]'."""
    pts = _field(data, "points")
    if not isinstance(pts, list) or not pts or count not in (None, len(pts)):
        raise CommandError(f"field 'points' must list {count or 'one or more'} points")
    return [_decoded(fn, p, f"points[{i}]") for i, p in enumerate(pts)]


def _decoded(fn, value, field):
    """fn(value); a ValueError or KeyError it raises names field."""
    try:
        return fn(value)
    except (KeyError, ValueError) as e:
        raise CommandError(f"field {field!r}: {e}") from None


def _pair(data):
    return SL2.from_list(_field(data, "a"), "a"), SL2.from_list(_field(data, "b"), "b")


def _rep(data, name, arity):
    """The representation in field name, of the given arity unless it is None."""
    rep = SL2Rep.from_list(_field(data, name), name)
    if arity not in (None, rep.arity):
        raise CommandError(f"field {name!r} must list {arity} matrices")
    return rep


def _json_text(obj):
    # every non-finite number must already be "inf"; anything else is a
    # numeric failure, not output
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise ArithmeticError(f"non-finite number in the result: {e}") from None


def _word_text(words):
    return [" ".join(str(l) for l in w) for w in words]


# ---------------------------------------------------------------------------
# commands


def _cmd_crossratio(cfg):
    data = _input(cfg)
    if "a" in data or "b" in data:
        A, B = _pair(data)
        value = spectrum.crossratio_of_pair(A, B)
        fa = spectrum.fixed_points(A)
        fb = spectrum.fixed_points(B)
        out = {
            "crossratio": encode_complex(value),
            "fixed_points": {
                "a": {"attracting": encode_complex(fa.attracting), "repelling": encode_complex(fa.repelling)},
                "b": {"attracting": encode_complex(fb.attracting), "repelling": encode_complex(fb.repelling)},
            },
        }
        return _json_text(out), 0
    model = _choice(data, "model", ("nil", "ball"))
    decode, crossratio = {"nil": (NilPoint.from_dict, crossratio_nil),
                          "ball": (BallPoint.from_dict, crossratio_ball)}[model]
    return _json_text({"crossratio": encode_complex(crossratio(*_points(data, decode, 4)))}), 0


def _cmd_project(cfg):
    data = _input(cfg)
    decode, project = ((BallPoint.from_dict, stereo_inv) if _choice(data, "inverse", (False, True))
                       else (NilPoint.from_dict, stereo))
    return _json_text({"points": _points(data, lambda p: project(decode(p)).to_dict(), None)}), 0


def _cmd_act(cfg):
    data = _input(cfg)
    iso = _decoded(NormalIsometry.from_dict, _field(data, "isometry"), "isometry")
    decode, act = {"nil": (NilPoint.from_dict, act_nil),
                   "ball": (BallPoint.from_dict, act_ball)}[_choice(data, "model", ("nil", "ball"))]
    return _json_text({"points": _points(data, lambda p: act(iso, decode(p)).to_dict(), None)}), 0


def _cmd_lemma1(cfg):
    if cfg.input is not None:
        A, B = _pair(_input(cfg))
    else:
        A, B = spectrum.random_schottky_pair(np.random.default_rng(cfg.seed)).generators
    n = cfg.n if cfg.n is not None else 24
    if n < 1:
        raise CommandError("field 'n' must be at least 1")
    oracle = spectrum.LengthOracle(rep=SL2Rep([A, B]))
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
    data = _input(cfg)
    if "matrix" in data:
        t = SL2.from_list(data["matrix"], "matrix").trace()
    else:
        t = decode_complex(_field(data, "trace"), "trace")
    g = sl2traces.length_gauge(t)
    length = sl2traces.gauge_to_length(g)
    return _json_text({"trace": encode_complex(t), "gauge": encode_complex(g),
                       "length": encode_complex(length)}), 0


def _cmd_vogt(cfg):
    data = _input(cfg)
    vals = [decode_complex(_field(data, k), k) for k in ("x1", "x2", "x3", "y12", "y13", "y23")]
    P, Q, delta, roots = sl2traces.vogt(*vals)
    out = {
        "P": encode_complex(P),
        "Q": encode_complex(Q),
        "Delta": encode_complex(delta),
        "roots": [encode_complex(z) for z in roots],
    }
    return _json_text(out), 0


def _cmd_jacobian(cfg):
    data = _input(cfg)
    rep = _rep(data, "generators", None)
    if "words" in data:
        words = data["words"]
        if not isinstance(words, list) or not words:
            raise CommandError("field 'words' must be a nonempty list of words")
        words = [_word(w, f"words[{i}]", rep.arity) for i, w in enumerate(words)]
    elif rep.arity == 2:
        words = sl2traces.default_f2_words()
    else:
        raise CommandError(f"field 'words' is missing (required for arity {rep.arity})")
    target = _choice(data, "target", ("trace", "length"))
    method = _choice(data, "method", ("analytic", "fd"))
    rtol = cfg.tol if cfg.tol is not None else sl2traces.RANK_RTOL
    if target == "trace":
        matrix, _ = sl2traces.trace_jacobian(rep, words, method=method)
        entries = [[encode_complex(v) for v in row] for row in matrix]
    else:
        matrix, _ = sl2traces.length_jacobian(rep, words)
        entries = [[float(v) for v in row] for row in matrix]
    report = sl2traces.rank_report(matrix, rtol=rtol)
    out = {
        "matrix": entries,
        "words": _word_text(words),
        "rank": report["rank"],
        "singular_values": [float(s) for s in report["singular_values"]],
        "tolerance": report["tolerance"],
    }
    return _json_text(out), 0


def _cmd_reconstruct(cfg):
    reference = None
    if cfg.input is not None and cfg.input.endswith(".csv"):
        oracle = spectrum.LengthOracle(table=_csv_table(cfg))
    else:
        data = _input(cfg)
        noise = _real(data.get("noise", 0.0), "noise")
        if noise < 0:
            raise CommandError("field 'noise' must be a finite number >= 0")
        if "table" in data:
            table = data["table"]
            if not isinstance(table, dict):
                raise CommandError("field 'table' must be an object from words to lengths")
            table = _table((k, v, f"table[{k!r}]") for k, v in table.items())
            oracle = spectrum.LengthOracle(table=table, noise=noise, seed=cfg.seed)
        elif "generators" in data:
            reference = _rep(data, "generators", 2)
            oracle = spectrum.LengthOracle(rep=reference, noise=noise, seed=cfg.seed)
        else:
            raise CommandError("field 'table' or 'generators' is missing")
        if "reference" in data:
            reference = _rep(data, "reference", 2)
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
        "generators": report["rep"].to_list(),
        "words": _word_text(report["words"]),
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

COMMANDS = tuple(_RUNNERS)


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
        if cfg.input is not None and not os.path.isfile(cfg.input):
            raise CommandError(f"field 'input': file does not exist: {cfg.input}")
        if cfg.tol is not None and not 0.0 <= cfg.tol < math.inf:
            raise CommandError("field 'tol' must be a finite number >= 0")
        text, rc = _RUNNERS[cfg.command](cfg)
    except (CommandError, KeyError, ValueError) as e:
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
