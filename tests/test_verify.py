"""Checks for the self-check runner: module filtering, tallying,
report formatting, and the verify subcommand end to end."""

import contextlib
import io
import json

import numpy as np

from rank1kit import cli, nilboundary, verify


def test_run_all_module_filter():
    results = verify.run_all(seed=0, modules=["cli"])
    assert [name for name, _ in results] == ["cli"]
    for _, checks in results:
        assert checks
        for c in checks:
            assert set(c) == {"name", "status", "detail"}
            assert c["status"] in ("pass", "fail", "info")


def test_run_all_preserves_suite_order():
    results = verify.run_all(seed=0, modules=["cli", "algebra"])
    assert [name for name, _ in results] == ["algebra", "cli"]


def test_summarize_counts():
    results = verify.run_all(seed=0, modules=["algebra", "cli"])
    counts = verify.summarize(results)
    tally = {"pass": 0, "fail": 0, "info": 0}
    for _, checks in results:
        for c in checks:
            tally[c["status"]] += 1
    assert counts == tally
    assert counts["fail"] == 0


def test_format_report_lists_every_check():
    results = verify.run_all(seed=0, modules=["ballmodel"])
    text = verify.format_report(results)
    for _, checks in results:
        for c in checks:
            assert c["name"] in text
            assert c["status"] in text


def test_nan_residual_fails_its_check(monkeypatch):
    # a NaN must fail the check it reaches, not vanish in a running maximum
    dist = nilboundary.dist_coeffs

    def nan_in_first_row(kind, g, h):
        out = np.array(dist(kind, g, h), dtype=float)
        out.reshape(-1)[0] = np.nan
        return out

    monkeypatch.setattr(nilboundary, "dist_coeffs", nan_in_first_row)
    [(_, checks)] = verify.run_all(seed=0, modules=["nilboundary"])
    status = {c["name"]: c["status"] for c in checks}
    assert status["distance symmetry"] == "fail"
    assert status["group product associativity (all kinds)"] == "pass"


def test_verify_command_full_suite(tmp_path):
    # the one place the whole invariant suite runs under pytest:
    # a fail anywhere in the package surfaces here as rc 1
    out = tmp_path / "report.json"
    cfg = cli.parse(["verify", "--seed", "0", "--output", str(out)])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(cfg)
    assert rc == 0
    shown = buf.getvalue()
    assert "pass" in shown and "summary" not in shown
    payload = json.loads(out.read_text())
    assert payload["seed"] == 0
    assert set(payload["modules"]) == {
        "algebra",
        "nilboundary",
        "ballmodel",
        "isometry",
        "sl2traces",
        "spectrum",
        "cli",
    }
    assert payload["summary"]["fail"] == 0
    # the two measured deviations are reported, not hidden
    assert payload["summary"]["info"] == 2
