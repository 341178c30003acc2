"""Tests for ``repro obs diff``.

Covers the manifest-diff semantics (component flattening, one-sided rows,
the rel+abs gating interplay) and the CLI exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.diff import diff_manifests, load_manifest, render_diff


def _manifest(counter=100.0, seconds=2.0, extra_metric=False):
    m = {
        "schema": "repro.obs/manifest/v2",
        "experiment": "e-test",
        "git_rev": "abc",
        "duration_s": 1.0,
        "peak_rss_bytes": 1000,
        "metrics": {
            "messages_sent": {
                "kind": "counter",
                "help": "",
                "samples": [{"labels": {"type": "lin"}, "value": counter}],
            },
            "route_hist": {
                "kind": "histogram",
                "help": "",
                "bounds": [1, 2],
                "samples": [
                    {"labels": {}, "count": 10, "sum": 25.0, "buckets": [4, 6]}
                ],
            },
        },
        "phases": {
            "batched": {"flush": {"seconds": seconds, "calls": 50}}
        },
    }
    if extra_metric:
        m["metrics"]["only_b"] = {
            "kind": "gauge",
            "help": "",
            "samples": [{"labels": {}, "value": 1.0}],
        }
    return m


def test_diff_flattens_components():
    report = diff_manifests(_manifest(), _manifest(counter=130.0, seconds=4.0))
    by_key = {
        (r["name"], r["component"]): r for r in report["metrics"]
    }
    assert by_key[("messages_sent", "value")]["delta"] == 30.0
    assert by_key[("messages_sent", "value")]["rel"] == pytest.approx(0.3)
    # Histograms contribute count and sum, not buckets.
    assert ("route_hist", "count") in by_key
    assert ("route_hist", "sum") in by_key
    phase = {(r["name"], r["component"]): r for r in report["phases"]}
    assert phase[("flush", "seconds")]["delta"] == pytest.approx(2.0)
    assert report["exceeded"] == 0  # no thresholds -> nothing gates


def test_diff_rel_threshold_gates():
    report = diff_manifests(
        _manifest(), _manifest(counter=130.0), rel_threshold=0.1
    )
    assert report["exceeded"] >= 1
    relaxed = diff_manifests(
        _manifest(), _manifest(counter=130.0), rel_threshold=0.5
    )
    assert relaxed["exceeded"] == 0


def test_abs_floor_filters_small_count_jitter():
    """With both thresholds, the absolute floor must filter a huge
    relative delta on a tiny count (1 -> 2 messages)."""
    a, b = _manifest(counter=1.0), _manifest(counter=2.0)
    gated = diff_manifests(a, b, rel_threshold=0.1)
    assert gated["exceeded"] >= 1
    floored = diff_manifests(a, b, rel_threshold=0.1, abs_threshold=10.0)
    by_key = {
        (r["name"], r["component"]): r for r in floored["metrics"]
    }
    assert not by_key[("messages_sent", "value")]["exceeds"]


def test_relative_delta_keeps_its_sign():
    """A drop reads negative and a rise positive, in the report and in the
    rendered table; the gate compares the magnitude, so a drop beyond the
    threshold exceeds as a rise does.  (The diff once stored every
    relative delta unsigned and printed it with a forced ``+``: a
    3 864 647 -> 7 161 fall read ``+99.81%``.)"""
    def rel_row(report):
        (row,) = [r for r in report["metrics"] if r["name"] == "messages_sent"]
        return row

    drop = diff_manifests(_manifest(counter=3864647.0), _manifest(counter=7161.0))
    rise = diff_manifests(_manifest(counter=100.0), _manifest(counter=130.0))
    assert rel_row(drop)["rel"] == pytest.approx(-0.998147, abs=1e-6)
    assert rel_row(rise)["rel"] == pytest.approx(0.3)
    assert "(-99.81%)" in render_diff(drop)
    assert "(+30.00%)" in render_diff(rise)
    for report in (
        diff_manifests(_manifest(counter=100.0), _manifest(counter=70.0), rel_threshold=0.1),
        diff_manifests(_manifest(counter=100.0), _manifest(counter=130.0), rel_threshold=0.1),
    ):
        assert rel_row(report)["exceeds"]
    small = diff_manifests(
        _manifest(counter=100.0), _manifest(counter=95.0), rel_threshold=0.1
    )
    assert rel_row(small)["rel"] == pytest.approx(-0.05)
    assert not rel_row(small)["exceeds"]
    from_zero = diff_manifests(_manifest(counter=0.0), _manifest(counter=-3.0))
    assert rel_row(from_zero)["rel"] == float("-inf")


def test_one_sided_rows_gate_only_with_thresholds():
    report = diff_manifests(_manifest(), _manifest(extra_metric=True))
    only = [r for r in report["metrics"] if r.get("only_in")]
    assert only and only[0]["only_in"] == "b"
    assert not only[0]["exceeds"]
    gated = diff_manifests(
        _manifest(), _manifest(extra_metric=True), rel_threshold=0.9
    )
    assert any(r.get("only_in") and r["exceeds"] for r in gated["metrics"])


def test_render_diff_marks_exceeders():
    report = diff_manifests(
        _manifest(), _manifest(counter=130.0), rel_threshold=0.1
    )
    text = render_diff(report)
    assert "messages_sent{type=lin}" in text
    assert "!" in text
    assert "thresholds:" in text


def test_cli_exit_codes(tmp_path):
    from repro.obs.diff import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_manifest()))
    b.write_text(json.dumps(_manifest(counter=130.0)))
    assert main([str(a), str(b)]) == 0  # no thresholds: report only
    assert main([str(a), str(b), "--rel-threshold", "0.1"]) == 1
    assert main([str(a), str(b), "--rel-threshold", "0.5"]) == 0
    assert main([str(a), str(tmp_path / "missing.json")]) == 2


def test_load_manifest_resolves_directories(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(_manifest()))
    assert load_manifest(str(tmp_path))["experiment"] == "e-test"
