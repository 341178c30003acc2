"""Checks of the suite itself; run explicitly with ``pytest benchmarks/suite``.

Not part of the tier-1 tests (``testpaths`` is ``tests``): the smoke runs
below start eight child processes and take most of a minute.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import time

import pytest

import compare
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_well_formed():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in spec["end_to_end"]
    )
    assert {m["name"] for m in compare.SERVE_ONLY} <= {m["name"] for m in spec["per_layer"]}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_workload_and_metric(trace, tmp_path, capsys):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    code = run.main(["--smoke", "--trace", str(trace), "--out", str(out)])
    assert time.monotonic() - start < 60
    assert code == 0, capsys.readouterr().out
    results = {r["workload"]: r for r in json.loads(out.read_text())["results"]}
    assert list(results) == list(workloads.WORKLOADS)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    for name, result in results.items():
        assert result["correct"] and result["attempted"] >= 1 and not result["failed"]
        for metric in wanted:
            entry = result["metrics"][metric]
            assert entry["unit"] == run.UNITS[metric], (name, metric)
            assert math.isfinite(entry["value"]), (name, metric)
        for metric in run.END_TO_END:
            assert result["metrics"][metric]["value"] > 0, (name, metric)
        provenance = result["provenance"]
        assert provenance["traced"] == bool(trace) and provenance["smoke"]
        assert provenance["cpu_count"] and provenance["numpy"]
    cold, sharded = results["cold_converge"], results["cold_converge_sharded"]
    assert cold["digest"] and cold["digest"] == sharded["digest"]
    if trace:
        for name in ("cold_converge", "cold_converge_sharded", "storm_recover"):
            layers = results[name]["metrics"]
            assert layers["trace.attributed_share"]["value"] >= 0.95, name
        assert results["cold_converge_sharded"]["metrics"]["shard.boundary_rows"]["value"] > 0
        assert results["storm_recover"]["metrics"]["batched.joined"]["value"] > 0
        assert results["serve_zipf"]["metrics"]["routing.hops_total"]["value"] > 0
        assert results["serve_zipf"]["metrics"]["host.rounds"]["value"] > 0


def test_one_workload_ends_with_the_contract_line(capsys):
    code = run.main(["--workload", "cold_converge", "--smoke", "--seed", "8"])
    last = capsys.readouterr().out.splitlines()[-1]
    doc = json.loads(last)
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert list(doc["metrics"]) == run.END_TO_END
    assert doc["correct"] is True


def test_failed_check_makes_the_exit_code_non_zero(monkeypatch, capsys):
    repeat = workloads.WORKLOADS["cold_converge"]

    def broken(seed, size, tracer):
        result = repeat(seed, size, tracer)
        result.problems.append("injected")
        return result

    monkeypatch.setitem(workloads.WORKLOADS, "cold_converge", broken)
    code = run.main(["--workload", "cold_converge", "--smoke"])
    output = capsys.readouterr().out
    assert code != 0
    assert "CHECK FAILED: injected" in output
    assert json.loads(output.splitlines()[-1])["correct"] is False


def test_tracer_puts_every_attribute_back():
    from tracing import Tracer, _targets

    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    with Tracer():
        assert all(owner.__dict__[attr] is not was for owner, attr, was in before)
    assert all(owner.__dict__[attr] is was for owner, attr, was in before)


def _doc(rates, *, failed=0, digest="d", setup_s=1.0, probe_s=0.25, http_us=3000.0):
    """A result file whose runs measured *rates* operations per probe."""
    metrics = {
        "setup_s": setup_s,
        "ops_per_probe": statistics.median(rates),
        "peak_rss_mb": 100.0,
        "probe_s": probe_s,
        "uniform_lookups_per_s": 1000.0 / probe_s,
        "lookup_p50_us": 8000.0 * probe_s,
        "http_p50_us": http_us,
        "hops_p99": 120.0,
    }
    return {
        "results": [
            {
                "workload": w["name"],
                "failed": failed,
                "rounds": 8,
                "messages": 100,
                "digest": digest,
                "provenance": {"seed": 7},
                "metrics": {key: {"value": value} for key, value in metrics.items()},
                "samples": {"ops_per_probe": rates, "setup_s": [setup_s] * 3},
            }
            for w in run.SPEC["workloads"]
        ]
    }


def _verdicts(lines, metric):
    return [line.split()[-1] for line in lines if line.split()[1] == metric]


def test_compare_verdicts():
    bound = next(
        m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "ops_per_probe"
    )
    steady = [1000.0, 1001.0, 999.0]
    base = _doc(steady)
    lines, worse = compare.compare(base, _doc([1000.0, 1002.0, 998.0]))
    assert not worse and all(line.split()[-1] != "worse" for line in lines[2:])
    slow = 1000.0 * (1 - 2 * bound)
    lines, worse = compare.compare(base, _doc([slow, slow + 1, slow - 1]))
    assert worse and set(_verdicts(lines, "ops_per_probe")) == {"worse"}
    noisy = [1000.0 * (1 - 3 * bound), 1000.0, 1000.0 * (1 + 3 * bound)]
    lines, worse = compare.compare(base, _doc(noisy))
    assert not worse and set(_verdicts(lines, "ops_per_probe")) == {"unresolved"}
    # Noisy, but every sample of B is worse than every sample of A.
    lines, worse = compare.compare(base, _doc([v / 10 for v in noisy]))
    assert worse and set(_verdicts(lines, "ops_per_probe")) == {"worse"}
    _, worse = compare.compare(base, _doc(steady, failed=1))
    assert worse
    _, worse = compare.compare(base, _doc(steady, digest="other"))
    assert worse


def test_compare_puts_each_side_on_its_own_probe():
    base = _doc([1000.0, 1001.0, 999.0])
    # The same program on a box running 40% slower: every raw time is 1.4
    # times as long, every raw rate 1.4 times lower, and so is the probe.
    lines, worse = compare.compare(
        base, _doc([1000.0, 1001.0, 999.0], setup_s=1.4, probe_s=0.35, http_us=4200.0)
    )
    assert not worse, lines
    # A serve-only regression on an equally fast box is caught ...
    lines, worse = compare.compare(base, _doc([1000.0, 1001.0, 999.0], http_us=4200.0))
    assert worse and _verdicts(lines, "http_p50_us") == ["worse"]
    # ... and a quarter second of set-up is not one.
    lines, worse = compare.compare(
        _doc([1000.0], setup_s=0.13), _doc([1000.0], setup_s=0.3)
    )
    assert not worse and set(_verdicts(lines, "setup_s")) == {"ok"}
