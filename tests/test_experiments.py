"""Smoke tests for every experiment driver plus the registry and CLI.

Each driver runs at tiny scale: the goal is exercising the full code path
(rows produced, notes produced, params recorded), not statistical power —
the benchmarks run the real sizes.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.common import ExperimentResult, seed_rng


class TestRegistry:
    def test_all_present(self):
        assert len(EXPERIMENTS) == 22
        assert sorted(EXPERIMENTS) == [f"e{i:02d}" for i in range(1, 23)]

    def test_lookup(self):
        assert get_experiment("e03").id == "e03"

    def test_unknown_raises_with_hint(self):
        with pytest.raises(KeyError, match="e01"):
            get_experiment("nope")


class TestSeedRng:
    def test_deterministic(self):
        a = seed_rng(1, "x", 2).random(4)
        b = seed_rng(1, "x", 2).random(4)
        assert np.array_equal(a, b)

    def test_distinct_parts_distinct_streams(self):
        a = seed_rng(1, "x").random(4)
        b = seed_rng(1, "y").random(4)
        assert not np.array_equal(a, b)

    def test_floats_and_bools_supported(self):
        seed_rng(0.5, True, 3)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            seed_rng(object())


class TestDrivers:
    def test_e01(self):
        res = get_experiment("e01").run(sizes=(12,), topologies=("random_tree",), trials=1)
        assert res.rows and res.notes
        assert res.rows[0]["n"] == 12

    def test_e02(self):
        res = get_experiment("e02").run(n=12, topologies=("random_tree",), trials=1, extra_rounds=20)
        assert all(r["regressions"] == 0 for r in res.rows)
        assert "PASS" in res.notes[0]

    def test_e03(self):
        res = get_experiment("e03").run(n=512, trials=1)
        assert len(res.rows) >= 4
        assert all(r["mean_hops"] >= 1 for r in res.rows)

    def test_e04(self):
        res = get_experiment("e04").run(n=128, horizons=(500,), samples=20, sample_every=5)
        assert res.rows[0]["slope"] < 0  # decreasing pmf

    def test_e05(self):
        res = get_experiment("e05").run(sizes=(64, 128, 256), queries=100, process_horizon=500)
        for row in res.rows:
            assert row["harmonic"] <= row["ring"]

    def test_e06(self):
        res = get_experiment("e06").run(sizes=(16, 32, 64), trials=1)
        assert all(r["rounds_mean"] >= 1 for r in res.rows)

    def test_e07(self):
        res = get_experiment("e07").run(sizes=(16, 32, 64), trials=1)
        scenarios = {r["scenario"] for r in res.rows}
        assert scenarios == {"interior", "extremal_min"}

    def test_e08(self):
        res = get_experiment("e08").run(sizes=(32, 64, 128), warmup_rounds=5, measure_rounds=3)
        for row in res.rows:
            assert row["total"] > 3.0  # at least the O(1) maintenance

    def test_e09(self):
        res = get_experiment("e09").run(n=32, fractions=(0.1,), trials=1)
        assert res.rows[0]["giant_fraction_mean"] > 0.8

    def test_e10(self):
        res = get_experiment("e10").run(sizes=(16,), topologies=("line",), trials=1)
        assert res.rows[0]["rounds_with"] >= 1

    def test_e11(self):
        res = get_experiment("e11").run(n=64, horizon=500, samples=5, lifetime_draws=20_000)
        # Lifetime empirics must track the closed form tightly.
        for row in res.rows[:4]:
            assert row["lifetime_emp"] == pytest.approx(row["lifetime_ref"], abs=0.02)

    def test_e12(self):
        res = get_experiment("e12").run(n=64, k=4, p_points=3, trials=1)
        assert res.rows[0]["C_over_C0"] == pytest.approx(1.0, abs=0.2)

    def test_e13(self):
        res = get_experiment("e13").run(
            sizes=(256, 1024), alphas=(0.0, 1.0, 2.0), queries=200
        )
        a1 = next(r for r in res.rows if r["alpha"] == 1.0)
        a2 = next(r for r in res.rows if r["alpha"] == 2.0)
        assert a1["n=1024"] < a2["n=1024"]  # harmonic beats too-local links

    def test_e14(self):
        res = get_experiment("e14").run(sides=(8, 16), queries=200, horizon_factor=5)
        for row in res.rows:
            assert row["harmonic2d"] <= row["lattice_only"]

    def test_e15(self):
        res = get_experiment("e15").run(n=24, trials=1)
        assert res.rows[-1]["sorted_pair_fraction"] == 1.0
        assert res.rows[-1]["lcp_total_length"] == 0.0
        assert "1/1" in res.notes[0]

    def test_e16(self):
        res = get_experiment("e16").run(n=256, queries=200, fractions=(0.0, 0.1))
        clean = res.rows[0]
        assert clean["sw_success"] == 1.0 and clean["chord_success"] == 1.0
        assert clean["chord_hops"] < clean["sw_hops"]

    def test_e17(self):
        res = get_experiment("e17").run(
            n=32, rates=(0.02, 0.5), rounds=80, trials=1
        )
        low, high = res.rows
        assert low["ring_availability"] >= high["ring_availability"]
        assert low["pair_fraction"] >= high["pair_fraction"]
        assert high["pair_fraction"] > 0.3  # local, not global, degradation

    def test_e18(self):
        res = get_experiment("e18").run(
            sizes=(16, 32, 64), topologies=("random_tree",), trials=1
        )
        assert len(res.rows) == 3
        assert all(r["messages_total_mean"] > 0 for r in res.rows)
        assert any("n^" in note for note in res.notes)

    def test_e19(self):
        res = get_experiment("e19").run(
            n=128, epsilons=(0.1, 1.0), horizon=1000, queries=100
        )
        small, large = res.rows
        assert small["E_lifetime"] > large["E_lifetime"]
        assert small["stationary_tail"] > large["stationary_tail"]

    def test_e20(self):
        res = get_experiment("e20").run(
            n=16, topologies=("random_tree",), schedulers=("sync", "delay"), trials=1
        )
        assert len(res.rows) == 2
        assert all(r["rounds_mean"] >= 1 for r in res.rows)

    def test_e21(self):
        # loss 0.35: at n=48 the 0.2 default never splits, 0.35 does
        # (campaign seed 6) while both guarded runs still converge.
        res = get_experiment("e21").run(
            n=48, loss_rate=0.35, burst_stop=40, rounds=80, campaign_seeds=(0, 6)
        )
        assert len(res.rows) == 4  # 2 seeds x {baseline, guarded}
        guarded = [r for r in res.rows if r["transport"] == "guarded"]
        assert all(r["outcome"] == "converged" for r in guarded)
        assert all(r["abandoned"] == 0 for r in guarded)
        assert any(
            r["outcome"].startswith("SPLIT")
            for r in res.rows
            if r["transport"] == "baseline"
        )

    def test_e22(self):
        # Tiny sizes exercise the full path (batched convergence, reference
        # comparison, routing); the >=10x speedup claim needs real sizes and
        # is asserted by benchmarks/bench_e22_scale.py, not here.
        res = get_experiment("e22").run(
            sizes=(64, 128), queries=50, reference_max_n=64
        )
        assert [r["n"] for r in res.rows] == [64, 128]
        assert all(r["rounds"] >= 1 for r in res.rows)
        assert all(r["route_hops"] > 0 for r in res.rows)
        assert all(r["probe_hops"] > 0 and r["probe_lost"] == 0 for r in res.rows)
        # Reference comparison only where n <= reference_max_n.
        assert res.rows[0]["ref_rounds"] >= 1
        assert res.rows[1]["ref_s"] == ""

    def test_e22_peak_rss_is_the_rows_own(self):
        """A row run after a larger allocation reads its own peak.  The
        column used to be the process-lifetime ``ru_maxrss``, so a small row
        after a large one read the large one's peak."""
        status = pathlib.Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status to read RSS from")
        block = np.ones(25_000_000)  # 200 MB, every page written
        del block
        rss_kb = re.search(r"VmRSS:\s+(\d+)", status.read_text())
        assert rss_kb is not None
        row = get_experiment("e22").run(sizes=(64,), queries=10, reference_max_n=0).rows[0]
        if row["peak_rss_mb"] == "":
            pytest.skip("the kernel refused to reset the RSS high-water mark")
        assert row["peak_rss_mb"] < int(rss_kb.group(1)) * 1024 / 1e6 + 100


class TestResultRendering:
    def test_table_contains_claim_and_notes(self):
        res = ExperimentResult(
            experiment="eXX",
            title="T",
            claim="C",
            params={"n": 1},
            rows=[{"a": 1.5}],
            notes=["note-1"],
        )
        text = res.table()
        assert "T" in text and "C" in text and "note-1" in text and "a" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e12" in out

    def test_run_single(self, capsys):
        code = main(["run", "e12", "n=64", "k=4", "p_points=3", "trials=1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[e12]" in out and "elapsed" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "zzz"]) == 2

    def test_bad_param_format(self):
        with pytest.raises(SystemExit):
            main(["run", "e12", "oops"])

    def test_param_parsing_tuples(self, capsys):
        code = main(
            ["run", "e05", "sizes=64,128,256", "queries=50", "process_horizon=200"]
        )
        assert code == 0

    def test_scalar_for_a_tuple_parameter(self, capsys):
        """``sizes=96`` (the form docs/PERF.md advertises) is ``sizes=(96,)``;
        it used to die with "'int' object is not iterable"."""
        code = main(["run", "e22", "sizes=96", "queries=20", "reference_max_n=0"])
        assert code == 0
        assert "sizes=(96,)" in capsys.readouterr().out

    @pytest.mark.parametrize("stray", ["bogus=1", "workers=2", "shards=2"])
    def test_unknown_driver_parameter(self, capsys, stray):
        """An unknown ``key=value`` exits 2 with one line naming what the
        driver accepts; it used to die with a raw ``TypeError: run() got
        an unexpected keyword argument`` traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "e22", "sizes=96", stray])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert stray.split("=")[0] in line.split(";")[0]
        for accepted in ("sizes", "engine", "obs"):
            assert accepted in line.split("accepted:")[1]

    def test_empty_value_for_a_tuple_parameter(self, capsys):
        """``rates=`` (the churn-smoke CI form) is ``rates=()``.  It used to
        be wrapped into ``("",)`` before e17 could normalize it, and died
        with "'<=' not supported between instances of 'float' and 'str'"."""
        code = main(
            ["run", "e17", "n=16", "rates=", "trials=1", "storms=flash_crowd"]
        )
        assert code == 0
        assert "rates=()" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, accepted",
        [
            (["run", "e01", "engine=bogus"], ("reference", "fast")),
            (["serve", "n=64", "engine=bogus"], ("fast",)),
            (["run", "e22", "engine=sharded"], ("reference", "fast")),
            (["serve", "n=64", "engine=sharded"], ("fast",)),
        ],
        ids=["run", "serve", "run-sharded", "serve-sharded"],
    )
    def test_bad_engine_name(self, capsys, argv, accepted):
        """A bad ``engine=`` exits 2 with one line naming the accepted
        engines, before any state is built; both CLIs used to print a
        ``ValueError`` traceback.  The sharded engine is not a driver's
        engine: only ``FastSimulator.from_states`` builds it."""
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert f"{argv[-1].split('=')[1]!r}" in line
        assert line.split("accepted: ")[1] == ", ".join(accepted)

    @pytest.mark.parametrize(
        "bad, accepted",
        [
            ("sizes=abc", "numbers separated by commas"),
            ("sizes=64,abc", "numbers separated by commas"),
            ("seed=x", "a number"),
            ("queries=1,2", "a number"),
        ],
    )
    def test_non_numeric_value_for_a_numeric_parameter(self, capsys, bad, accepted):
        """``sizes=abc`` used to die in the topology generator with
        "'<' not supported between instances of 'str' and 'int'", and
        ``seed=x`` ran and exited 0 with a string for a seed."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "e22", "sizes=64", "queries=5", bad])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert bad in line
        assert line.split("accepted: ")[1] == accepted

    @pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
    def test_table_with_nan_cells(self, capsys):
        """``queries=0`` leaves the routing columns NaN; the table printer
        used to die on them with "cannot convert float NaN to integer"."""
        code = main(["run", "e22", "sizes=64", "queries=0", "reference_max_n=0"])
        assert code == 0
        assert "nan" in capsys.readouterr().out

    def test_python_dash_m_repro(self):
        """``python -m repro`` is the console script (needs ``__main__.py``)."""
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "e22" in done.stdout


# ----------------------------------------------------------------------
# The smoke jobs' own command lines
# ----------------------------------------------------------------------
_CI_YML = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"


def _ci_run_commands(*jobs: str) -> list:
    """The ``python -m repro.cli run ...`` lines of the named ci.yml jobs.

    Read by a plain text scan (PyYAML is not a declared dependency): a job
    is a 2-space-indented ``name:`` line, a command a ``run: >`` folded
    block.  Yields ``(env, argv)`` — the ``KEY=VALUE`` words before
    ``python`` and the words after ``repro.cli``.
    """
    lines = _CI_YML.read_text().splitlines()
    commands = []
    job = None
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        header = re.fullmatch(r"  ([\w-]+):", line)
        if header:
            job = header.group(1)
        if job not in jobs or line.strip() != "run: >":
            continue
        indent = len(line) - len(line.lstrip())
        words: list[str] = []
        while i < len(lines) and len(lines[i]) - len(lines[i].lstrip()) > indent:
            words += lines[i].split()
            i += 1
        if "repro.cli" not in words:
            continue
        cut = words.index("repro.cli")
        if words[cut + 1] != "run":
            continue
        env = dict(w.split("=", 1) for w in words[: words.index("python")])
        env.pop("PYTHONPATH", None)
        argv = words[cut + 1 :]
        commands.append(pytest.param(env, argv, id=f"{job}-{len(commands)}"))
    return commands


_SMOKE_COMMANDS = _ci_run_commands("chaos-smoke", "churn-smoke")


def test_ci_smoke_jobs_were_found():
    """Two chaos-smoke legs and four churn-smoke legs (storms and scalar
    churn, each on reference and fast); fewer means the scan above lost
    track of ci.yml."""
    assert len(_SMOKE_COMMANDS) == 6


@pytest.mark.parametrize("env, argv", _SMOKE_COMMANDS)
def test_ci_smoke_command_line(env, argv, monkeypatch, capsys):
    """Each smoke job's command line, run in-process as written.  No CI
    runs in the sandbox this repo grows in: the churn-smoke line was dead
    for two PRs (``rates=``) and nothing noticed."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"[{argv[1]}]" in out and "NOT recovered" not in out
