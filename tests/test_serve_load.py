"""The load drivers' hop histogram against keeping every hop.

:class:`repro.serve.load.HopHistogram` keeps one count per hop value
instead of one hop per lookup; its p50/p99/max must read exactly what
``np.percentile``/``max`` read on the concatenated hops, so every
:class:`~repro.serve.load.LoadReport` field stays as it was.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.load import HopHistogram, run_load, run_load_http
from repro.serve.service import build_service


def _kept(batches: list[np.ndarray]) -> tuple[float, float, int]:
    """p50/p99/max as a driver that keeps every hop computes them."""
    hops = np.concatenate(batches) if batches else np.empty(0, dtype=np.int64)
    if hops.size == 0:
        return 0.0, 0.0, 0
    return (
        float(np.percentile(hops, 50)),
        float(np.percentile(hops, 99)),
        int(hops.max()),
    )


def _histogram(batches: list[np.ndarray]) -> tuple[float, float, int]:
    histogram = HopHistogram()
    for batch in batches:
        histogram.add(batch)
    return histogram.summary()


@settings(max_examples=300, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=300), max_size=40),
        max_size=6,
    ),
    dtype=st.sampled_from([np.int16, np.int64]),
)
def test_histogram_reads_the_percentiles_of_every_hop(batches, dtype) -> None:
    arrays = [np.asarray(batch, dtype=dtype) for batch in batches]
    assert _histogram(arrays) == _kept(arrays)


@pytest.mark.parametrize("seed", range(4))
def test_histogram_on_long_random_runs(seed) -> None:
    rng = np.random.default_rng(seed)
    hops = rng.geometric(0.05, size=200_000).astype(np.int16)
    batches = np.array_split(hops, 37)
    assert _histogram(batches) == _kept(batches)


@pytest.mark.parametrize(
    "batches",
    [
        [np.array([7])],
        [np.array([0])],
        [np.full(10, 4), np.full(3, 4)],
        [np.zeros(5, dtype=np.int8)],
    ],
    ids=["one", "one-zero", "all-equal", "all-zero"],
)
def test_histogram_edge_cases(batches) -> None:
    assert _histogram(batches) == _kept(batches)


def test_no_ok_lookups_read_zero() -> None:
    assert _histogram([]) == (0.0, 0.0, 0)
    assert _histogram([np.empty(0, dtype=np.int16)] * 3) == (0.0, 0.0, 0)
    assert _histogram([[]]) == (0.0, 0.0, 0)


def test_histogram_grows_to_the_largest_hop() -> None:
    histogram = HopHistogram()
    histogram.add(np.array([2, 2]))
    histogram.add(np.array([9]))
    histogram.add(np.array([0]))
    assert histogram.counts.tolist() == [1, 0, 2, 0, 0, 0, 0, 0, 0, 1]


def test_run_load_matches_keeping_every_hop(monkeypatch) -> None:
    """Both drivers at n = 256, their hop fields against the ok hops of
    every outcome the service handed back."""
    service = build_service(n=256, seed=5)
    kept: list[np.ndarray] = []
    lookup_batch = service.lookup_batch

    def recording(*args, **kwargs):
        outcome = lookup_batch(*args, **kwargs)
        kept.append(outcome.hops[outcome.ok])
        return outcome

    monkeypatch.setattr(service, "lookup_batch", recording)
    service.start()
    try:
        assert service.host.wait_converged(timeout=60)
        report = run_load(service, lookups=5000, batch=512, latency_samples=16, seed=2)
        assert report.ok == sum(len(batch) for batch in kept) > 0
        assert (report.p50_hops, report.p99_hops, report.max_hops) == _kept(kept)
        kept.clear()
        report = run_load_http(
            service.api_url, lookups=60, concurrency=4, seed=2, population=64
        )
        assert report.ok == sum(len(batch) for batch in kept) > 0
        assert (report.p50_hops, report.p99_hops, report.max_hops) == _kept(kept)
    finally:
        service.stop()
