"""Tests for traffic sources."""

import math

import pytest

from repro.simulator import traffic
from repro.simulator.traffic import (BackloggedSource, FixedSizeSource,
                                     OnOffSource, RateLimitedSource)


def test_backlogged_source_always_has_data():
    src = BackloggedSource()
    assert math.isinf(src.bytes_available(0.0))
    src.consume(10_000, 0.0)
    assert math.isinf(src.bytes_available(100.0))
    assert not src.finished(1e9)


def test_fixed_size_source_depletes():
    src = FixedSizeSource(total_bytes=3000)
    assert src.bytes_available(0.0) == 3000
    src.consume(1500, 0.0)
    assert src.bytes_available(0.0) == 1500
    assert not src.finished(0.0)
    src.consume(1500, 0.0)
    assert src.finished(0.0)
    assert src.bytes_available(0.0) == 0


def test_fixed_size_source_validation():
    with pytest.raises(ValueError):
        FixedSizeSource(0)


def test_rate_limited_source_accrues_credit():
    src = RateLimitedSource(rate_bps=8e3)  # 1000 B/s
    assert src.bytes_available(0.0) == 0.0
    assert src.bytes_available(1.0) == pytest.approx(1000.0)
    src.consume(600, 1.0)
    assert src.bytes_available(1.0) == pytest.approx(400.0)


def test_rate_limited_source_burst_cap(monkeypatch):
    monkeypatch.setattr(traffic, "BURST_BYTES", 5000)
    src = RateLimitedSource(rate_bps=8e6)
    assert src.bytes_available(100.0) == 5000


def test_rate_limited_source_next_data_time():
    src = RateLimitedSource(rate_bps=8e3)
    nxt = src.next_data_time(0.0)
    assert nxt is not None and nxt > 0.0
    assert src.next_data_time(10.0) == 10.0  # already has credit


def test_rate_limited_source_validation():
    with pytest.raises(ValueError):
        RateLimitedSource(rate_bps=0)


def test_onoff_source_schedule():
    src = OnOffSource([(1.0, 2.0), (3.0, 4.0)])
    assert src.bytes_available(0.5) == 0.0
    assert math.isinf(src.bytes_available(1.5))
    assert src.bytes_available(2.5) == 0.0
    assert math.isinf(src.bytes_available(3.5))
    assert src.finished(5.0)
    assert not src.finished(3.5)


def test_onoff_source_next_data_time():
    src = OnOffSource([(1.0, 2.0)])
    assert src.next_data_time(0.0) == 1.0
    assert src.next_data_time(1.5) == 1.5
    assert src.next_data_time(3.0) is None


def test_onoff_source_validation():
    with pytest.raises(ValueError):
        OnOffSource([(2.0, 1.0)])
