"""Tests for spike-train parsing and slot binning."""

import math

import numpy as np
import pytest

from conirep.encode import SlotConfig, SpikeTrain, bin_spikes, read_spike_file
from conirep.errors import InputFormatError


def train(events, n=2, duration=4.0):
    return SpikeTrain(tuple(events), neuron_count=n, duration=duration)


def test_counts_fall_into_slots():
    t = train([(1, 0.1), (1, 0.2), (2, 0.9), (1, 1.5), (2, 3.9)])
    counts = bin_spikes(t, SlotConfig(slot_length=1.0, state_count=4))
    assert counts.dtype == float
    np.testing.assert_array_equal(counts, [[2.0, 1.0],
                                           [1.0, 0.0],
                                           [0.0, 0.0],
                                           [0.0, 1.0]])


def test_slot_boundary_is_half_open():
    # a spike exactly at t_s belongs to the second slot
    t = train([(1, 1.0)], n=1)
    counts = bin_spikes(t, SlotConfig(slot_length=1.0, state_count=2))
    np.testing.assert_array_equal(counts, [[0.0], [1.0]])


def test_empty_train_gives_zero_matrix():
    counts = bin_spikes(train([]), SlotConfig(slot_length=1.0, state_count=3))
    assert counts.shape == (3, 2)
    assert not counts.any()


def test_total_count_preserved():
    rng = np.random.default_rng(103)
    events = [(int(rng.integers(1, 4)), float(rng.uniform(0.0, 6.0)))
              for _ in range(200)]
    t = SpikeTrain(tuple(events), neuron_count=3, duration=6.0)
    counts = bin_spikes(t, SlotConfig(slot_length=2.0, state_count=3))
    assert counts.sum() == 200.0


def test_time_shift_rolls_rows():
    events = [(1, 0.3), (2, 0.7), (1, 1.1)]
    base = bin_spikes(train(events), SlotConfig(1.0, 4))
    shifted = bin_spikes(train([(nid, t + 2.0) for nid, t in events]),
                         SlotConfig(1.0, 4))
    np.testing.assert_array_equal(np.roll(base, 2, axis=0),
                                  shifted)


def test_spikes_past_last_slot_warn_and_drop():
    t = train([(1, 0.5), (2, 3.5)])
    with pytest.warns(UserWarning, match="1 spikes"):
        counts = bin_spikes(t, SlotConfig(slot_length=1.0, state_count=2))
    assert counts.sum() == 1.0


def test_slots_must_fit_duration():
    with pytest.raises(ValueError):
        bin_spikes(train([]), SlotConfig(slot_length=1.0, state_count=5))


def test_slots_fit_a_long_duration_despite_rounding():
    # 1.1 * 100000 is 110000.00000000001 in floating point: 1.1e-11 past the
    # duration, far inside the product's rounding error at that size
    long = train([], duration=110000.0)
    assert bin_spikes(long, SlotConfig(slot_length=1.1, state_count=100_000)).shape == (100_000, 2)
    with pytest.raises(ValueError, match="extend past the recording duration"):
        bin_spikes(long, SlotConfig(slot_length=1.1, state_count=100_001))


def test_validation_errors():
    with pytest.raises(ValueError):
        SpikeTrain(((3, 0.1),), neuron_count=2, duration=1.0)
    with pytest.raises(ValueError):
        SpikeTrain(((1, 1.0),), neuron_count=1, duration=1.0)
    with pytest.raises(ValueError, match="neuron count"):
        SpikeTrain((), neuron_count=0, duration=1.0)
    # duration=1e999 in a header reads as inf, and a nan duration with no
    # events meets no event-time check
    for duration in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            SpikeTrain((), neuron_count=1, duration=duration)
    for slot_length in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="slot length must be finite and positive"):
            SlotConfig(slot_length=slot_length, state_count=1)
    with pytest.raises(ValueError):
        SlotConfig(slot_length=1.0, state_count=0)


def test_events_sorted_by_time():
    t = train([(2, 0.9), (1, 0.1), (1, 0.9)])
    assert t.events == ((1, 0.1), (1, 0.9), (2, 0.9))


def test_read_spike_file(tmp_path):
    p = tmp_path / "spikes.txt"
    p.write_text("# recorded on rig 2\n"
                 "# neurons=2 duration=4.0\n"
                 "1\t0.25\n"
                 "\n"
                 "2\t1.5\n")
    t = read_spike_file(p)
    assert t.neuron_count == 2
    assert t.duration == 4.0
    assert t.events == ((1, 0.25), (2, 1.5))


def test_read_spike_file_with_byte_order_mark(tmp_path):
    # a BOM in front of the header must not hide its '#'
    p = tmp_path / "spikes.txt"
    p.write_bytes(b"\xef\xbb\xbf# neurons=2 duration=4.0\n1\t0.25\n2\t1.5\n")
    t = read_spike_file(p)
    assert (t.neuron_count, t.duration) == (2, 4.0)
    assert t.events == ((1, 0.25), (2, 1.5))


def test_read_spike_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1\t0.25\n")
    with pytest.raises(InputFormatError, match="header"):
        read_spike_file(p)

    p.write_text("# neurons=2 duration=4.0\n1\n")
    with pytest.raises(InputFormatError, match="bad.txt:2"):
        read_spike_file(p)

    p.write_text("# neurons=2 duration=4.0\n1\tabc\n")
    with pytest.raises(InputFormatError):
        read_spike_file(p)

    p.write_text("# neurons=2 duration=4.0\n9\t0.5\n")
    with pytest.raises(InputFormatError):
        read_spike_file(p)

    # the header pattern admits a number that float() refuses
    p.write_text("# recorded on rig 2\n# neurons=2 duration=1e\n1\t0.5\n")
    with pytest.raises(InputFormatError, match="bad.txt:2: could not convert"):
        read_spike_file(p)

    p.write_text("# neurons=2 duration=1e999\n")
    with pytest.raises(InputFormatError, match="duration must be finite"):
        read_spike_file(p)
