"""Spike-train ingestion: bin spike counts per time slot into a state matrix.

File format: plain text, one event per line as "neuronId<TAB>time", with a
header comment "# neurons=<n> duration=<seconds>". Lines starting with '#'
are comments. Neuron ids are 1-based.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError

_HEADER = re.compile(r"#\s*neurons\s*=\s*(\d+)\s+duration\s*=\s*([0-9.eE+-]+)")


@dataclass(frozen=True)
class SpikeTrain:
    """Recorded events of n neurons over a fixed duration, sorted by time."""

    events: tuple[tuple[int, float], ...]  # (neuron id 1..n, time in seconds)
    neuron_count: int
    duration: float

    def __post_init__(self):
        if self.neuron_count < 1:
            raise ValueError("neuron count must be at least 1")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be finite and positive")
        for nid, t in self.events:
            if not 1 <= nid <= self.neuron_count:
                raise ValueError(f"neuron id {nid} outside 1..{self.neuron_count}")
            if not 0.0 <= t < self.duration:
                raise ValueError(f"spike time {t} outside [0, {self.duration})")
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: (e[1], e[0]))))


@dataclass(frozen=True)
class SlotConfig:
    """How to carve the recording into states: m slots of slot_length seconds."""

    slot_length: float
    state_count: int

    def __post_init__(self):
        if not 0.0 < self.slot_length < math.inf:
            raise ValueError("slot length must be finite and positive")
        if self.state_count < 1:
            raise ValueError("state count must be at least 1")


def bin_spikes(train: SpikeTrain, cfg: SlotConfig) -> np.ndarray:
    """Count spikes of each neuron per half-open slot [(k-1) t_s, k t_s).

    Returns an (m, n) float array: entry (k, l) is the spike count of
    neuron l in slot k. Spikes at or after state_count * slot_length fall
    outside every slot; they are dropped with a warning that reports how many.
    """
    # a margin relative to the duration: the product's rounding error grows with it
    if cfg.state_count * cfg.slot_length > train.duration * (1.0 + 1e-12):
        raise ValueError("slots extend past the recording duration")
    nid, t = np.array(train.events, dtype=float).reshape(-1, 2).T
    slot = t // cfg.slot_length
    inside = slot < cfg.state_count
    counts = np.zeros((cfg.state_count, train.neuron_count))
    np.add.at(counts, (slot[inside].astype(np.intp), nid[inside].astype(np.intp) - 1), 1.0)
    ignored = np.count_nonzero(~inside)
    if ignored:
        warnings.warn(f"{ignored} spikes after the last slot were ignored", stacklevel=2)
    return counts


def read_spike_file(path) -> SpikeTrain:
    """Parse a spike file; the header must declare neurons and duration."""
    neuron_count = None
    duration = None
    events: list[tuple[int, float]] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                found = _HEADER.search(line)
                if found:
                    try:
                        neuron_count, duration = int(found.group(1)), float(found.group(2))
                    except ValueError as exc:
                        raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputFormatError(f"{path}:{lineno}: expected 'neuronId<TAB>time'")
            try:
                events.append((int(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
    if neuron_count is None or duration is None:
        raise InputFormatError(f"{path}: missing '# neurons=<n> duration=<seconds>' header")
    try:
        return SpikeTrain(tuple(events), neuron_count, duration)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
