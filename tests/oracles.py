"""Reference code that only the tests read, kept out of the package."""

import numpy as np

from qtelegraph.cli import RunConfig, parse_document, resolve_config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key/value config document."""
    return resolve_config(parse_document(text))


def divmod_emissions(schedule, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled emissions first to first + count - 1 of an ``EnsembleSchedule``,
    as (times, telegraph ids), laid out one divmod per emission over a full
    stable sort of the offsets: emission k is telegraph order[k % N] at its
    offset + period * (k // N)."""
    cycle, slot = np.divmod(np.arange(first, first + count), schedule.telegraphs)
    ids = np.argsort(schedule.offsets, kind="stable")[slot]
    return schedule.offsets[ids] + schedule.period * cycle, ids
