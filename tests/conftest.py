"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from raincop.copula import read_ensemble


@pytest.fixture
def traced_peak():
    """traced_peak(call) -> (tracemalloc peak while call() runs, its result)."""
    def measure(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()
    return measure


@pytest.fixture(scope="session")
def whole_ensemble():
    """whole_ensemble(path, ids) -> (day labels, (days, m, n) samples): the day
    chunks read_ensemble hands over, joined."""
    def read(path, location_ids):
        layout, chunks = [], []

        def start(labels, m):
            layout.extend((labels, m))
            return lambda days, samples: chunks.append(samples)

        read_ensemble(path, location_ids, start)
        labels, m = layout
        return labels, (np.concatenate(chunks) if chunks
                        else np.empty((len(labels), m, len(location_ids))))
    return read
