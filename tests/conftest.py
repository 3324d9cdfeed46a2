"""Fixtures shared by the test modules."""

import tracemalloc

import numpy as np
import pytest

from raincop.copula import read_ensemble
from raincop.panel import RainPanel


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
    """whole_ensemble(path, day_labels, ids) -> the (days, m, n) samples: the
    day chunks read_ensemble yields, joined."""
    def read(path, day_labels, location_ids):
        panel = RainPanel(np.zeros((len(day_labels), len(location_ids))), location_ids,
                          day_labels)
        chunks = [samples for _, samples in read_ensemble(path, panel)]
        # no chunk and no error: a header and no rows, m = 0
        return (np.concatenate(chunks) if chunks
                else np.empty((len(day_labels), 0, len(location_ids))))
    return read
