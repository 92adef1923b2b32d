"""Merit-history window: eviction, tie-breaking, acceptance boundary, misuse."""

import numpy as np
import pytest

from kldescent.errors import InvalidInputError, LogicError
from kldescent.memory import MemoryWindow


def test_capacity_and_eviction():
    w = MemoryWindow(2)
    for k, v in enumerate([10.0, 9.0, 8.0, 7.0]):
        w.push(k, v)
    assert len(w) == 3
    # 10.0 at k=0 was evicted
    assert w.window_max() == (9.0, 1)
    # the latest index is 3: only 4 may follow it
    with pytest.raises(LogicError, match="after 3"):
        w.push(3, 6.0)


def test_monotone_window_m_zero():
    w = MemoryWindow(0)
    w.push(0, 5.0)
    assert w.window_max() == (5.0, 0)
    w.push(1, 4.0)
    assert len(w) == 1
    assert w.window_max() == (4.0, 1)


def test_argmax_tie_breaks_to_largest_index():
    w = MemoryWindow(3)
    for k, v in [(0, 3.0), (1, 5.0), (2, 5.0), (3, 2.0)]:
        w.push(k, v)
    assert w.window_max() == (5.0, 2)


def test_argmax_tie_break_after_eviction():
    # window holds {(4,3),(5,5),(6,5),(7,2)}: max 5 attained at 5 and 6
    w = MemoryWindow(3)
    for k, v in enumerate([9.0, 8.0, 7.0, 6.0]):
        w.push(k, v)
    for k, v in [(4, 3.0), (5, 5.0), (6, 5.0), (7, 2.0)]:
        w.push(k, v)
    assert w.window_max() == (5.0, 6)


def test_accept_boundary_is_inclusive():
    w = MemoryWindow(1)
    w.push(0, 1.0)
    # plain FP comparison: equality passes
    assert w.accept(0.75, 0.25)
    assert not w.accept(0.75 + 1e-15, 0.25)
    assert w.accept(-100.0, 0.0)


@pytest.mark.parametrize("m", range(7))
def test_window_max_matches_brute_force(m):
    # values from a small set, so that ties are frequent
    rng = np.random.default_rng(100 + m)
    values = [float(v) for v in rng.integers(0, 4, 200)]
    w = MemoryWindow(m)
    for k, v in enumerate(values):
        w.push(k, v)
        recent = range(max(0, k - m), k + 1)
        best = max(recent, key=lambda i: (values[i], i))
        assert w.window_max() == (values[best], best)
        # the acceptance boundary is inclusive, against that maximum
        assert w.accept(values[best] - 0.5, 0.5)
        assert not w.accept(values[best] - 0.5 + 1e-9, 0.5)


def test_accept_uses_window_max_not_latest():
    w = MemoryWindow(2)
    w.push(0, 10.0)
    w.push(1, 1.0)
    # candidate above the latest merit but below the window max is accepted
    assert w.accept(9.0, 0.5)


def test_non_contiguous_push_rejected():
    w = MemoryWindow(2)
    w.push(0, 1.0)
    with pytest.raises(LogicError, match="non-contiguous"):
        w.push(2, 0.5)
    with pytest.raises(LogicError, match="index 0"):
        MemoryWindow(1).push(3, 1.0)


def test_nan_inputs_rejected():
    w = MemoryWindow(1)
    w.push(0, 1.0)
    with pytest.raises(InvalidInputError, match="NaN"):
        w.accept(float("nan"), 0.0)
    with pytest.raises(InvalidInputError, match="NaN"):
        w.accept(0.0, float("nan"))


def test_invalid_depth():
    with pytest.raises(InvalidInputError):
        MemoryWindow(-1)
    with pytest.raises(InvalidInputError):
        MemoryWindow(1.5)  # type: ignore[arg-type]


def test_window_max_on_empty_window():
    with pytest.raises(LogicError, match="empty"):
        MemoryWindow(0).window_max()
