"""Bounded merit-history window for nonmonotone (GLL-style) acceptance tests.

The window retains the merit values of the last ``m + 1`` iterates.  The
acceptance rule compares a candidate against the window maximum minus a
forcing decrement; the recorded argmax index breaks ties toward the largest
iteration index so it is a single-valued function of the history.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from .domains import check
from .errors import InvalidInputError, LogicError

__all__ = ["MemoryWindow"]


class MemoryWindow:
    """Sliding window over ``(iteration index, merit value)`` pairs.

    Single-owner mutable structure: push indices must be contiguous
    (0, 1, 2, ...) and entries older than ``m`` iterations are evicted.
    ``push`` recomputes the window's ``(max, argmax)``, so the many
    ``accept`` calls between two pushes compare against a stored value.
    """

    def __init__(self, m: int):
        check("audit", m=m)
        # a deque's length is a C ssize_t, and no run fills sys.maxsize entries
        self._entries: deque[tuple[int, float]] = deque(maxlen=min(int(m), sys.maxsize - 1) + 1)
        self._max: tuple[float, int] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, k: int, value: float) -> None:
        """Record merit ``value`` for iterate ``k``; ``k`` must follow the last index."""
        if self._entries and k != self._entries[-1][0] + 1:
            raise LogicError(
                f"non-contiguous push: got index {k} after {self._entries[-1][0]}"
            )
        if not self._entries and k != 0:
            raise LogicError(f"first push must use index 0, got {k}")
        self._entries.append((k, float(value)))
        best_val, best_idx = self._entries[0][1], self._entries[0][0]
        for idx, val in self._entries:
            if val >= best_val:
                best_val, best_idx = val, idx
        self._max = (best_val, best_idx)

    def window_max(self) -> tuple[float, int]:
        """Return ``(max merit, argmax index)``, ties broken toward the largest index."""
        if self._max is None:
            raise LogicError("window_max on an empty window")
        return self._max

    def accept(self, candidate: float, decrement: float) -> bool:
        """Plain floating-point test ``candidate <= window max - decrement``,
        against the maximum stored at the last push.

        A NaN argument fails the comparison, so it is looked for only then,
        and raises ``InvalidInputError``.
        """
        if self._max is not None and candidate <= self._max[0] - decrement:
            return True
        if self._max is None:
            raise LogicError("accept on an empty window")
        if math.isnan(candidate) or math.isnan(decrement):
            raise InvalidInputError("accept called with NaN candidate or decrement")
        return False
