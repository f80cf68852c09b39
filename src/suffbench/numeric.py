"""Float sums whose bits do not depend on the Python version.

From Python 3.12 the builtin sum() of floats uses compensated summation,
so the same floats can sum to a different last bit than under 3.10 or
3.11. Every float sum that reaches a stored table or a report goes through
ordered_sum, which adds left to right on every version, as sum() did
before 3.12: a store begun on one version and resumed on another holds the
numbers an uninterrupted run on either would.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add
from typing import Iterable

if sys.version_info >= (3, 12):

    def ordered_sum(values: Iterable[float]) -> float:
        """0.0 plus each of `values` in turn, rounded after every addition."""
        return reduce(add, values, 0.0)

else:

    def ordered_sum(values: Iterable[float]) -> float:
        """0.0 plus each of `values` in turn, rounded after every addition:
        what sum() does before 3.12, and twice as fast as reduce(); on
        reduce(), a warm resume of the benchmark runs about 3% longer."""
        return sum(values, 0.0)
