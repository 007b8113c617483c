"""The package's one test of an integer argument."""

import numpy as np


def is_integer(value):
    """Whether ``value`` is a Python or NumPy integer.  Python counts a bool as an int, but a
    flag passed as a count, a size or a seed is a mistake, so here it is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
