"""Deterministic parallel map: argument checks."""

import pytest

from corrcast._parallel import indexed_map


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        indexed_map(abs, 4, threads)

