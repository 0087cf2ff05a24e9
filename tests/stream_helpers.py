"""Block-streaming harness shared by the CIC and FIR test suites."""

from __future__ import annotations

import numpy as np


def stream_in_blocks(block, x: np.ndarray, block_size: int) -> np.ndarray:
    """Feed ``x`` through ``block.process`` in slices of ``block_size``.

    Returns the concatenated output.  This is the reference harness for the
    "block-split invariance" property tests: a streaming stage must give
    the same output whether a signal arrives whole or in arbitrary slices.
    """
    outs = [
        block.process(x[start : start + block_size])
        for start in range(0, len(x), block_size)
    ]
    return np.concatenate(outs) if outs else np.empty(0)
