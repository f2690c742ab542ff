from unittest import mock

import numpy as np
import pytest

from snndfe import harness
from snndfe.channel import ChannelConfig


def _counted_decisions(y, model, stats=None):
    """The decisions evaluate_ber counts the errors of on a frame received as y,
    its `stats` passed on."""
    decided = []

    def count_bit_errors(true, decisions, m):
        decided.append(decisions)
        return 0

    frame = np.zeros(y.size, dtype=np.int64), y  # its classes reach only count_bit_errors
    with mock.patch.object(harness, "_eval_frame", lambda *_: frame), \
            mock.patch.object(harness, "count_bit_errors", count_bit_errors):
        harness.evaluate_ber(model, ChannelConfig(), (17.0,), y.size, seed=0, stats=stats)
    return decided[0]


@pytest.fixture(scope="session")
def counted_decisions():
    """_counted_decisions; session-scoped, so hypothesis tests may take it."""
    return _counted_decisions
