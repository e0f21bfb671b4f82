"""Localization accuracy metrics over active frames.

A prediction is true on the exact zone, adjacent when it lands on a
circularly neighboring zone (zone 1 and zone N are neighbors), and false
otherwise; the three rates always sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LocMetrics:
    acc: float
    aer: float
    oer: float
    n_true: int
    n_adjacent: int
    n_false: int
    n_all: int


def loc_metrics(predicted, truth, active, num_zones):
    """Accuracy / adjacent-error / other-error rates over active frames.

    ``predicted`` and ``truth`` are 1-based zone tracks of equal length;
    only frames with ``active`` True are scored. Raises when no frame is
    active.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    active = np.asarray(active, dtype=bool)
    if not (predicted.shape == truth.shape == active.shape):
        raise ValueError("predicted, truth, and active tracks must share a length")
    p = predicted[active]
    t = truth[active]
    n_all = p.shape[0]
    if n_all == 0:
        raise ValueError("no active frames to evaluate")
    diff = np.mod(p - t, num_zones)
    n_true = int(np.sum(diff == 0))
    n_adjacent = int(np.sum((diff == 1) | (diff == num_zones - 1)))
    n_false = n_all - n_true - n_adjacent
    return _rates(n_true, n_adjacent, n_false, n_all)


def _rates(n_true, n_adjacent, n_false, n_all):
    """Rates from counts; ``oer`` gives up an ulp when needed so the sum is 1.

    Each quotient rounds on its own, and 2/7 + 3/7 + 2/7 misses 1. Then
    ``oer`` becomes ``1 - s`` with ``s = acc + aer``: that is exact when
    ``s >= 0.5`` (Sterbenz) and otherwise off by at most 2**-54, which
    ``s + (1 - s)`` rounds back to 1.
    """
    acc = n_true / n_all
    aer = n_adjacent / n_all
    oer = n_false / n_all
    if acc + aer + oer != 1.0:
        oer = 1.0 - (acc + aer)
    return LocMetrics(acc, aer, oer, n_true, n_adjacent, n_false, n_all)


def merge_metrics(parts):
    """Pool frame counts from several tracks into one metric set."""
    n_true = sum(p.n_true for p in parts)
    n_adj = sum(p.n_adjacent for p in parts)
    n_false = sum(p.n_false for p in parts)
    n_all = sum(p.n_all for p in parts)
    if n_all == 0:
        raise ValueError("no active frames to evaluate")
    return _rates(n_true, n_adj, n_false, n_all)
