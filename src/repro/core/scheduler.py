"""Server-selection policies.

The paper's agent ranks candidates by predicted completion time —
minimum completion time (MCT).  The baselines implemented alongside are
the ones the scheduling experiment (T3) compares against:

* ``random`` — uniform choice, the no-information baseline,
* ``roundrobin`` — fair rotation, ignores heterogeneity,
* ``fastestpeak`` — always the highest peak-Mflop/s server, ignores
  workload and network (the "static ranking" straw man),
* ``mct`` — ascending predicted total.

Every policy ranks from the same inputs: the candidate entries and the
agent's predicted totals for them (one float per entry, from
:func:`~repro.core.predictor.predict_batch`).  ``rank`` returns the
indices of the ``k`` best candidates, best first; the client works down
that list on failure, so policy choice also shapes retry behaviour.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .registry import ServerEntry

__all__ = [
    "SchedulingPolicy",
    "MinimumCompletionTime",
    "RandomPolicy",
    "RoundRobinPolicy",
    "FastestPeakPolicy",
    "make_policy",
]


class SchedulingPolicy:
    """Base class: pick the ``k`` best candidates, best first."""

    name = "base"

    def rank(
        self,
        entries: Sequence[ServerEntry],
        totals: Sequence[float],
        k: int,
    ) -> list[int]:
        """Indices into ``entries`` (``totals[i]`` is the predicted
        completion time of ``entries[i]``)."""
        raise NotImplementedError


class MinimumCompletionTime(SchedulingPolicy):
    """Ascending predicted completion time; server id breaks ties so
    equal predictions rank deterministically.

    Partial selection: O(n log k) instead of a full sort —
    ``heapq.nsmallest`` is defined to equal ``sorted(...)[:k]``,
    including the (total, server_id) tie-break.
    """

    name = "mct"

    def rank(self, entries, totals, k):
        return heapq.nsmallest(
            k,
            range(len(entries)),
            key=lambda i: (totals[i], entries[i].server_id),
        )


class RandomPolicy(SchedulingPolicy):
    """Uniformly random order."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def rank(self, entries, totals, k):
        # shuffle the whole candidate list, then cut: the rng draws
        # depend only on the candidate count
        order = list(range(len(entries)))
        self.rng.shuffle(order)
        return order[:k]


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate through the candidate set across successive queries."""

    name = "roundrobin"

    def __init__(self) -> None:
        self._counter = 0

    def rank(self, entries, totals, k):
        order = sorted(range(len(entries)), key=lambda i: entries[i].server_id)
        if not order:
            return []
        shift = self._counter % len(order)
        self._counter += 1
        return (order[shift:] + order[:shift])[:k]


class FastestPeakPolicy(SchedulingPolicy):
    """Descending peak Mflop/s, blind to workload and network."""

    name = "fastestpeak"

    def rank(self, entries, totals, k):
        return sorted(
            range(len(entries)),
            key=lambda i: (-entries[i].mflops, entries[i].server_id),
        )[:k]


def make_policy(
    name: str, rng: np.random.Generator | None = None
) -> SchedulingPolicy:
    """Policy factory used by :class:`~repro.core.agent.Agent`."""
    key = name.lower()
    if key == "mct":
        return MinimumCompletionTime()
    if key == "random":
        if rng is None:
            raise ConfigError("random policy needs an rng")
        return RandomPolicy(rng)
    if key == "roundrobin":
        return RoundRobinPolicy()
    if key == "fastestpeak":
        return FastestPeakPolicy()
    raise ConfigError(f"unknown scheduling policy {name!r}")
