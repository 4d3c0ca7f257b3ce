"""Request sequencing: pin related requests (and shared operands) to one
server.

A recurring NetSolve workload is a *sequence* of calls sharing a large
operand — power-method steps reusing the same matrix, iterative
refinement reusing the factored system, a sweep of right-hand sides
against one ``A``.  Brokering every call independently re-ships the
operand each time; sequencing ships it **once** to a chosen server's
object cache and references it thereafter:

    seq = open_sequence(client, "blas/dgemv", {"m": n, "n": n},
                        wait=tb.transport.run_until)
    seq.store("A", big_matrix)
    for x in vectors:
        handle = seq.submit("blas/dgemv", [seq.ref("A"), x])

The trade is explicit: sequenced requests are pinned — no fail-over —
because the sequence's data lives on that one server.  (The original
project shipped this idea as "request sequencing" in a later release;
here it is the documented extension experiment E1.)
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Mapping, Optional, Sequence

from .core.client import NetSolveClient, RequestHandle
from .errors import NetSolveError, NoServerError
from .protocol.messages import Candidate, DataHandle
from .protocol.transport import Promise

__all__ = ["ServerSequence", "open_sequence"]

Waiter = Callable[[Promise], Any]
_seq_ids = itertools.count()


class ServerSequence:
    """A handle for one client's pinned session with one server."""

    def __init__(
        self,
        client: NetSolveClient,
        *,
        server_address: str,
        server_id: str = "",
        wait: Optional[Waiter] = None,
    ):
        self.client = client
        self.server_address = server_address
        self.server_id = server_id or server_address
        self._wait = wait
        #: keys stored through this sequence (namespaced), for cleanup
        self.keys: list[str] = []
        #: qualified key -> value, kept client-side so a server that
        #: lost an operand (restart the hard way, eviction) is answered
        #: by re-submitting with the payload inlined instead of failing
        self._values: dict[str, Any] = {}
        self._namespace = f"seq{next(_seq_ids)}/{client.client_id}"

    # ------------------------------------------------------------------
    def _qualify(self, key: str) -> str:
        return f"{self._namespace}/{key}"

    def ref(self, key: str) -> DataHandle:
        """Reference a previously stored operand by its local key."""
        return DataHandle(
            self._qualify(key),
            server_id=self.server_id,
            address=self.server_address,
        )

    def store(self, key: str, value: Any) -> Any:
        """Ship ``value`` to the sequence's server once.

        Blocking when the sequence has a waiter (returns the stored
        operand's :class:`DataHandle`); otherwise returns the promise.
        """
        promise = self.client.store_handle(
            self.server_address, self._qualify(key), value
        )
        self.keys.append(key)
        self._values[self._qualify(key)] = value
        if self._wait is None:
            return promise
        return self._wait(promise)

    def submit(
        self, problem: str, args: Sequence[Any], *, keep_result: bool = False
    ) -> RequestHandle:
        """Pinned non-blocking submit; args may contain :meth:`ref`\\ s.

        The stored values ride along as recovery payloads: a server that
        answers "missing object" (it restarted, or evicted the operand)
        gets the request once more with the lost operands inlined.
        ``keep_result=True`` leaves outputs resident on the server and
        resolves with :class:`~repro.protocol.messages.DataHandle` stubs.
        """
        return self.client.submit_pinned(
            problem, args, self.server_address, server_id=self.server_id,
            keep_result=keep_result, payloads=dict(self._values),
        )

    def solve(
        self, problem: str, args: Sequence[Any], *, keep_result: bool = False
    ) -> tuple:
        """Pinned blocking call (requires a waiter)."""
        if self._wait is None:
            raise NetSolveError("sequence has no waiter; use submit()")
        handle = self.submit(problem, args, keep_result=keep_result)
        return self._wait(handle.promise)

    def release(self) -> list[Any]:
        """Delete every stored operand; returns the delete promises
        (or their results, when a waiter is attached)."""
        out = []
        for key in self.keys:
            promise = self.client.delete_stored(
                self.server_address, self._qualify(key)
            )
            out.append(self._wait(promise) if self._wait else promise)
        self.keys.clear()
        self._values.clear()
        return out


def open_sequence(
    client: NetSolveClient,
    problem: str,
    sizes: Mapping[str, int],
    *,
    wait: Waiter,
) -> ServerSequence:
    """Ask the agent for the best server for ``problem`` at ``sizes``,
    then open a sequence pinned to it.

    The agent choice uses the normal brokered query (so sequencing still
    starts from the scheduler's knowledge); everything after is pinned.
    """
    promise = client.query_candidates(problem, dict(sizes))
    candidates: list[Candidate] = wait(promise)
    if not candidates:
        raise NoServerError(problem)
    best = candidates[0]
    return ServerSequence(
        client,
        server_address=best.address,
        server_id=best.server_id,
        wait=wait,
    )
