"""The full-DES reference schedule: every transfer and facility hold as
a generator process.

The kernel collapses process machinery wherever it can: a transfer runs
as callbacks (``Network._start_transfer`` — one completion callback
without faults, one callback per attempt under a fault plan), a
fire-and-forget send elides its delivery event (``Network.post``) and an
uncontended disk/CPU hold sleeps through one timeout (``Host._use``).
:func:`full_des` patches those three methods back to the classic
all-process schedule, and :func:`process_transfers` patches only
``_start_transfer``, so equivalence tests can compare both ways:
results must match bit for bit, only the kernel-accounting counters may
differ.

The transfer generator below is self-contained: it shares only the
post-wire tail (``Network._finish_transfer``) and the arbiter rescan
with the code under test, never the attempt logic.  It counts its own
``des_transfers`` in the message's ledger row before the shared tail.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.faults.plan import TransferAbandoned
from repro.net.host import Host
from repro.net.network import Network
from repro.obs.events import NET_ABANDON, NET_DROP, NET_RETRANSMIT


def _post(self, message, src_host=None, dst_host=None):
    self.send(message, src_host, dst_host)


def _start_transfer(self, message, src, dst, done):
    self.env.process(
        _run_transfer(self, message, src, dst, done),
        name=f"xfer#{message.uid}",
    )


def _run_transfer(net, message, src, dst, done):
    """One transfer as a process: init event, one Timeout per attempt,
    and a process-completion event nobody waits on."""
    link = net.link(src, dst)
    if net._faults is None:
        started = net.env.now
        duration = link.transmission_time(message.wire_size, started)
        yield net.env.timeout(duration)
    else:
        attempt = yield from _faulty_attempts(net, message, link, src, dst, done)
        if attempt is None:
            return  # abandoned: NICs released, done failed (defused)
        started, duration = attempt
    net.stats_for(message.query_id).des_transfers += 1
    net._finish_transfer(message, src, dst, done, link, started, duration)


def _faulty_attempts(net, message, link, src, dst, done):
    """Attempt the transfer under the installed fault plan.

    Returns ``(started, duration)`` of the successful attempt, or None
    once the retry budget ran out and the message was abandoned.
    """
    faults = net._faults
    retry = faults.retry
    tracer = net._tracer
    query_id = message.query_id
    wire_size = message.wire_size
    attempt = 0
    while True:
        attempt += 1
        now = net.env.now
        reason = faults.link_blocked(src, dst, now)
        if reason is None:
            started = now
            duration = link.transmission_time(wire_size, started)
            if not faults.drop_message(src, dst):
                yield net.env.timeout(duration)
                return started, duration
            net.stats_for(query_id).dropped_bytes += wire_size
            if tracer.enabled:
                fields = {
                    "src_host": src,
                    "dst_host": dst,
                    "uid": message.uid,
                    "bytes": wire_size,
                }
                if query_id is not None:
                    fields["query_id"] = query_id
                tracer.emit(NET_DROP, now, fields)
            reason = "loss"
            wait = duration + retry.backoff_delay(attempt)
        else:
            wait = retry.backoff_delay(attempt)
        if retry.max_attempts is not None and attempt >= retry.max_attempts:
            net.stats_for(query_id).abandoned_messages += 1
            if tracer.enabled:
                fields = {
                    "src_host": src,
                    "dst_host": dst,
                    "uid": message.uid,
                    "attempts": attempt,
                    "reason": reason,
                }
                if query_id is not None:
                    fields["query_id"] = query_id
                tracer.emit(NET_ABANDON, now, fields)
            net._active_transfers[src] -= 1
            net._active_transfers[dst] -= 1
            net._scan_needed = True
            if done is not None:
                done.defused = True
                done.fail(
                    TransferAbandoned(
                        f"message #{message.uid} {src}->{dst} abandoned "
                        f"after {attempt} attempts ({reason})"
                    )
                )
            net._dispatch_transfers()
            return None
        net.stats_for(query_id).retransmissions += 1
        if tracer.enabled:
            fields = {
                "src_host": src,
                "dst_host": dst,
                "uid": message.uid,
                "attempt": attempt,
                "reason": reason,
                "wait": wait,
            }
            if query_id is not None:
                fields["query_id"] = query_id
            tracer.emit(NET_RETRANSMIT, now, fields)
        yield net.env.timeout(wait)


def _use(self, resource, seconds):
    with resource.request() as req:
        yield req
        yield self.env.timeout(seconds)


@contextmanager
def _patched(patches) -> Iterator[None]:
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextmanager
def process_transfers() -> Iterator[None]:
    """Run every enclosed transfer as a generator process (nothing else)."""
    with _patched([(Network, "_start_transfer", _start_transfer)]):
        yield


@contextmanager
def full_des() -> Iterator[None]:
    """Run the enclosed simulations on the full-DES schedule."""
    with _patched(
        [
            (Network, "post", _post),
            (Network, "_start_transfer", _start_transfer),
            (Host, "_use", _use),
        ]
    ):
        yield
