"""The full-DES reference schedule: every transfer and facility hold as
a generator process.

The kernel collapses uncontended, fault-free work: a transfer completes
through one analytic callback (``Network._start_transfer``), a
fire-and-forget send elides its delivery event (``Network.post``) and an
uncontended disk/CPU hold sleeps through one timeout (``Host._use``).
:func:`full_des` patches those three methods back to the classic
all-process schedule, so equivalence tests and the ``fast_path`` leg of
``tools/bench_sweep.py`` can compare both ways: results must match bit
for bit, only the kernel-accounting counters may differ.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.net.host import Host
from repro.net.network import Network


def _post(self, message, src_host=None, dst_host=None):
    self.send(message, src_host, dst_host)


def _start_transfer(self, message, src, dst, done):
    self.env.process(
        self._run_transfer(message, src, dst, done),
        name=f"xfer#{message.uid}",
    )


def _use(self, resource, seconds):
    with resource.request() as req:
        yield req
        yield self.env.timeout(seconds)


@contextmanager
def full_des() -> Iterator[None]:
    """Run the enclosed simulations on the full-DES schedule."""
    patches = [
        (Network, "post", _post),
        (Network, "_start_transfer", _start_transfer),
        (Host, "_use", _use),
    ]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
