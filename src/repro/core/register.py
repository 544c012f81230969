"""Abstract register interface.

Every register client implementation in :mod:`repro.registers` exposes this
interface: asynchronous ``read`` and ``write`` returning futures that settle
when the operation's response arrives, per the invocation/response model of
Section 3.  The history recorder is shared so the spec checkers in
:mod:`repro.core.spec` can audit any implementation.
"""

from typing import Optional

from repro.core.history import RegisterHistory


class AbstractRegister:
    """A multi-reader single-writer shared register (client-side handle).

    A subclass defines ``read()``, a future resolving with the value, and
    ``write(value)``, a future resolving on the Ack.  ``history`` is the
    register's shared history, or None when the deployment records none.
    """

    def __init__(self, name: str, history: Optional[RegisterHistory]) -> None:
        self.name = name
        self.history = history
