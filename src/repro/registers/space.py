"""Register namespace: metadata and histories shared by clients and servers."""

from typing import Any, Dict, Optional

from repro.core.history import RegisterHistory


class RegisterInfo:
    """Metadata for one register: its history (None when the deployment
    records none), writer and initial value."""

    __slots__ = ("name", "history", "writer", "initial_value")

    def __init__(
        self,
        name: str,
        writer: Optional[int],
        initial_value: Any,
        record_history: bool = True,
    ) -> None:
        self.name = name
        self.history: Optional[RegisterHistory] = (
            RegisterHistory(name, initial_value) if record_history else None
        )
        self.writer = writer
        self.initial_value = initial_value

    def __repr__(self) -> str:
        return f"RegisterInfo({self.name!r}, writer={self.writer})"


class RegisterSpace:
    """All registers of a deployment, keyed by name.

    The space owns the authoritative :class:`RegisterHistory` per register,
    which every client records into; the spec checkers in
    :mod:`repro.core.spec` audit these histories after a run.
    """

    def __init__(self, record_history: bool = True) -> None:
        self._registers: Dict[str, RegisterInfo] = {}
        self.record_history = record_history

    def declare(
        self, name: str, writer: Optional[int] = None, initial_value: Any = None
    ) -> RegisterInfo:
        """Create a register.  ``writer`` is the single client allowed to
        write it (None disables the check, for tests)."""
        if name in self._registers:
            raise ValueError(f"register {name!r} already declared")
        info = RegisterInfo(name, writer, initial_value, self.record_history)
        self._registers[name] = info
        return info

    def info(self, name: str) -> RegisterInfo:
        """Look up a register's metadata."""
        if name not in self._registers:
            raise KeyError(f"unknown register {name!r}")
        return self._registers[name]

    def history(self, name: str) -> Optional[RegisterHistory]:
        """The history of one register (None without ``record_history``)."""
        return self.info(name).history

    @property
    def names(self) -> list:
        """All register names, sorted."""
        return sorted(self._registers)

    def __contains__(self, name: str) -> bool:
        return name in self._registers

    def __len__(self) -> int:
        return len(self._registers)

    def __repr__(self) -> str:
        return f"RegisterSpace({len(self._registers)} registers)"
