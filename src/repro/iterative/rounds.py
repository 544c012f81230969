"""Round accounting.

Section 7 of the paper: "A round finishes when every process completes at
least one iteration of Alg. 1 in which it reads the registers, applies the
function, and writes its registers."  In a synchronous execution a round is
exactly one loop iteration per process; in an asynchronous execution fast
processes may complete several iterations within one round.
"""

from typing import Dict


class RoundTracker:
    """Counts rounds from per-process iteration-completion reports."""

    def __init__(self, num_processes: int) -> None:
        if num_processes < 1:
            raise ValueError(f"need at least one process, got {num_processes}")
        self.num_processes = num_processes
        self.rounds_completed = 0
        self.iterations: Dict[int, int] = {p: 0 for p in range(num_processes)}
        self._seen_this_round: set = set()

    def report_iteration(self, process: int) -> bool:
        """Record that ``process`` completed one loop iteration.

        Returns True when this report closes a round.
        """
        if process not in self.iterations:
            raise ValueError(f"unknown process {process}")
        self.iterations[process] += 1
        self._seen_this_round.add(process)
        if len(self._seen_this_round) == self.num_processes:
            self.rounds_completed += 1
            self._seen_this_round = set()
            return True
        return False

    @property
    def total_iterations(self) -> int:
        """Sum of loop iterations across all processes."""
        return sum(self.iterations.values())

    def __repr__(self) -> str:
        return (
            f"RoundTracker(rounds={self.rounds_completed}, "
            f"iterations={self.total_iterations})"
        )
