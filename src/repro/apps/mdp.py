"""Asynchronous dynamic programming: MDP value iteration as an ACO.

Distributed/asynchronous dynamic programming is the flagship application
of the Bertsekas-Tsitsiklis asynchronous-iteration theory the paper
builds on (their Chapter 7 opens with it).  The Bellman operator

    (T V)(s) = max_a [ r(s, a) + γ · Σ_{s'} P(s' | s, a) · V(s') ]

is a γ-contraction in the max norm, so totally asynchronous value
iteration — each process owning a block of states, reading possibly
stale values of the others — converges to the optimal value function V*.
Over random registers, Theorem 3 applies verbatim.

Includes a small gridworld generator used by the tests and the
``examples/gridworld_planning.py`` example.
"""

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.iterative.aco import ACO, ACOError

# transitions[s][a] = list of (probability, next_state, reward)
Transition = Tuple[float, int, float]


class MarkovDecisionProcess:
    """A finite MDP with tabular transitions."""

    def __init__(
        self,
        num_states: int,
        num_actions: int,
        discount: float,
    ) -> None:
        if num_states < 1 or num_actions < 1:
            raise ValueError(
                f"need at least one state and action, got {num_states}, "
                f"{num_actions}"
            )
        if not 0.0 <= discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {discount}")
        self.num_states = num_states
        self.num_actions = num_actions
        self.discount = discount
        self._transitions: List[List[List[Transition]]] = [
            [[] for _ in range(num_actions)] for _ in range(num_states)
        ]

    def add_transition(
        self, state: int, action: int, probability: float,
        next_state: int, reward: float,
    ) -> None:
        """Add one (s, a) -> s' outcome."""
        if not 0 <= state < self.num_states:
            raise ValueError(f"state {state} out of range")
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        if not 0 <= next_state < self.num_states:
            raise ValueError(f"next state {next_state} out of range")
        if probability <= 0:
            raise ValueError(f"probability must be positive, got {probability}")
        self._transitions[state][action].append(
            (probability, next_state, reward)
        )

    def validate(self) -> None:
        """Check every (s, a) with outcomes has probabilities summing to 1."""
        for s in range(self.num_states):
            if not any(self._transitions[s][a] for a in range(self.num_actions)):
                raise ValueError(f"state {s} has no actions with outcomes")
            for a in range(self.num_actions):
                outcomes = self._transitions[s][a]
                if not outcomes:
                    continue
                total = sum(p for p, _, _ in outcomes)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"transition probabilities of ({s}, {a}) sum to {total}"
                    )

    def bellman_backup(self, state: int, values: Sequence[float]) -> float:
        """(T V)(s): one Bellman optimality backup."""
        best = -math.inf
        for action in range(self.num_actions):
            outcomes = self._transitions[state][action]
            if not outcomes:
                continue
            q_value = sum(
                p * (r + self.discount * values[s2]) for p, s2, r in outcomes
            )
            if q_value > best:
                best = q_value
        return best

    def greedy_policy(self, values: Sequence[float]) -> List[Optional[int]]:
        """The greedy action per state under ``values``."""
        policy: List[Optional[int]] = []
        for state in range(self.num_states):
            best_action, best_q = None, -math.inf
            for action in range(self.num_actions):
                outcomes = self._transitions[state][action]
                if not outcomes:
                    continue
                q_value = sum(
                    p * (r + self.discount * values[s2])
                    for p, s2, r in outcomes
                )
                if q_value > best_q:
                    best_action, best_q = action, q_value
            policy.append(best_action)
        return policy

    def optimal_values(self, tolerance: float = 1e-12,
                       max_iterations: int = 1_000_000) -> List[float]:
        """V* by synchronous value iteration to numerical convergence."""
        values = [0.0] * self.num_states
        for _ in range(max_iterations):
            new_values = [
                self.bellman_backup(s, values) for s in range(self.num_states)
            ]
            delta = max(abs(a - b) for a, b in zip(values, new_values))
            values = new_values
            if delta <= tolerance * (1.0 - self.discount):
                return values
        raise ACOError("value iteration failed to converge")


class ValueIterationACO(ACO):
    """Bellman backups as an ACO: one scalar component per state."""

    def __init__(
        self,
        mdp: MarkovDecisionProcess,
        tolerance: float = 1e-6,
        initial_values: Optional[Sequence[float]] = None,
    ) -> None:
        mdp.validate()
        if tolerance <= 0:
            raise ACOError(f"tolerance must be positive, got {tolerance}")
        self.mdp = mdp
        self.tolerance = tolerance
        self._initial = (
            [0.0] * mdp.num_states
            if initial_values is None
            else [float(v) for v in initial_values]
        )
        if len(self._initial) != mdp.num_states:
            raise ACOError("initial values length does not match state count")
        self._optimal = mdp.optimal_values()

    @property
    def m(self) -> int:
        return self.mdp.num_states

    def initial(self) -> List[float]:
        return list(self._initial)

    def apply(self, i: int, x: List[float]) -> float:
        return self.mdp.bellman_backup(i, x)

    def fixed_point(self) -> List[float]:
        return list(self._optimal)

    def component_converged(self, i: int, value: float) -> bool:
        return abs(value - self._optimal[i]) <= self.tolerance

    def contraction_depth(self) -> Optional[int]:
        """Pseudocycles to shrink the initial error below tolerance under
        the γ-contraction of the Bellman operator."""
        error0 = max(
            abs(a - b) for a, b in zip(self._initial, self._optimal)
        )
        if error0 <= self.tolerance:
            return 1
        gamma = self.mdp.discount
        if gamma == 0.0:
            return 1
        return max(
            1, math.ceil(math.log(self.tolerance / error0) / math.log(gamma))
        )

    def __repr__(self) -> str:
        return (
            f"ValueIterationACO(states={self.m}, "
            f"gamma={self.mdp.discount}, tol={self.tolerance})"
        )


def gridworld(
    rows: int,
    cols: int,
    goal: Tuple[int, int],
    discount: float = 0.9,
    slip_probability: float = 0.1,
    step_reward: float = -1.0,
    goal_reward: float = 10.0,
    walls: Sequence[Tuple[int, int]] = (),
) -> MarkovDecisionProcess:
    """A standard slippery gridworld: 4 actions, absorbing goal.

    Moving into a wall or off the grid keeps the agent in place.  With
    probability ``slip_probability`` the move goes sideways.
    """
    if not (0 <= goal[0] < rows and 0 <= goal[1] < cols):
        raise ValueError(f"goal {goal} outside the {rows}x{cols} grid")
    if not 0.0 <= slip_probability < 1.0:
        raise ValueError(f"slip probability must be in [0, 1), got {slip_probability}")
    wall_set = set(walls)
    if goal in wall_set:
        raise ValueError("goal cannot be a wall")
    mdp = MarkovDecisionProcess(rows * cols, num_actions=4, discount=discount)
    moves = [(-1, 0), (1, 0), (0, -1), (0, 1)]  # up, down, left, right
    sideways = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}

    def index(r: int, c: int) -> int:
        return r * cols + c

    def destination(r: int, c: int, action: int) -> Tuple[int, int]:
        dr, dc = moves[action]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < rows and 0 <= nc < cols) or (nr, nc) in wall_set:
            return r, c
        return nr, nc

    goal_index = index(*goal)
    for r in range(rows):
        for c in range(cols):
            s = index(r, c)
            if (r, c) in wall_set:
                # Unreachable filler state: self-loop with zero reward.
                for a in range(4):
                    mdp.add_transition(s, a, 1.0, s, 0.0)
                continue
            if s == goal_index:
                for a in range(4):
                    mdp.add_transition(s, a, 1.0, s, 0.0)  # absorbing
                continue
            for a in range(4):
                outcomes: Dict[int, float] = {}
                main = index(*destination(r, c, a))
                outcomes[main] = outcomes.get(main, 0.0) + 1.0 - slip_probability
                for side in sideways[a]:
                    dest = index(*destination(r, c, side))
                    outcomes[dest] = (
                        outcomes.get(dest, 0.0) + slip_probability / 2.0
                    )
                for dest, probability in outcomes.items():
                    if probability <= 0.0:
                        continue  # slip_probability = 0 has no side moves
                    reward = goal_reward if dest == goal_index else step_reward
                    mdp.add_transition(s, a, probability, dest, reward)
    return mdp
