"""Trajectory containers shared by the deterministic and stochastic solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrajectorySet:
    """Snapshots of one run: times and states in FEM coordinates.

    Vertex continuity holds at every snapshot by construction of the shared
    vertex dofs.  ``sup_norm`` is the maximum nodal absolute value over every
    step taken (not only the saved snapshots).
    """

    times: np.ndarray       # (n_snap,)
    states: np.ndarray      # (n_snap, ndof)
    scheme: str
    sup_norm: float
    trajectory_id: int = 0

    def final_state(self) -> np.ndarray:
        return self.states[-1]
