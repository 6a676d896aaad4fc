"""Dynamic cell planning for uncoordinated power selection.

A plan of n_hat power splitting ratios splits the cell into n_hat
equal-area annuli and n_hat equal-angle sectors (n_hat^2 segments of
area pi*R^2/n_hat^2 each): its size is its ratio count.  Every segment
is assigned one of the ratios through a cyclic Latin square, so the
ratios in each annulus and in each sector sum to 1.
Rotating the assignment one step per slot cycles every segment through
all ratios, equalizing average transmit power across the cell.

Ring i covers distances (r_{i-1}, r_i] (outer boundary inclusive);
sector s covers angles [2*pi*s/n_hat, 2*pi*(s+1)/n_hat).  Positions are
polar, relative to the base station at the origin; locate_segment maps
arrays of them to (ring, sector) index arrays, so a plan's assignment
grid gives every user's ratio index in one lookup.  The simulators use a
cell of radius CELL_RADIUS, also the default of `cellplan --r-outer`.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi
# cell radius in metres
CELL_RADIUS = 1500.0


def ring_radii(n_hat: int, r_outer: float) -> Tuple[float, ...]:
    """Radii r_i = sqrt(i/n_hat) * r_outer for i = 1..n_hat.

    Every annulus then has the same area pi*r_outer^2/n_hat.
    """
    if not (isinstance(n_hat, (int, np.integer)) and n_hat >= 1):
        raise ValueError(f"n_hat must be a positive integer, got {n_hat!r}")
    if not (r_outer > 0.0 and math.isfinite(r_outer)):
        raise ValueError(f"r_outer must be positive, got {r_outer!r}")
    return tuple(math.sqrt(i / n_hat) * r_outer for i in range(1, n_hat + 1))


@dataclass(frozen=True)
class CellPlan:
    """Equal-area segmentation with a rotating cyclic ratio assignment.

    alphas holds the n_hat ratio values sorted ascending; segment (ring,
    sector) uses ratio index (ring + sector + rotation) mod n_hat.
    Immutable: advancing the rotation produces a new plan.
    """

    r_outer: float
    alphas: Tuple[float, ...]
    rotation: int = 0

    def __post_init__(self):
        ring_radii(self.n_hat, self.r_outer)  # validates the ratio count and r_outer
        if any(not (a > 0.0) for a in self.alphas):
            raise ValueError("ratios must be positive")

    @property
    def n_hat(self) -> int:
        return len(self.alphas)

    @property
    def ring_boundaries(self) -> Tuple[float, ...]:
        return ring_radii(self.n_hat, self.r_outer)

    @property
    def assignment(self) -> np.ndarray:
        """n_hat x n_hat grid of ratio indices, rows = rings."""
        grid = np.add.outer(np.arange(self.n_hat), np.arange(self.n_hat))
        return (grid + self.rotation) % self.n_hat

    def rotated(self, steps: int = 1) -> "CellPlan":
        """Plan with the ratio assignment advanced by the given slots."""
        return replace(self, rotation=self.rotation + steps)

    def to_dict(self) -> dict:
        return {
            "n_hat": self.n_hat,
            "r_outer": self.r_outer,
            "ring_radii": list(self.ring_boundaries),
            "assignment": self.assignment.tolist(),
            "rotation": self.rotation,
        }


def build_plan(r_outer: float, alphas: Sequence[float], rotation: int = 0) -> CellPlan:
    """Construct the plan of one ratio per estimated user; ratios are sorted
    ascending before the cyclic assignment so the mapping is reproducible."""
    return CellPlan(r_outer=r_outer, alphas=tuple(sorted(float(a) for a in alphas)),
                    rotation=rotation)


def locate_segment(distances, angles, plan: CellPlan) -> Tuple[np.ndarray, np.ndarray]:
    """Map polar positions to the (rings, sectors) index arrays of their
    segments; plan.assignment[rings, sectors] are their ratio indices.

    Distances must be positive and at most plan.r_outer, angles finite;
    angles are reduced mod 2*pi.  Anything else raises ValueError.
    """
    distances = np.asarray(distances, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if not np.all(distances > 0.0):
        raise ValueError(f"distances must be positive, got {float(distances.min())}")
    if not np.all(distances <= plan.r_outer):
        raise ValueError(f"a position at {float(distances.max())} m lies outside the "
                         f"{plan.r_outer} m cell")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    rings = np.searchsorted(plan.ring_boundaries, distances, side="left")
    sectors = (np.mod(angles, TWO_PI) * plan.n_hat / TWO_PI).astype(np.int64)
    return rings, np.minimum(sectors, plan.n_hat - 1)
