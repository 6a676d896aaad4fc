"""SINR computation under successive interference cancellation with MRC.

Each user's packet is in one of three phases per slot:

    S  last transmission succeeded; a fresh packet goes out next slot
    R  first transmission failed; the retransmission goes out next slot
    F  the retransmission also failed; the packet is dropped and a fresh
       one goes out next slot

A retransmitting user has two copies of its codeword at the receiver.
The stored first copy still contains the signals of users whose packets
remain unknown: users now in F, and users now in R that SIC has not yet
decoded this slot (decoding the identical retransmission reveals the
first copy too, so it can be subtracted).  The fresh copy sees every
not-yet-decoded user.  MRC adds the two copies' SINRs.

SIC decodes greedily: at each stage the undecoded user with the highest
SINR (recomputed after the cancellations so far) goes next.  Ties break
toward the lowest user index so the decoding order, and with it the whole
Markov analysis, stays deterministic when users share a power ratio.

The scalar functions here (stage_sinr, decoding_order) are the reference
oracle that the tests and the benchmark compare against; the analysis and
the simulators never call them, but build the SIC stage tables of all
states at once in markov._stage_tables.
"""

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import AbstractSet, Tuple

import numpy as np

from .fbl import CodeParams

# simplex constraint tolerance for the power splitting ratios
ALPHA_SUM_TOL = 1e-9


class Phase(IntEnum):
    """Per-user packet phase; the integer value is the base-3 state digit."""

    S = 0
    R = 1
    F = 2


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters for one NOMA cluster.

    alphas are the power splitting ratios (sum to 1); user i's received
    power at the base station is alphas[i] * p0 with noise power fixed
    at 1, so p0 is the total received SNR in linear scale.
    """

    alphas: Tuple[float, ...]
    p0: float
    code: CodeParams

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 1:
            raise ValueError("at least one user required")
        if any(not (a > 0.0) for a in self.alphas):
            raise ValueError(f"power ratios must be positive, got {self.alphas}")
        total = math.fsum(self.alphas)
        if abs(total - 1.0) > ALPHA_SUM_TOL:
            raise ValueError(f"power ratios must sum to 1, got {total!r}")
        if not (self.p0 > 0.0 and math.isfinite(self.p0)):
            raise ValueError(f"total received power must be positive, got {self.p0!r}")

    @property
    def n_users(self) -> int:
        return len(self.alphas)

    @property
    def powers(self) -> np.ndarray:
        """Per-user received powers alphas[i] * p0."""
        return np.asarray(self.alphas) * self.p0


@dataclass(frozen=True)
class SystemState:
    """Joint phase vector of all users, with a base-3 integer encoding."""

    phases: Tuple[Phase, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "phases", tuple(Phase(p) for p in self.phases)
        )

    @property
    def n_users(self) -> int:
        return len(self.phases)

    @property
    def index(self) -> int:
        """Canonical encoding: user i contributes phase * 3**i."""
        return sum(int(p) * 3**i for i, p in enumerate(self.phases))

    @classmethod
    def from_index(cls, index: int, n_users: int) -> "SystemState":
        if not 0 <= index < 3**n_users:
            raise ValueError(f"state index {index} out of range for {n_users} users")
        return cls(tuple(Phase((index // 3**i) % 3) for i in range(n_users)))


@dataclass(frozen=True)
class DecodingOrder:
    """SIC decoding order and the SINR seen at each stage."""

    order: Tuple[int, ...]
    stage_sinrs: Tuple[float, ...]


def stage_sinr(
    state: SystemState, decoded: AbstractSet[int], j: int, cfg: SystemConfig
) -> float:
    """SINR of user j given the set of users already cancelled this slot.

    For a fresh packet (phase S or F) only the undecoded users interfere.
    For a retransmission (phase R) the fresh copy sees the undecoded
    users while the stored first copy sees F users plus undecoded R
    users; the two copies' SINRs add (MRC).
    """
    if j in decoded:
        raise ValueError(f"user {j} already decoded")
    p = cfg.powers
    undecoded = [w for w in range(cfg.n_users) if w not in decoded]
    # fsum is exactly rounded, so users with equal powers see bit-equal
    # interference whatever the summation order, and ties stay exact
    interference_new = math.fsum(p[w] for w in undecoded if w != j)
    gamma = p[j] / (interference_new + 1.0)
    if state.phases[j] is Phase.R:
        stored_interferers = [
            w
            for w in range(cfg.n_users)
            if w != j
            and (
                state.phases[w] is Phase.F
                or (state.phases[w] is Phase.R and w not in decoded)
            )
        ]
        gamma += p[j] / (math.fsum(p[w] for w in stored_interferers) + 1.0)
    return float(gamma)


def decoding_order(state: SystemState, cfg: SystemConfig) -> DecodingOrder:
    """Greedy SIC order: at each stage pick the undecoded user with the
    highest SINR, assuming all previous stages succeeded.

    Deterministic; ties go to the lowest user index.
    """
    decoded: set[int] = set()
    order = []
    sinrs = []
    for _ in range(cfg.n_users):
        best_j, best_g = -1, -1.0
        for j in range(cfg.n_users):
            if j in decoded:
                continue
            g = stage_sinr(state, decoded, j, cfg)
            if g > best_g:
                best_j, best_g = j, g
        order.append(best_j)
        sinrs.append(best_g)
        decoded.add(best_j)
    return DecodingOrder(order=tuple(order), stage_sinrs=tuple(sinrs))
