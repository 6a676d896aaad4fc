"""Finite blocklength packet-error-rate primitives (normal approximation).

Error rates for short packets are computed with the normal approximation:
the decoder fails with probability

    eps = Q( (n*log2(1+gamma) - k + log2(n)) / sqrt(n*V(gamma)) )

where V is the channel dispersion.  Chase combining adds the per-copy
SINRs (MRC) before applying the formula.  All SINRs are linear-scale;
dB conversion belongs to the caller.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import erfc

# (log2 e)^2, the high-SNR limit of the channel dispersion in bits^2
LOG2E_SQ = math.log2(math.e) ** 2


@dataclass(frozen=True)
class CodeParams:
    """Channel code parameters: k information bits in an n-use codeword."""

    k: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def rate(self) -> float:
        """Code rate R = k/n.  May exceed 1; the PER formulas still evaluate."""
        return self.k / self.n


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    The erfc identity is numerically stable deep into the tails; the
    result underflows to exactly 0.0 rather than going negative.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires finite input, got {x!r}")
    return 0.5 * float(erfc(x / math.sqrt(2.0)))


def channel_dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = (1 - (1+gamma)^-2) * (log2 e)^2 in bits^2.

    Zero at gamma = 0, increasing, bounded by (log2 e)^2.  gamma = inf is
    accepted as a saturated-SINR sentinel and returns the bound.
    """
    if math.isnan(gamma) or gamma < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma!r}")
    return (1.0 - (1.0 + gamma) ** -2) * LOG2E_SQ


def per_cc(gamma_cc: float, code: CodeParams) -> float:
    """Packet error rate under Chase combining at MRC-combined SINR gamma_cc.

    gamma_cc is the sum of the per-copy SINRs.  Returns 1.0 for
    gamma_cc = 0 (zero mutual information cannot carry k >= 1 bits) and
    clamps the result to [0, 1].
    """
    if math.isnan(gamma_cc) or gamma_cc < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma_cc!r}")
    if gamma_cc == 0.0:
        return 1.0
    if math.isinf(gamma_cc):
        return 0.0
    v = channel_dispersion(gamma_cc)
    num = code.n * math.log2(1.0 + gamma_cc) - code.k + math.log2(code.n)
    if v <= 0.0:
        # dispersion underflow at tiny SINR: outcome decided by the mean term
        return 1.0 if num < 0.0 else 0.0
    eps = q_function(num / math.sqrt(code.n * v))
    return min(1.0, max(0.0, eps))


def per_cc_batch(gammas: np.ndarray, code: CodeParams) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per_cc over an array of MRC-combined SINRs, with the
    matching success probabilities: returns (eps, 1 - eps).

    The smaller of the two is the Gaussian tail Q(|z|) and the larger its
    complement, so a success probability near 0 keeps its relative
    precision just as an error rate near 0 does.  Entries <= 0 map to
    (1.0, 0.0).  Used by the successor-table builder, where inputs are
    constructed internally and already validated.
    """
    g = np.asarray(gammas, dtype=float)
    z = np.full_like(g, -np.inf)
    ok = g > 0.0
    gg = g[ok]
    v = (1.0 - (1.0 + gg) ** -2) * LOG2E_SQ
    num = code.n * np.log2(1.0 + gg) - code.k + math.log2(code.n)
    # dispersion can underflow to 0 for tiny positive SINR; the mean term decides
    with np.errstate(divide="ignore", invalid="ignore"):
        z[ok] = np.where(v > 0.0, num / np.sqrt(code.n * v),
                         np.where(num < 0.0, -np.inf, np.inf))
    tail = 0.5 * erfc(np.abs(z) / math.sqrt(2.0))
    fails_rarely = z >= 0.0
    return (np.where(fails_rarely, tail, 1.0 - tail),
            np.where(fails_rarely, 1.0 - tail, tail))
