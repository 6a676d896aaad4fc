"""Finite blocklength packet-error-rate primitives (normal approximation).

Error rates for short packets are computed with the normal approximation:
the decoder fails with probability

    eps = Q( (n*log2(1+gamma) - k + log2(n)) / sqrt(n*V(gamma)) )

where V(gamma) = (1 - (1+gamma)^-2) * (log2 e)^2 is the channel
dispersion.  Chase combining adds the per-copy SINRs (MRC) before
applying the formula.  All SINRs are linear-scale; dB conversion belongs
to the caller.

Domain: n <= 2^k.  There the mean term n*log2(1+gamma) - k + log2(n) is at
most 0 at gamma = 0 and eps falls as the SINR rises.  Above 2^k the
term is positive at zero SINR, so eps is small for a user that carries
no information (k = 4, n = 64 gives eps = 4.0e-35 at -40 dB) and rises
with the SINR near zero.  The formula still evaluates there; its values
are not error rates.
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


def per_cc_batch(gammas: np.ndarray, code: CodeParams) -> Tuple[np.ndarray, np.ndarray]:
    """Packet error rates under Chase combining at an array of
    MRC-combined SINRs, with the matching success probabilities:
    returns (eps, 1 - eps).

    The smaller of the two is the Gaussian tail Q(|z|) and the larger its
    complement, so a success probability near 0 keeps its relative
    precision just as an error rate near 0 does.  Entries <= 0 map to
    (1.0, 0.0).  The package's one error-rate path: its callers build the
    SINRs internally, so they are not validated here.
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
