"""Positional encodings: fixed sinusoidal relative, learned relative, learned absolute.

Three schemes are supported. Relative schemes give each (query i, key j)
pair a vector a_{j-i}. FRPE's is a fixed sinusoid of the signed offset, so
attention reads it through the n absolute rows a_0 .. a_{n-1} and the
angle-addition identity: ``RelPositionTable.block(n)`` returns them as one
(n, d_z) array. Any length works, lookups never modify the table, and the
table registers no parameters. PRPE keeps two learned (2k+1, d_z) banks (key
and value roles), and a_{j-i} is row clip(j - i, -k, k) + k; attention reads
the banks themselves. FRPE attention needs O(n^2 + n*d_z) memory per head,
PRPE O(n^2 + n*k). PAPE's learned per-position rows are an encoder parameter
(``abspos.table``) added to the input embeddings; only the scheme name lives
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensor import Tensor


class Scheme(str, Enum):
    FRPE = "frpe"
    PRPE = "prpe"
    PAPE = "pape"
    NONE = "none"

    @property
    def relative(self) -> bool:
        return self in (Scheme.FRPE, Scheme.PRPE)


def frpe_vector(deltas, d_z: int) -> np.ndarray:
    """Sinusoidal encodings of signed offsets, shape np.shape(deltas) + (d_z,).

    Component 2k is sin(delta / 10000^(2k/d_z)), component 2k+1 the matching
    cosine; wavelengths form a geometric progression from 2*pi to 10000*2*pi.
    One int offset gives one (d_z,) vector.
    """
    if d_z % 2 != 0 or d_z <= 0:
        raise ValueError(f"d_z must be a positive even integer, got {d_z}")
    deltas = np.asarray(deltas, dtype=np.float64)
    k = np.arange(d_z // 2)
    angle = deltas[..., None] / (10000.0 ** (2.0 * k / d_z))
    out = np.empty(deltas.shape + (d_z,))
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


@dataclass
class RelPositionTable:
    """Encoding vectors a_delta of signed offsets delta = j - i.

    An FRPE table holds ``rows``: the sinusoids a_0 .. a_{max_len-1}, shared
    by the key and value roles, built once and never modified. Longer
    sequences read the same formula from a wider bank, built once for the
    longest length asked for. A PRPE table holds separate learned banks
    clipped at ``clip`` offsets.
    """
    d_z: int
    max_len: int
    clip: int = 0
    rows: np.ndarray | None = None          # FRPE rows a_0 .. a_{max_len-1}
    bank_k: Tensor | None = None            # PRPE key bank
    bank_v: Tensor | None = None            # PRPE value bank
    _wide: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        if self.rows is not None:
            return {}
        return {"relpos.bank_k": self.bank_k, "relpos.bank_v": self.bank_v}

    def block(self, n: int) -> np.ndarray:
        """FRPE rows P of shape (n, d_z), with P[j] = a_j; any length is allowed."""
        if self.rows is None:
            raise ValueError("block reads FRPE rows; a PRPE table's banks are read directly")
        rows = self.rows
        if n > self.max_len:
            if self._wide is None or len(self._wide) < n:
                self._wide = frpe_vector(np.arange(n), self.d_z)
            rows = self._wide
        return rows[:n]


def build_rel_table(max_len: int, d_z: int, scheme: Scheme,
                    rng_seed: int = 0, clip: int = 16) -> RelPositionTable:
    """Construct the relative-offset table for FRPE or PRPE."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    scheme = Scheme(scheme)
    if scheme not in (Scheme.FRPE, Scheme.PRPE):
        raise ValueError(f"build_rel_table only handles relative schemes, got {scheme.value}")
    if scheme is Scheme.FRPE:
        return RelPositionTable(d_z=d_z, max_len=max_len,
                                rows=frpe_vector(np.arange(max_len), d_z))
    if clip < 1:
        raise ValueError("clip distance must be >= 1")
    rng = np.random.default_rng(rng_seed)
    shape = (2 * clip + 1, d_z)
    return RelPositionTable(
        d_z=d_z, max_len=max_len, clip=clip,
        bank_k=Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True),
        bank_v=Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True),
    )
