"""Positional encodings: fixed sinusoidal relative, learned relative, learned absolute.

Three schemes are supported. ``RelPositionTable.block(n, role)`` returns the
2n-1 distinct offset rows a_{-(n-1)} .. a_{n-1} of a length-n sequence as
one (2n-1, d_z) array. FRPE vectors are a pure function of the signed offset
j - i: any length works, lookups never modify the table, and the table
registers no parameters. Attention reads one FRPE block per layer and uses
only its upper half, the n absolute rows a_0 .. a_{n-1}, through the
angle-addition identity. PRPE keeps two learned (2k+1, d_z) banks (key and
value roles) indexed by the offset clipped at k; attention reads the banks
themselves, and only the composite oracles widen them through ``block``.
FRPE attention needs O(n^2 + n*d_z) memory per head, PRPE O(n^2 + n*k).
PAPE's learned per-position rows are an encoder parameter (``abspos.table``)
added to the input embeddings; only the scheme name lives here.
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

    An FRPE table holds ``rows``: one sinusoidal bank shared by the key and
    value roles, built once over [-(max_len-1), max_len-1] and never
    modified. Offsets past it come from the same formula, in a wider bank
    built once for the longest length asked for. A PRPE table holds separate
    learned banks clipped at ``clip`` offsets.
    """
    d_z: int
    max_len: int
    clip: int = 0
    rows: np.ndarray | None = None          # FRPE bank, offset-indexed
    bank_k: Tensor | None = None            # PRPE key bank
    bank_v: Tensor | None = None            # PRPE value bank
    _wide: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def parameters(self) -> dict[str, Tensor]:
        if self.rows is not None:
            return {}
        return {"relpos.bank_k": self.bank_k, "relpos.bank_v": self.bank_v}

    def block(self, n: int, role: str = "K") -> Tensor:
        """Offset rows R of shape (2n-1, d_z), with R[o] = a_{o-(n-1)}.

        These are the 2n-1 distinct vectors a_{j-i} for i, j in [0, n); any
        length is allowed, since FRPE rows are a function of the offset.
        """
        offsets = np.arange(-(n - 1), n)
        if self.rows is not None:
            rows = self.rows
            if n > self.max_len:
                if self._wide is None or len(self._wide) < 2 * n - 1:
                    self._wide = frpe_vector(offsets, self.d_z)
                rows = self._wide
            mid = (len(rows) + 1) // 2              # rows[mid - 1] is offset 0
            return Tensor(rows[mid - n:mid + n - 1])
        bank = self.bank_k if role == "K" else self.bank_v
        return bank.take_rows(np.clip(offsets, -self.clip, self.clip) + self.clip)


def build_rel_table(max_len: int, d_z: int, scheme: Scheme,
                    rng_seed: int = 0, clip: int = 16) -> RelPositionTable:
    """Construct the relative-offset table for FRPE or PRPE."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    scheme = Scheme(scheme)
    if scheme not in (Scheme.FRPE, Scheme.PRPE):
        raise ValueError(f"build_rel_table only handles relative schemes, got {scheme.value}")
    if scheme is Scheme.FRPE:
        offsets = np.arange(-(max_len - 1), max_len)
        return RelPositionTable(d_z=d_z, max_len=max_len, rows=frpe_vector(offsets, d_z))
    if clip < 1:
        raise ValueError("clip distance must be >= 1")
    rng = np.random.default_rng(rng_seed)
    shape = (2 * clip + 1, d_z)
    return RelPositionTable(
        d_z=d_z, max_len=max_len, clip=clip,
        bank_k=Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True, name="relpos.bank_k"),
        bank_v=Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True, name="relpos.bank_v"),
    )
