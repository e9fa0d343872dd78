"""Multi-head self-attention with optional relative-position terms.

Scores are q_i . (k_j + a^K_{j-i}) / sqrt(d_z) and outputs are
sum_j alpha_ij (v_j + a^V_{j-i}); with no table both relative terms vanish
and the block degrades to vanilla scaled dot-product attention.

The relative terms use the 2n-1 offset rows R (row o holds a_{o-(n-1)}),
the relative-shift trick of Transformer-XL and Music Transformer: a query
is scored against every offset at once, q @ R^K.T of shape (n, 2n-1), and
``rel_gather`` picks entry (i, j - i + n - 1) for each pair. Values go the
other way: ``rel_scatter`` puts alpha_ij into bucket j - i of row i, and one
matmul with R^V sums each bucket's encoding. Both terms are dense matmuls
plus O(n^2) index maps, so a head needs O(n^2 + n*d_z) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .posenc import RelPositionTable, Scheme
from .tensor import Tensor, dropout, rel_gather, rel_scatter, softmax

# Score given to padded columns. Finite in binary16 (max 65504), and far
# enough below any real score that exp underflows to exactly zero weight.
MASK_FILL = -1e4


@dataclass
class AttentionConfig:
    num_heads: int
    d_model: int
    scheme: Scheme = Scheme.NONE
    attn_dropout: float = 0.0

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        if self.num_heads < 1 or self.d_model % self.num_heads != 0:
            raise ValueError(f"num_heads={self.num_heads} must be >= 1 and divide "
                             f"d_model={self.d_model}")
        if self.scheme is Scheme.FRPE and self.d_z % 2 != 0:
            raise ValueError(f"FRPE requires an even per-head size, got d_z={self.d_z}")
        if not 0.0 <= self.attn_dropout < 1.0:
            raise ValueError(f"attn_dropout={self.attn_dropout} must be in [0, 1)")

    @property
    def d_z(self) -> int:
        return self.d_model // self.num_heads


@dataclass
class HeadWeights:
    """Projections for one attention block: packed per-head Q/K/V plus output."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bo: Tensor

    def parameters(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv,
                "wo": self.wo, "bo": self.bo}


def init_head_weights(cfg: AttentionConfig, rng: np.random.Generator) -> HeadWeights:
    d = cfg.d_model
    def w(name):
        return Tensor(rng.normal(0.0, 0.02, (d, d)), requires_grad=True, name=name)
    return HeadWeights(wq=w("wq"), wk=w("wk"), wv=w("wv"), wo=w("wo"),
                       bo=Tensor(np.zeros(d), requires_grad=True, name="bo"))


def _apply_mask(scores: Tensor, mask: np.ndarray | None) -> Tensor:
    """Set padded key columns to exactly MASK_FILL.

    ``mask`` marks valid positions. A (n,) mask applies to every score row;
    a (..., n) mask holds one row per sequence of a batch and broadcasts
    over heads and query rows, so scores are (..., H, n, n).

    The fill replaces the score (score * 0 + fill) rather than adding to it,
    so no score + fill sum exists that could round past binary16's range.
    """
    if mask is None:
        return scores
    n = scores.shape[-1]
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim > 1:
        mask = mask[..., None, None, :]
    if mask.shape[-1:] != (n,) or np.broadcast_shapes(mask.shape, scores.shape) != scores.shape:
        raise ValueError(f"mask shape {mask.shape} does not fit scores of shape {scores.shape}")
    return scores * Tensor(mask.astype(np.float64)) + Tensor(np.where(mask, 0.0, MASK_FILL))


def attention_scores(q: Tensor, k: Tensor, table: RelPositionTable | None = None,
                     mask: np.ndarray | None = None) -> Tensor:
    """Pre-softmax scores for projected q and k of shape (..., n, d_z).

    Leading axes (one per head) share the table's offset rows.
    """
    if q.shape != k.shape:
        raise ValueError(f"q shape {q.shape} != k shape {k.shape}")
    n, d_z = q.shape[-2:]
    if table is not None and table.d_z != d_z:
        raise ValueError(f"table d_z={table.d_z} does not match q/k d_z={d_z}")
    scale = 1.0 / np.sqrt(d_z)
    scores = q @ k.mT
    if table is not None:
        r_k = table.block(n, role="K")           # (2n-1, d_z)
        scores = scores + rel_gather(q @ r_k.T)
    return _apply_mask(scores * scale, mask)


def attention_output(alpha: Tensor, v: Tensor,
                     table: RelPositionTable | None = None) -> Tensor:
    """Weighted value sum z_i = sum_j alpha_ij (v_j + a^V_{j-i}) over (..., n, d_z)."""
    n, d_z = v.shape[-2:]
    if alpha.shape != v.shape[:-2] + (n, n):
        raise ValueError(f"alpha shape {alpha.shape} incompatible with v shape {v.shape}")
    out = alpha @ v
    if table is not None:
        if table.d_z != d_z:
            raise ValueError(f"table d_z={table.d_z} does not match v d_z={d_z}")
        r_v = table.block(n, role="V")           # (2n-1, d_z)
        out = out + rel_scatter(alpha) @ r_v
    return out


def multi_head_attention(x: Tensor, weights: HeadWeights, cfg: AttentionConfig,
                         table: RelPositionTable | None = None,
                         mask: np.ndarray | None = None,
                         rng: np.random.Generator | None = None) -> Tensor:
    """Full attention block: project, score, softmax and combine all heads, then W^O.

    ``x`` is (n, d_model) or a batch (..., n, d_model). Heads ride on an axis
    next to the sequence axis, (..., H, n, d_z): head h owns columns
    h*d_z:(h+1)*d_z of each projection. The same relative offset rows serve
    every sequence and head. ``mask`` marks valid positions, (n,) or (..., n).
    """
    *lead, n, d_model = x.shape
    if d_model != cfg.d_model:
        raise ValueError(f"input width {d_model} != configured d_model {cfg.d_model}")
    split = (*lead, n, cfg.num_heads, cfg.d_z)
    b = len(lead)
    swap = (*range(b), b + 1, b, b + 2)           # (..., n, H, d_z) <-> (..., H, n, d_z)

    def heads(w: Tensor) -> Tensor:
        return (x @ w).reshape(split).transpose(swap)

    q, k, v = heads(weights.wq), heads(weights.wk), heads(weights.wv)
    alpha = softmax(attention_scores(q, k, table, mask), axis=-1)
    if cfg.attn_dropout > 0.0 and rng is not None:
        alpha = dropout(alpha, cfg.attn_dropout, rng)
    merged = attention_output(alpha, v, table).transpose(swap).reshape(*lead, n, d_model)
    return merged @ weights.wo + weights.bo
