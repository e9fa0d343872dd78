"""Multi-head self-attention with optional relative-position terms.

Scores are q_i . (k_j + a^K_{j-i}) / sqrt(d_z) and outputs are
sum_j alpha_ij (v_j + a^V_{j-i}); with no table both relative terms vanish
and the block degrades to vanilla scaled dot-product attention.

FRPE's a_{j-i} is a fixed sinusoid of the offset, so the angle-addition
identity (the one RoPE is built on) turns each relative term into a rotation
and a product with the n absolute rows P (row j holds a_j): q_i . a_{j-i}
is (q_i C_i + (q_i J) S_i) . a_j, the query rotated by its own position,
and sum_j alpha_ij a_{j-i} is y_i C_i + (y_i J^T) S_i with y = alpha P. C and
S repeat P's cosine and sine columns over each (sin, cos) pair and J turns
each pair. Both terms are (n, d_z) x (d_z, n) matmuls plus O(n * d_z)
elementwise work, and a head needs O(n^2 + n*d_z) memory.

PRPE's learned a_{j-i} is row clip(j - i, -k, k) + k of a (2k+1, d_z) bank
(Shaw et al. 2018). The fused node scores each query against every bank row,
E = q B_K^T of shape (n, 2k+1), and reads the entry of each key's row with one
flat take; values go the other way: F (n, 2k+1) sums each query's weights per
bank row, one bincount per head, and F B_V adds their encodings. Both read one
map of each (query, key) pair's bank row that all heads share. A head needs
O(n^2 + n*k) memory.

A block can compute only some query rows, given as a (..., r) position
index: keys and values still come from all n rows, the scores, softmax rows,
weighted sums and output are (..., r, .), and both relative terms read the
query positions. The encoder runs its last layer this way, at the rows its
pretraining heads read.

A block runs as one autodiff node: :func:`multi_head_attention` projects,
scores, masks, softmaxes, drops out, sums every head and applies W^O and its
bias in one NumPy forward, and has a closed-form backward pass. Under the
value filter it rounds only its output and each input gradient; the merged
heads stay float64.
``attention_scores`` and ``attention_output`` compute the same scores and
outputs as differentiable composites of single-op nodes: FRPE's terms are
``*``, ``+`` and ``@`` on the constant rows, and PRPE's gather each pair's
bank row into an (n, n, d_z) tensor, Shaw et al.'s own definition. They are
the oracles the tests check the fused node against, and check against the
double-loop definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .posenc import RelPositionTable, Scheme
from .tensor import Tensor, _check_finite, _scatter_rows, as_tensor, keep_mask, query_index

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
    def w():
        return Tensor(rng.normal(0.0, 0.02, (d, d)), requires_grad=True)
    return HeadWeights(wq=w(), wk=w(), wv=w(), wo=w(), bo=Tensor(np.zeros(d), requires_grad=True))


def _mask_arrays(mask: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The 1/0 multiplier and the 0/MASK_FILL addend of ``mask`` for scores of ``shape``."""
    n = shape[-1]
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim > 1:
        mask = mask[..., None, None, :]
    if mask.shape[-1:] != (n,) or np.broadcast_shapes(mask.shape, shape) != shape:
        raise ValueError(f"mask shape {mask.shape} does not fit scores of shape {shape}")
    return mask.astype(np.float64), np.where(mask, 0.0, MASK_FILL)


def _rotation(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C, S and J of the angle-addition identity for FRPE rows P = a_0 .. a_{n-1}.

    C and S repeat P's cosine and sine columns over each (sin, cos) pair, and
    J turns each pair: (x J)[2k] = x[2k+1] and (x J)[2k+1] = -x[2k].
    """
    even = np.arange(0, rows.shape[1], 2)
    turn = np.zeros((rows.shape[1], rows.shape[1]))
    turn[even + 1, even], turn[even, even + 1] = 1.0, -1.0
    return np.repeat(rows[:, 1::2], 2, axis=1), np.repeat(rows[:, 0::2], 2, axis=1), turn


def _pair_rows(bank: Tensor, n: int) -> Tensor:
    """Row clip(j - i, -k, k) + k of a (2k+1, d_z) bank for each (i, j): (n, n, d_z)."""
    clip, pos = bank.shape[0] // 2, np.arange(n)
    return bank.take_rows(np.clip(pos - pos[:, None], -clip, clip) + clip)


def attention_scores(q: Tensor, k: Tensor, table: RelPositionTable | None = None,
                     mask: np.ndarray | None = None) -> Tensor:
    """Pre-softmax scores for projected q and k of shape (..., n, d_z).

    Leading axes (one per head) share the table's rows. ``mask`` marks valid
    key positions, (n,) for every row or (..., n) per sequence of a batch;
    padded key columns score exactly MASK_FILL.
    """
    if q.shape != k.shape:
        raise ValueError(f"q shape {q.shape} != k shape {k.shape}")
    n, d_z = q.shape[-2:]
    if table is not None and table.d_z != d_z:
        raise ValueError(f"table d_z={table.d_z} does not match q/k d_z={d_z}")
    scale = 1.0 / np.sqrt(d_z)
    scores = q @ k.mT
    if table is not None:
        if table.rows is not None:
            rows = table.block(n)                # P = a_0 .. a_{n-1}
            c, s, turn = map(Tensor, _rotation(rows))
            scores = scores + (q * c + (q @ turn) * s) @ Tensor(rows).T
        else:
            pairs = _pair_rows(table.bank_k, n)  # (n, n, d_z)
            scores = scores + (q.reshape(*q.shape[:-1], 1, d_z) * pairs).sum(axis=-1)
    scores = scores * scale
    if mask is not None:
        # The fill replaces the score (score * 0 + fill) rather than adding to
        # it, so no score + fill sum exists that could round past binary16's range.
        valid, fill = _mask_arrays(mask, scores.shape)
        scores = scores * Tensor(valid) + Tensor(fill)
    return scores


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
        if table.rows is not None:
            rows = table.block(n)                # P = a_0 .. a_{n-1}
            c, s, turn = map(Tensor, _rotation(rows))
            y = alpha @ Tensor(rows)
            out = out + (y * c + (y @ turn.T) * s)
        else:
            pairs = _pair_rows(table.bank_v, n)  # (n, n, d_z)
            out = out + (alpha.reshape(*alpha.shape, 1) * pairs).sum(axis=-2)
    return out


def multi_head_attention(x: Tensor, weights: HeadWeights, cfg: AttentionConfig,
                         table: RelPositionTable | None = None,
                         mask: np.ndarray | None = None,
                         rng: np.random.Generator | None = None,
                         queries: np.ndarray | None = None) -> Tensor:
    """One attention block on ``x`` (n, d_model) or a batch (..., n, d_model), as one node.

    Computes what the composite ``attention_output(dropout(softmax(
    attention_scores(q, k, table, mask))), v, table)``, merged to
    (..., n, d_model) and times W^O plus b^O, does on the heads
    q, k, v = x @ W^Q, W^K, W^V split to (..., H, n, d_z), held heads first as
    (H, ..., n, d_z). The same relative terms serve every sequence and head:
    FRPE's n absolute rows P = a_0 .. a_{n-1} from one ``table.block`` call,
    used through the C, S and J of :func:`_rotation`, C and S at the query
    positions; or PRPE's (2k+1, d_z) banks B_K, B_V, k read from their shape
    (k >= n-1 clips no offset): query row i reads row clip(j - pos_i, -k, k) + k
    for key j. The forward uses the composite's expressions in the same order,
    so it is bitwise equal to it, except PRPE's: it gathers scores from
    q B_K^T and sums each bank row's weights before the bank matmul. ``mask``
    marks valid keys, (n,) or (..., n). Attention dropout (an ``rng`` and
    ``cfg.attn_dropout`` > 0) draws one mask of the weights' shape, as ``dropout`` does.

    ``queries`` (..., r), one row of positions per sequence, computes only
    those query rows (pos_i = ``queries[..., i]``; else pos_i = i): keys and
    values still come from all n rows, and the output is (..., r, d_model),
    row m being what the full call gives at position ``queries[..., m]``.
    Positions may repeat. The dropout mask is drawn at the full (..., H, n, n)
    shape and its query rows kept, so every mask value matches the full call.

    The backward pass is closed form. W^O first: dW^O = merged^T g,
    db^O = sum g, and dO = g W^O^T split per head. Then FlashAttention's
    algebra plus the relative terms, with W the softmax weights and
    A = W * keep the dropped-out ones:
    dA = dO v^T + rel_A, dS = W (dA keep - rowsum(dA keep W)) / sqrt(d_z),
    dq = dS k + rel_q, dk = dS^T q and dv = A^T dO. With PRPE banks,
    rel_A = gather(dO B_V^T), rel_q = bucket(dS) B_K, dB_K = sum bucket(dS)^T q
    and dB_V = sum bucket(A)^T dO. With FRPE rows,
    rel_A = (dO C + (dO J) S) P^T and, with y' = dS P, rel_q = y' C + (y' J^T) S;
    the rows are constants. With ``queries``, the query projection's dx is
    scattered back to the query positions.
    """
    x = as_tensor(x)
    *lead, n, d_model = x.shape
    if d_model != cfg.d_model:
        raise ValueError(f"input width {d_model} != configured d_model {cfg.d_model}")
    num_heads, d_z = cfg.num_heads, cfg.d_z
    wq, wk, wv, wo, bo = weights.wq, weights.wk, weights.wv, weights.wo, weights.bo
    r_k = r_v = rows = None
    if table is not None:
        if table.d_z != d_z:
            raise ValueError(f"table d_z={table.d_z} does not match q/k d_z={d_z}")
        if table.rows is not None:
            rows = table.block(n)                # P = a_0 .. a_{n-1}
        else:
            r_k, r_v = table.bank_k, table.bank_v
    banks = [r.shape for r in (r_k, r_v) if r is not None]
    if banks and (banks != [banks[0][:1] + (d_z,)] * 2 or banks[0][0] % 2 == 0):
        raise ValueError(f"relative banks bank_k, bank_v of shapes {banks} must share one "
                         f"shape (2k+1, {d_z})")
    b = len(lead)
    x_q, n_q, index, pos = x.data, n, None, np.arange(n)
    if queries is not None:
        queries = np.asarray(queries, dtype=np.intp)
        if (queries.shape[:-1] != tuple(lead) or queries.ndim != b + 1
                or queries.size == 0 or queries.min() < 0 or queries.max() >= n):
            raise ValueError(f"queries of shape {queries.shape} must hold positions in "
                             f"[0, {n}), one nonempty row per sequence of {tuple(lead)}")
        n_q, index, pos = queries.shape[-1], query_index(queries, n), queries
        x_q = x.data.reshape(-1, d_model).take(index, axis=0).reshape(*lead, n_q, d_model)
    # heads first, (H, ..., r, .), so each head is one block; (..., r, H, d_z)
    # projections split and merge, and back/front give the composite's (..., H, r, .)
    split, merge = (b + 1, *range(b + 1), b + 2), (*range(1, b + 2), 0, b + 2)
    back, front = (*range(1, b + 1), 0, b + 1, b + 2), (b, *range(b), b + 1, b + 2)
    scale, scores = 1.0 / np.sqrt(d_z), (*lead, num_heads, n_q, n)  # the composite's scores
    if mask is not None:     # without their heads axis, the mask arrays broadcast heads first
        valid, fill = (t if t.ndim == 1 else t[..., 0, :, :] for t in _mask_arrays(mask, scores))

    q, k, v = ((inp @ w.data).reshape(*lead, m, num_heads, d_z).transpose(split)
               for inp, w, m in ((x_q, wq, n_q), (x.data, wk, n), (x.data, wv, n)))
    p = q @ np.swapaxes(k, -1, -2)
    if r_k is not None:
        clip, width = r_k.shape[0] // 2, r_k.shape[0]
        # flat position of (query row i, key j)'s bank row in a head's
        # (..., r, width) block: one (..., r, n) map that every head shares
        keys = np.arange(n)
        bank_row = (np.clip(keys - keys[:, None], -clip, clip) + clip).take(pos, axis=0) \
            + np.arange(0, math.prod(lead) * n_q * width, width).reshape(*lead, n_q, 1)

        def gather(e):
            """(H, ..., r, n) entries of (H, ..., r, width) ``e`` at each key's bank row."""
            return e.reshape(num_heads, -1).take(bank_row, axis=1)

        def bucket(a):
            """Per-bank-row sums of (H, ..., r, n) ``a``, in dB's (..., H, r, width) row order."""
            return np.concatenate([np.bincount(bank_row.ravel(), h, bank_row.size // n * width)
                                   .reshape(*lead, 1, n_q, width)
                                   for h in a.reshape(num_heads, -1)], axis=b)

        p += gather(q @ r_k.data.T)
    if rows is not None:
        c, s, turn = _rotation(rows)
        c, s = c[pos], s[pos]                     # (..., r, d_z), for every head
        p += (q * c + (q @ turn) * s) @ rows.T
    p *= scale
    if mask is not None:
        p *= valid
        p += fill
    if not np.all(np.isfinite(p)):
        _check_finite("softmax", p.transpose(back))     # names the composite's index
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = None
    if cfg.attn_dropout > 0.0 and rng is not None:
        keep = keep_mask(rng, cfg.attn_dropout, scores, queries, n).transpose(front)
    a = p if keep is None else p * keep
    out = a @ v
    if r_v is not None:
        f = bucket(a)
        out += f.transpose(front) @ r_v.data
    if rows is not None:
        y = a @ rows
        out += y * c + (y @ turn.T) * s
    merged = out.transpose(merge).reshape(*lead, n_q, d_model)

    def bwd(g):
        g2 = g.reshape(-1, d_model)
        if wo.requires_grad:
            wo._accumulate(merged.reshape(-1, d_model).T @ g2)
        if bo.requires_grad:
            bo._accumulate(g2.sum(axis=0))
        g_o = (g @ wo.data.T).reshape(*lead, n_q, num_heads, d_z).transpose(split)
        d_s = g_o @ np.swapaxes(v, -1, -2)
        if r_v is not None:
            d_s += gather(g_o @ r_v.data.T)
            if r_v.requires_grad:
                r_v._accumulate(f.reshape(-1, width).T @ g_o.transpose(back).reshape(-1, d_z))
        if rows is not None:
            d_s += (g_o * c + (g_o @ turn) * s) @ rows.T
        d_v = np.swapaxes(a, -1, -2) @ g_o
        if keep is not None:
            d_s *= keep
        d_s -= (d_s * p).sum(axis=-1, keepdims=True)
        d_s *= p
        if mask is not None:
            d_s *= valid
        d_s *= scale
        d_q = d_s @ k
        if r_k is not None:
            d_rel = bucket(d_s)
            d_q += d_rel.transpose(front) @ r_k.data
            if r_k.requires_grad:
                r_k._accumulate(d_rel.reshape(-1, width).T @ q.transpose(back).reshape(-1, d_z))
        if rows is not None:
            d_y = d_s @ rows
            d_q += d_y * c + (d_y @ turn.T) * s
        d_k = np.swapaxes(d_s, -1, -2) @ q
        x_rows, d_x = x.data.reshape(-1, d_model), 0.0
        for w, d, inp, at in ((wq, d_q, x_q, index), (wk, d_k, x.data, None),
                              (wv, d_v, x.data, None)):
            d = d.transpose(merge).reshape(-1, d_model)
            if w.requires_grad:
                w._accumulate(inp.reshape(-1, d_model).T @ d)
            if x.requires_grad:
                d = d @ w.data.T
                d_x = d_x + (d if at is None else _scatter_rows(d, at, x_rows.shape))
        if x.requires_grad:
            x._accumulate(d_x.reshape(x.shape))

    parents = tuple(t for t in (x, wq, wk, wv, wo, bo, r_k, r_v) if t is not None)
    return Tensor._make(merged @ wo.data + bo.data, parents, bwd)

