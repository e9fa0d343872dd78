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
E = q B_K^T of shape (n, 2k+1), and gathers the entry of each key's row;
values go the other way: F (n, 2k+1) sums each query's weights per bank row,
and F B_V adds their encodings. A head needs O(n^2 + n*k) memory.

A block can compute only some query rows, given as a (..., r) position
index: keys and values still come from all n rows, the scores, softmax rows,
weighted sums and output are (..., r, .), and both relative terms read the
query positions. The encoder runs its last layer this way, at the rows its
pretraining heads read.

A block runs as two autodiff nodes. :func:`attention` projects, scores,
masks, softmaxes, drops out and sums every head in one NumPy forward and has
a closed-form backward pass; W^O and its bias are one ``affine`` node. Under
the value filter each rounds only its output and each input gradient.
``attention_scores`` and ``attention_output`` compute the same scores and
outputs as differentiable composites of single-op nodes: FRPE's terms are
``*``, ``+`` and ``@`` on the constant rows, and PRPE's gather each pair's
bank row into an (n, n, d_z) tensor, Shaw et al.'s own definition. They are
the oracles the tests check the fused node against, and check against the
double-loop definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posenc import RelPositionTable, Scheme
from .tensor import (Tensor, _check_finite, _scatter_rows, affine, as_tensor, keep_mask,
                     query_index, take_queries)

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


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, num_heads: int,
              r_k: Tensor | None = None, r_v: Tensor | None = None,
              mask: np.ndarray | None = None, dropout_rate: float = 0.0,
              rng: np.random.Generator | None = None,
              frpe_rows: np.ndarray | None = None,
              queries: np.ndarray | None = None) -> Tensor:
    """Every head of one attention block, merged to (..., n, d_model), as one node.

    Computes what the composite ``attention_output(dropout(softmax(
    attention_scores(q, k, table, mask))), v, table)`` does on the heads
    q, k, v = x @ wq, wk, wv split to (..., H, n, d_z). The relative terms
    come from PRPE's banks, FRPE's rows, or neither. ``r_k``/``r_v`` are
    (2k+1, d_z) banks, k read from their shape (k >= n-1 clips no offset):
    query row i reads row idx_ij = clip(j - pos_i, -k, k) + k for key j.
    ``frpe_rows`` is the (n, d_z) constant P = a_0 .. a_{n-1}, used through
    the C, S and J of :func:`_rotation`, C and S at the query positions. The
    forward uses the composite's expressions in the same order, so it is
    bitwise equal to it, except PRPE's: it gathers scores from q B_K^T and
    sums each bank row's weights before the bank matmul. Attention dropout
    (``dropout_rate > 0`` and an ``rng``) draws one mask of the weights'
    shape, as ``dropout`` does.

    ``queries`` (..., r), one row of positions per sequence, computes only
    those query rows (pos_i = ``queries[..., i]``; else pos_i = i): keys and
    values still come from all n rows, and the output is (..., r, d_model),
    row m being what the full call gives at position ``queries[..., m]``.
    Positions may repeat. The dropout mask is drawn at the full (..., H, n, n)
    shape and its query rows kept, so the RNG stream and every mask value
    match the full call.

    The backward pass is closed form (FlashAttention's algebra plus the
    relative terms), with W the softmax weights, A = W * keep the dropped-out
    ones and dO the merged-heads gradient split per head:
    dA = dO v^T + rel_A, dS = W (dA keep - rowsum(dA keep W)) / sqrt(d_z),
    dq = dS k + rel_q, dk = dS^T q and dv = A^T dO. With PRPE banks and
    bucket() the per-bank-row sums through the forward's index,
    rel_A = gather(dO B_V^T), rel_q = bucket(dS) B_K, dB_K = sum bucket(dS)^T q
    and dB_V = sum bucket(A)^T dO. With FRPE rows,
    rel_A = (dO C + (dO J) S) P^T and, with y' = dS P, rel_q = y' C + (y' J^T) S;
    the rows are constants and get no gradient. With ``queries``, the
    query projection's dx is scattered back to the query positions.
    """
    x = as_tensor(x)
    *lead, n, d_model = x.shape
    if d_model % num_heads != 0:
        raise ValueError(f"num_heads={num_heads} does not divide d_model={d_model}")
    d_z = d_model // num_heads
    if frpe_rows is not None and frpe_rows.shape != (n, d_z):
        raise ValueError(f"relative rows of shape {frpe_rows.shape}, expected {(n, d_z)}")
    banks = [r.shape for r in (r_k, r_v) if r is not None]
    if banks and (banks != [banks[0][:1] + (d_z,)] * 2 or banks[0][0] % 2 == 0):
        raise ValueError(f"relative banks r_k, r_v of shapes {banks} must share one "
                         f"shape (2k+1, {d_z})")
    b = len(lead)
    x_q, n_q, index, pos = x.data, n, None, np.arange(n).reshape((1,) * b + (n,))
    if queries is not None:
        queries = np.asarray(queries, dtype=np.intp)
        if (queries.shape[:-1] != tuple(lead) or queries.ndim != b + 1
                or queries.size == 0 or queries.min() < 0 or queries.max() >= n):
            raise ValueError(f"queries of shape {queries.shape} must hold positions in "
                             f"[0, {n}), one nonempty row per sequence of {tuple(lead)}")
        x_q, n_q, index, pos = take_queries(x.data, queries), queries.shape[-1], \
            query_index(queries, n), queries
    swap = (*range(b), b + 1, b, b + 2)           # (..., n, H, d_z) <-> (..., H, n, d_z)
    if mask is not None:
        valid, fill = _mask_arrays(mask, (*lead, num_heads, n_q, n))
    scale = 1.0 / np.sqrt(d_z)

    q, k, v = ((inp @ w.data).reshape(*lead, m, num_heads, d_z).transpose(swap)
               for inp, w, m in ((x_q, wq, n_q), (x.data, wk, n), (x.data, wv, n)))
    p = q @ np.swapaxes(k, -1, -2)
    if r_k is not None:
        clip, width = r_k.shape[0] // 2, r_k.shape[0]
        # bank row of (query row i, key j), one index for every head, and its
        # bucket among the width buckets of each (..., H, r) row
        idx = np.expand_dims(np.clip(np.arange(n) - pos[..., None], -clip, clip) + clip, -3)
        flat = (np.arange(p.size // n).reshape(*p.shape[:-1], 1) * width + idx).reshape(-1)
        p += np.take_along_axis(q @ r_k.data.T, idx, axis=-1)

        def bucket(a):
            """Sums (..., r, width) of (..., r, n) ``a`` over the keys of each bank row."""
            return np.bincount(flat, a.reshape(-1), flat.size // n * width).reshape(
                *a.shape[:-1], width)
    if frpe_rows is not None:
        c, s, turn = _rotation(frpe_rows)
        c, s = (np.expand_dims(t[pos], -3) for t in (c, s))
        p += (q * c + (q @ turn) * s) @ frpe_rows.T
    p *= scale
    if mask is not None:
        p *= valid
        p += fill
    _check_finite("softmax", p)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = None
    if dropout_rate > 0.0 and rng is not None:
        keep = keep_mask(rng, dropout_rate, p.shape, queries, n)
    a = p if keep is None else p * keep
    out = a @ v
    if r_v is not None:
        f = bucket(a)
        out += f @ r_v.data
    if frpe_rows is not None:
        y = a @ frpe_rows
        out += y * c + (y @ turn.T) * s

    def bwd(g):
        g_o = g.reshape(*lead, n_q, num_heads, d_z).transpose(swap)
        d_s = g_o @ np.swapaxes(v, -1, -2)
        if r_v is not None:
            d_s += np.take_along_axis(g_o @ r_v.data.T, idx, axis=-1)
            if r_v.requires_grad:
                r_v._accumulate(_rows(f).T @ _rows(g_o))
        if frpe_rows is not None:
            d_s += (g_o * c + (g_o @ turn) * s) @ frpe_rows.T
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
            d_q += d_rel @ r_k.data
            if r_k.requires_grad:
                r_k._accumulate(_rows(d_rel).T @ _rows(q))
        if frpe_rows is not None:
            d_y = d_s @ frpe_rows
            d_q += d_y * c + (d_y @ turn.T) * s
        d_k = np.swapaxes(d_s, -1, -2) @ q
        x_rows, d_x = _rows(x.data), 0.0
        for w, d, inp, at in ((wq, d_q, x_q, index), (wk, d_k, x.data, None),
                              (wv, d_v, x.data, None)):
            d = d.transpose(swap).reshape(-1, d_model)
            if w.requires_grad:
                w._accumulate(_rows(inp).T @ d)
            if x.requires_grad:
                d = d @ w.data.T
                d_x = d_x + (d if at is None else _scatter_rows(d, at, x_rows.shape))
        if x.requires_grad:
            x._accumulate(d_x.reshape(x.shape))

    parents = tuple(t for t in (x, wq, wk, wv, r_k, r_v) if t is not None)
    return Tensor._make(out.transpose(swap).reshape(*lead, n_q, d_model), parents, bwd)


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix of its last axis: (prod of leading axes, last)."""
    return a.reshape(-1, a.shape[-1])


def multi_head_attention(x: Tensor, weights: HeadWeights, cfg: AttentionConfig,
                         table: RelPositionTable | None = None,
                         mask: np.ndarray | None = None,
                         rng: np.random.Generator | None = None,
                         queries: np.ndarray | None = None) -> Tensor:
    """Full attention block: one :func:`attention` node, then W^O as one ``affine`` node.

    ``x`` is (n, d_model) or a batch (..., n, d_model). The same relative
    rows serve every sequence and head: FRPE's n absolute rows from one
    ``table.block`` call, or PRPE's two banks. ``mask`` marks
    valid positions, (n,) or (..., n). ``queries`` (..., r) computes only
    those query rows, and the block's output is (..., r, d_model).
    """
    *lead, n, d_model = x.shape
    if d_model != cfg.d_model:
        raise ValueError(f"input width {d_model} != configured d_model {cfg.d_model}")
    r_k = r_v = rows = None
    if table is not None:
        if table.d_z != cfg.d_z:
            raise ValueError(f"table d_z={table.d_z} does not match q/k d_z={cfg.d_z}")
        if table.rows is not None:
            rows = table.block(n)                # P = a_0 .. a_{n-1}
        else:
            r_k, r_v = table.bank_k, table.bank_v
    merged = attention(x, weights.wq, weights.wk, weights.wv, cfg.num_heads, r_k, r_v,
                       mask, cfg.attn_dropout, rng, rows, queries)
    return affine(merged, weights.wo, weights.bo)
