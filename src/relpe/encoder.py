"""Transformer encoder with MLM and NSP pretraining heads.

Post-layer-norm residual blocks, GeLU feed-forward, tied MLM decoder, and a
tanh pooler feeding the NSP classifier. Position information enters either
through the attention-level relative table (FRPE / PRPE) or through learned
absolute embeddings added to the inputs (PAPE).

A batch of examples runs as one (B, n, d_model) pass: shorter examples are
padded with [PAD] to the longest one, and a (B, n) validity mask keeps the
padded keys out of every attention row. :func:`make_batch` builds a batch's
arrays and is the one check of its examples against the model; the code that
holds the examples calls it once, and every model pass
(:meth:`EncoderModel.pretrain_forward`, :meth:`EncoderModel.encode`,
:meth:`EncoderModel.embed_inputs`) takes the :class:`Batch` it returns and
checks nothing.

The pretraining heads read only a few rows of the last layer: NSP reads the
[CLS] row and MLM the prediction positions. So the last layer runs only at
those query rows (every earlier layer's rows are keys and values of the next,
so only the last can be cut): its attention computes only their query rows
against all n keys, and its residual, layer norms and feed-forward run on
(B, r, d_model) rows. A caller that needs every final state calls
:meth:`EncoderModel.encode` without ``queries``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .attention import AttentionConfig, HeadWeights, init_head_weights, multi_head_attention
from .data import PAD_ID
from .optim import require_number
from .posenc import RelPositionTable, Scheme, build_rel_table
from .tensor import (Tensor, affine, dropout, embed_norm, gelu, layer_norm, nll_loss,
                     query_index)


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    num_layers: int = 2
    num_heads: int = 2
    ffn_size: int | None = None
    max_seq_len: int = 128
    scheme: Scheme = Scheme.FRPE
    prpe_clip: int = 16
    type_vocab_size: int = 2
    hidden_dropout: float = 0.0
    attn_dropout: float = 0.0

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        if self.ffn_size is None:
            self.ffn_size = 4 * self.d_model
        for name in ("vocab_size", "d_model", "ffn_size", "num_layers", "num_heads",
                     "max_seq_len", "prpe_clip", "type_vocab_size"):
            require_number(self, name, int, 1)
        for name in ("hidden_dropout", "attn_dropout"):
            require_number(self, name, float, 0)
            if not getattr(self, name) < 1.0:
                raise ValueError(f"{name}={getattr(self, name)!r} must be < 1")
        self.attention_config()  # validates the head geometry

    @property
    def d_z(self) -> int:
        return self.d_model // self.num_heads

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(num_heads=self.num_heads, d_model=self.d_model,
                               scheme=self.scheme, attn_dropout=self.attn_dropout)


@dataclass
class Batch:
    """A batch of examples as the model's arrays; :func:`make_batch` builds it."""
    tokens: np.ndarray             # (B, n) token ids, padded with PAD_ID
    segments: np.ndarray           # (B, n) segment ids, padded with 0
    mask: np.ndarray | None        # (B, n) valid positions; None if no example is padded
    positions: np.ndarray          # (P,) every prediction position, in example order
    owners: np.ndarray             # (P,) batch index of each prediction's example
    labels: np.ndarray             # (P,) the MLM label of each prediction
    nsp_labels: np.ndarray         # (B,)


@dataclass
class ForwardOutput:
    # Final-layer states only at the query slots, (B, r, d_model): slot 0 is
    # [CLS], then the example's prediction positions in order, padded with
    # position 0 up to r = 1 + the most predictions of any example.
    slot_states: Tensor
    slot_positions: np.ndarray     # (B, r) the position each slot holds
    pooled: Tensor                 # (B, d_model)
    mlm_logits: Tensor             # (P, vocab): every prediction, in example order
    nsp_logits: Tensor             # (B, 2)
    batch: Batch                   # the arrays of the examples, labels included


class EncoderModel:
    """Parameter registry plus forward passes for the pretraining model.

    Every learnable tensor is registered exactly once, under a unique name, in
    ``_params``, and the forward passes read each one there by name; fixed FRPE
    tables are deliberately absent from :meth:`parameters`. ``layers`` lists
    the encoder layers' name prefixes ("layer0", ...), which :meth:`encode`
    passes to :meth:`layer_forward`.
    """

    def __init__(self, cfg: EncoderConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d, ffn = cfg.d_model, cfg.ffn_size
        self._params: dict[str, Tensor] = {}

        def register(name, data):
            self._params[name] = Tensor(data, requires_grad=True)

        def normal(name, shape):
            register(name, rng.normal(0.0, 0.02, shape))

        normal("embed.token", (cfg.vocab_size, d))
        normal("embed.segment", (cfg.type_vocab_size, d))
        register("embed.ln.gamma", np.ones(d))
        register("embed.ln.beta", np.zeros(d))

        if cfg.scheme is Scheme.PAPE:   # rows 0 .. max_seq_len-1, from a derived seed
            pos_rng = np.random.default_rng(int(rng.integers(2**31)))
            register("abspos.table", pos_rng.normal(0.0, 0.02, (cfg.max_seq_len, d)))

        self.rel_table: RelPositionTable | None = None
        if cfg.scheme is Scheme.FRPE:
            self.rel_table = build_rel_table(cfg.max_seq_len, cfg.d_z, Scheme.FRPE)
        elif cfg.scheme is Scheme.PRPE:
            self.rel_table = build_rel_table(cfg.max_seq_len, cfg.d_z, Scheme.PRPE,
                                             rng_seed=int(rng.integers(2**31)),
                                             clip=cfg.prpe_clip)
        if self.rel_table is not None:
            self._params.update(self.rel_table.parameters())

        self.attn_cfg = cfg.attention_config()
        self.layers = [f"layer{i}" for i in range(cfg.num_layers)]
        for layer in self.layers:
            for key, t in init_head_weights(self.attn_cfg, rng).parameters().items():
                self._params[f"{layer}.attn.{key}"] = t
            register(f"{layer}.ln1.gamma", np.ones(d))
            register(f"{layer}.ln1.beta", np.zeros(d))
            normal(f"{layer}.ffn.w1", (d, ffn))
            register(f"{layer}.ffn.b1", np.zeros(ffn))
            normal(f"{layer}.ffn.w2", (ffn, d))
            register(f"{layer}.ffn.b2", np.zeros(d))
            register(f"{layer}.ln2.gamma", np.ones(d))
            register(f"{layer}.ln2.beta", np.zeros(d))

        # MLM head; the decoder reuses the token embedding (weight tying).
        normal("mlm.dense.w", (d, d))
        register("mlm.dense.b", np.zeros(d))
        register("mlm.ln.gamma", np.ones(d))
        register("mlm.ln.beta", np.zeros(d))
        register("mlm.output_bias", np.zeros(cfg.vocab_size))

        normal("pooler.w", (d, d))
        register("pooler.b", np.zeros(d))
        normal("nsp.w", (d, 2))
        register("nsp.b", np.zeros(2))

    def parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor by name, in construction order."""
        return dict(self._params)

    # -- forward passes ---------------------------------------------------

    def embed_inputs(self, batch: Batch, rng: np.random.Generator | None = None) -> Tensor:
        """Normalized input embeddings (B, n, d_model) of a batch's ids."""
        p = self._params
        tables = [p["embed.token"], p["embed.segment"]]
        ids = [batch.tokens, batch.segments]
        if self.cfg.scheme is Scheme.PAPE:
            tables.append(p["abspos.table"])
            ids.append(np.arange(batch.tokens.shape[-1]))
        x = embed_norm(tables, ids, p["embed.ln.gamma"], p["embed.ln.beta"])
        if rng is not None:
            x = dropout(x, self.cfg.hidden_dropout, rng)
        return x

    def layer_forward(self, x: Tensor, layer: str, mask: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      queries: np.ndarray | None = None) -> Tensor:
        """Encoder layer ``layer`` (a name prefix of :attr:`layers`) on x (..., n, d_model).

        With ``queries`` (..., r) positions the layer runs only at those rows
        and returns (..., r, d_model); keys and values still span all n rows,
        and each dropout mask is drawn at its full-row shape.
        """
        cfg, p = self.cfg, self._params
        n, d = x.shape[-2:]
        weights = HeadWeights(*(p[f"{layer}.attn.{f.name}"] for f in fields(HeadWeights)))
        attn = multi_head_attention(x, weights, self.attn_cfg, table=self.rel_table,
                                    mask=mask, rng=rng, queries=queries)
        if queries is not None:
            x = x.reshape(-1, d).take_rows(query_index(queries, n)).reshape(attn.shape)
        if rng is not None:
            attn = dropout(attn, cfg.hidden_dropout, rng, queries, n)
        y = layer_norm(x + attn, p[f"{layer}.ln1.gamma"], p[f"{layer}.ln1.beta"])
        h = affine(gelu(affine(y, p[f"{layer}.ffn.w1"], p[f"{layer}.ffn.b1"])),
                   p[f"{layer}.ffn.w2"], p[f"{layer}.ffn.b2"])
        if rng is not None:
            h = dropout(h, cfg.hidden_dropout, rng, queries, n)
        return layer_norm(y + h, p[f"{layer}.ln2.gamma"], p[f"{layer}.ln2.beta"])

    def encode(self, batch: Batch, rng: np.random.Generator | None = None,
               queries: np.ndarray | None = None) -> Tensor:
        """Final hidden states (B, n, d_model) of a batch, padded keys masked out.

        With ``queries`` (B, r) positions the last layer runs only at those
        rows, and the result is their final states (B, r, d_model).
        """
        x = self.embed_inputs(batch, rng=rng)
        for layer in self.layers[:-1]:
            x = self.layer_forward(x, layer, mask=batch.mask, rng=rng)
        return self.layer_forward(x, self.layers[-1], mask=batch.mask, rng=rng,
                                  queries=queries)

    def pretrain_forward(self, batch: Batch,
                         rng: np.random.Generator | None = None) -> ForwardOutput:
        """Encode a batch in one pass and apply the MLM and NSP heads.

        Each dropout site draws one mask of the whole batch's shape. The last
        layer runs only at the slots the heads read (see :class:`ForwardOutput`),
        and the MLM head runs on the prediction rows, none or many.
        """
        b = batch.nsp_labels.size
        counts = np.bincount(batch.owners, minlength=b)
        slot = np.arange(1 + int(counts.max()))
        predicted = (slot > 0) & (slot <= counts[:, None])    # slots 1 .. count of each example
        slot_positions = np.zeros((b, slot.size), dtype=np.intp)   # 0: [CLS] and padding
        slot_positions[predicted] = batch.positions
        slot_states = self.encode(batch, rng=rng, queries=slot_positions)

        p, rows = self._params, slot_states.reshape(-1, self.cfg.d_model)
        pooled = affine(rows.take_rows(np.arange(b) * slot.size), p["pooler.w"],
                        p["pooler.b"]).tanh()
        nsp_logits = affine(pooled, p["nsp.w"], p["nsp.b"])
        h = rows.take_rows(np.flatnonzero(predicted))
        h = gelu(affine(h, p["mlm.dense.w"], p["mlm.dense.b"]))
        h = layer_norm(h, p["mlm.ln.gamma"], p["mlm.ln.beta"])
        mlm_logits = affine(h, p["embed.token"].T, p["mlm.output_bias"])
        return ForwardOutput(slot_states=slot_states, slot_positions=slot_positions,
                             pooled=pooled, mlm_logits=mlm_logits, nsp_logits=nsp_logits,
                             batch=batch)


def make_batch(examples, cfg: EncoderConfig) -> Batch:
    """The arrays of a sequence of examples.

    Every check of an example against the model is made here. The first
    example in batch order that the model cannot run names the error, "batch
    example i has ...", with the first of its problems in the order listed
    below: a ValueError for counts, an IndexError for a value.
    """
    if not examples:
        raise ValueError("no examples to encode")
    sizes = np.array([(len(ex.tokens), len(ex.segments), len(ex.predict_positions),
                       len(ex.predict_labels)) for ex in examples], dtype=np.intp)
    tokens, segments, positions, labels = (
        _flat([getattr(ex, name) for ex in examples], total) for name, total in
        zip(("tokens", "segments", "predict_positions", "predict_labels"), sizes.sum(axis=0)))
    nsp_labels = np.array([ex.nsp_label for ex in examples], dtype=np.intp)
    (lengths, _, counts, _), every = sizes.T, np.arange(len(examples))
    n = int(sizes[:, :2].max())
    filled = np.arange(n) < lengths[:, None]
    padded = np.full((every.size, n), PAD_ID, dtype=np.intp), np.zeros_like(filled, np.intp)
    padded[0][filled], padded[1][np.arange(n) < sizes[:, 1:2]] = tokens, segments
    owners, label_owners = np.repeat(every, counts), np.repeat(every, sizes[:, 3])

    def outside(kind, ids, field):   # an id outside its embedding table
        size = getattr(cfg, field)
        return (IndexError, ((ids < 0) | (ids >= size)).ravel(), np.repeat(every, n),
                lambda j: f"{kind} {ids.flat[j]} outside [0, {field}={size}) at position {j % n}")

    _raise_first([
        (ValueError, (lengths < 1) | (sizes[:, 1] != lengths), every,
         lambda i: f"{lengths[i]} tokens and {sizes[i, 1]} segments; need equal, nonzero counts"),
        outside("token", padded[0], "vocab_size"),
        outside("segment", padded[1], "type_vocab_size"),
        (IndexError, (lengths > cfg.max_seq_len) & (cfg.scheme is Scheme.PAPE), every,
         lambda i: f"length {lengths[i]}, past the PAPE position table's "
                   f"max_seq_len={cfg.max_seq_len}"),
        (IndexError, (positions < 0) | (positions >= lengths[owners]), owners,
         lambda j: f"prediction position {positions[j]} outside the "
                   f"length-{lengths[owners[j]]} sequence"),
        (ValueError, sizes[:, 3] != counts, every,
         lambda i: f"{counts[i]} predict_positions but {sizes[i, 3]} predict_labels"),
        (IndexError, (labels < 0) | (labels >= cfg.vocab_size), label_owners,
         lambda j: f"predict label {labels[j]} outside [0, vocab_size={cfg.vocab_size})"),
        (IndexError, (nsp_labels < 0) | (nsp_labels > 1), every,
         lambda i: f"NSP label {nsp_labels[i]}, not 0 or 1")])
    return Batch(*padded, None if lengths.min() == n else filled, positions, owners, labels,
                 nsp_labels)


def _raise_first(problems: list) -> None:
    """Raise the error of the first batch example with a problem, for its first one.

    ``problems`` lists (error type, bad, owners, describe) in the order an
    example's problems are named: ``bad`` marks the failing entries of a flat
    field, ``owners`` (nondecreasing) gives each entry's example, and
    ``describe(j)`` says what entry j is.
    """
    if not np.concatenate([bad for _, bad, _, _ in problems]).any():
        return
    i, k, j = min((owners[j], k, j) for k, (_, bad, owners, _) in enumerate(problems)
                  for j in np.flatnonzero(bad)[:1])
    raise problems[k][0](f"batch example {i} has {problems[k][3](j)}")


def _flat(lists, size) -> np.ndarray:
    """The concatenation of ``lists`` of ints, ``size`` in all, as one intp array."""
    return np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(size))


def pretrain_loss(output: ForwardOutput) -> tuple[Tensor, dict]:
    """Joint loss: the mean over examples of (mean MLM NLL + NSP NLL).

    The labels are those of the batch the output carries. An example without
    predictions adds no MLM loss. Returns the scalar loss and a metrics bundle:
    the loss and its parts; ``mlm_accuracy``, the mean top-1 accuracy of the
    examples that have predictions (NaN if none do); and the counts
    ``num_predictions``, ``mlm_correct``, ``nsp_correct`` and the summed MLM
    NLL ``mlm_nll_sum``, which add up across batches.
    """
    batch = output.batch
    owners, labels, nsp_labels, b = batch.owners, batch.labels, batch.nsp_labels, len(batch.tokens)
    counts = np.bincount(owners, minlength=b)
    mlm_loss, nll = nll_loss(output.mlm_logits, labels, 1.0 / (b * counts[owners]))
    correct = output.mlm_logits.data.argmax(axis=-1) == labels
    nsp_loss, _ = nll_loss(output.nsp_logits, nsp_labels, np.full(b, 1.0 / b))
    total = mlm_loss + nsp_loss
    has = counts > 0
    accuracy = np.bincount(owners, correct, minlength=b)[has] / counts[has]
    metrics = {
        "loss": float(total.data),
        "mlm_loss": float(mlm_loss.data),
        "nsp_loss": float(nsp_loss.data),
        "mlm_accuracy": float(accuracy.mean()) if accuracy.size else float("nan"),
        "num_predictions": labels.size,
        "mlm_correct": int(np.sum(correct)),
        "mlm_nll_sum": float(np.sum(nll)),
        "nsp_correct": int(np.sum(output.nsp_logits.data.argmax(axis=-1) == nsp_labels)),
    }
    return total, metrics
