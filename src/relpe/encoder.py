"""Transformer encoder with MLM and NSP pretraining heads.

Post-layer-norm residual blocks, GeLU feed-forward, tied MLM decoder, and a
tanh pooler feeding the NSP classifier. Position information enters either
through the attention-level relative table (FRPE / PRPE) or through learned
absolute embeddings added to the inputs (PAPE).

A batch of examples runs as one (B, n, d_model) pass: shorter examples are
padded with [PAD] to the longest one, and a (B, n) validity mask keeps the
padded keys out of every attention row. A single example is a batch of one.

The pretraining heads read only a few rows of the last layer: NSP reads the
[CLS] row and MLM the prediction positions. So the last layer runs only at
those query rows (every earlier layer's rows are keys and values of the next,
so only the last can be cut): its attention computes only their query rows
against all n keys, and its residual, layer norms and feed-forward run on
(B, r, d_model) rows. A caller that needs every final state calls
:meth:`EncoderModel.encode` without ``queries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .attention import AttentionConfig, HeadWeights, init_head_weights, multi_head_attention
from .data import PAD_ID, PretrainExample
from .optim import require_number
from .posenc import RelPositionTable, Scheme, build_rel_table
from .tensor import Tensor, affine, dropout, gelu, layer_norm, nll_loss, query_index


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
class LayerParameters:
    attn: HeadWeights
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


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
    predict_examples: np.ndarray   # (P,) batch index of each prediction's example


class EncoderModel:
    """Parameter container plus forward passes for the pretraining model.

    Every learnable tensor is registered exactly once under a unique name;
    fixed FRPE tables are deliberately absent from :meth:`parameters`.
    """

    def __init__(self, cfg: EncoderConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d, ffn = cfg.d_model, cfg.ffn_size
        self._params: dict[str, Tensor] = {}

        def register(name, data):
            self._params[name] = Tensor(data, requires_grad=True)
            return self._params[name]

        def normal(name, shape):
            return register(name, rng.normal(0.0, 0.02, shape))

        def zeros(name, shape):
            return register(name, np.zeros(shape))

        def ones(name, shape):
            return register(name, np.ones(shape))

        self.token_embedding = normal("embed.token", (cfg.vocab_size, d))
        self.segment_embedding = normal("embed.segment", (cfg.type_vocab_size, d))
        self.embed_ln_gamma = ones("embed.ln.gamma", d)
        self.embed_ln_beta = zeros("embed.ln.beta", d)

        self.position_embedding: Tensor | None = None
        if cfg.scheme is Scheme.PAPE:   # rows 0 .. max_seq_len-1, from a derived seed
            pos_rng = np.random.default_rng(int(rng.integers(2**31)))
            self.position_embedding = register(
                "abspos.table", pos_rng.normal(0.0, 0.02, (cfg.max_seq_len, d)))

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
        self.layers: list[LayerParameters] = []
        for i in range(cfg.num_layers):
            attn = init_head_weights(self.attn_cfg, rng)
            for key, t in attn.parameters().items():
                self._params[f"layer{i}.attn.{key}"] = t
            self.layers.append(LayerParameters(
                attn=attn,
                ln1_gamma=ones(f"layer{i}.ln1.gamma", d),
                ln1_beta=zeros(f"layer{i}.ln1.beta", d),
                ffn_w1=normal(f"layer{i}.ffn.w1", (d, ffn)),
                ffn_b1=zeros(f"layer{i}.ffn.b1", ffn),
                ffn_w2=normal(f"layer{i}.ffn.w2", (ffn, d)),
                ffn_b2=zeros(f"layer{i}.ffn.b2", d),
                ln2_gamma=ones(f"layer{i}.ln2.gamma", d),
                ln2_beta=zeros(f"layer{i}.ln2.beta", d),
            ))

        # MLM head; the decoder reuses the token embedding (weight tying).
        self.mlm_dense_w = normal("mlm.dense.w", (d, d))
        self.mlm_dense_b = zeros("mlm.dense.b", d)
        self.mlm_ln_gamma = ones("mlm.ln.gamma", d)
        self.mlm_ln_beta = zeros("mlm.ln.beta", d)
        self.mlm_output_bias = zeros("mlm.output_bias", cfg.vocab_size)

        self.pooler_w = normal("pooler.w", (d, d))
        self.pooler_b = zeros("pooler.b", d)
        self.nsp_w = normal("nsp.w", (d, 2))
        self.nsp_b = zeros("nsp.b", 2)

    def parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor by name, in construction order."""
        return dict(self._params)

    # -- forward passes ---------------------------------------------------

    def embed_inputs(self, token_ids, segment_ids,
                     rng: np.random.Generator | None = None) -> Tensor:
        """Normalized input embeddings (..., n, d_model) of (..., n) id arrays."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        segment_ids = np.asarray(segment_ids, dtype=np.intp)
        if token_ids.shape != segment_ids.shape:
            raise ValueError("token_ids and segment_ids must have equal length")
        bad = np.argwhere((token_ids < 0) | (token_ids >= self.cfg.vocab_size))
        if bad.size:
            raise IndexError(f"token id out of range at {_where(bad[0])}: "
                             f"{token_ids[tuple(bad[0])]} (vocab {self.cfg.vocab_size})")
        bad = np.argwhere((segment_ids < 0) | (segment_ids >= self.cfg.type_vocab_size))
        if bad.size:
            raise IndexError(f"segment id out of range at {_where(bad[0])}")
        n = token_ids.shape[-1]
        x = self.token_embedding.take_rows(token_ids) \
            + self.segment_embedding.take_rows(segment_ids)
        if self.position_embedding is not None:
            if n > self.cfg.max_seq_len:
                raise IndexError(
                    f"sequence length {n} exceeds learned absolute position table "
                    f"(max_position={self.cfg.max_seq_len})")
            x = x + self.position_embedding.take_rows(np.arange(n))
        x = layer_norm(x, self.embed_ln_gamma, self.embed_ln_beta)
        if rng is not None:
            x = dropout(x, self.cfg.hidden_dropout, rng)
        return x

    def layer_forward(self, x: Tensor, layer: LayerParameters,
                      mask: np.ndarray | None = None,
                      rng: np.random.Generator | None = None,
                      queries: np.ndarray | None = None) -> Tensor:
        """One encoder layer on x (..., n, d_model).

        With ``queries`` (..., r) positions the layer runs only at those rows
        and returns (..., r, d_model); keys and values still span all n rows,
        and each dropout mask is drawn at its full-row shape.
        """
        cfg = self.cfg
        n, d = x.shape[-2:]
        attn = multi_head_attention(x, layer.attn, self.attn_cfg, table=self.rel_table,
                                    mask=mask, rng=rng, queries=queries)
        if queries is not None:
            x = x.reshape(-1, d).take_rows(query_index(queries, n)).reshape(attn.shape)
        if rng is not None:
            attn = dropout(attn, cfg.hidden_dropout, rng, queries, n)
        y = layer_norm(x + attn, layer.ln1_gamma, layer.ln1_beta)
        h = affine(gelu(affine(y, layer.ffn_w1, layer.ffn_b1)), layer.ffn_w2, layer.ffn_b2)
        if rng is not None:
            h = dropout(h, cfg.hidden_dropout, rng, queries, n)
        return layer_norm(y + h, layer.ln2_gamma, layer.ln2_beta)

    def encode(self, token_ids, segment_ids, mask=None,
               rng: np.random.Generator | None = None,
               queries: np.ndarray | None = None) -> Tensor:
        """Final hidden states (..., n, d_model); ``mask`` marks valid positions.

        With ``queries`` (..., r) positions the last layer runs only at those
        rows, and the result is their final states (..., r, d_model).
        """
        x = self.embed_inputs(token_ids, segment_ids, rng=rng)
        for layer in self.layers[:-1]:
            x = self.layer_forward(x, layer, mask=mask, rng=rng)
        return self.layer_forward(x, self.layers[-1], mask=mask, rng=rng, queries=queries)

    def pretrain_forward(self, examples,
                         rng: np.random.Generator | None = None) -> ForwardOutput:
        """Encode a batch of examples in one pass and apply the MLM and NSP heads.

        ``examples`` is a sequence of PretrainExample, or one example (a batch
        of one). Each dropout site draws one mask of the whole batch's shape.
        The last layer runs only at the slots the heads read (see
        :class:`ForwardOutput`).
        """
        if isinstance(examples, PretrainExample):
            examples = [examples]
        if not examples:
            raise ValueError("no examples to encode")
        lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
        counts = np.array([len(ex.predict_positions) for ex in examples], dtype=np.intp)
        b, n = len(examples), int(lengths.max())
        owners = np.repeat(np.arange(b, dtype=np.intp), counts)
        positions = _flat([ex.predict_positions for ex in examples], counts.sum())
        misfit = (lengths < 1) | (np.array([len(ex.segments) for ex in examples]) != lengths)
        outside = (positions < 0) | (positions >= lengths[owners])
        bad = np.flatnonzero(misfit | (np.bincount(owners[outside], minlength=b) > 0))
        if bad.size:   # the first bad example names the error; its length goes first
            i = bad[0]
            if misfit[i]:
                raise ValueError(f"batch example {i}: token_ids and segment_ids must "
                                 f"have equal, nonzero length")
            raise IndexError(f"prediction position out of range for "
                             f"length-{lengths[i]} sequence")
        filled = np.arange(n) < lengths[:, None]
        tokens = np.full((b, n), PAD_ID, dtype=np.intp)
        tokens[filled] = _flat([ex.tokens for ex in examples], lengths.sum())
        segments = np.zeros((b, n), dtype=np.intp)
        segments[filled] = _flat([ex.segments for ex in examples], lengths.sum())
        slot = np.arange(1 + int(counts.max()))
        predicted = (slot > 0) & (slot <= counts[:, None])    # slots 1 .. count of each example
        slot_positions = np.zeros((b, slot.size), dtype=np.intp)   # 0: [CLS] and padding
        slot_positions[predicted] = positions
        mask = None if lengths.min() == n else filled
        slot_states = self.encode(tokens, segments, mask=mask, rng=rng, queries=slot_positions)

        rows = slot_states.reshape(-1, self.cfg.d_model)
        pooled = affine(rows.take_rows(np.arange(b) * slot.size), self.pooler_w,
                        self.pooler_b).tanh()
        nsp_logits = affine(pooled, self.nsp_w, self.nsp_b)

        if positions.size:
            h = rows.take_rows(np.flatnonzero(predicted))
            h = gelu(affine(h, self.mlm_dense_w, self.mlm_dense_b))
            h = layer_norm(h, self.mlm_ln_gamma, self.mlm_ln_beta)
            mlm_logits = affine(h, self.token_embedding.T, self.mlm_output_bias)
        else:
            mlm_logits = Tensor(np.zeros((0, self.cfg.vocab_size)))
        return ForwardOutput(slot_states=slot_states, slot_positions=slot_positions,
                             pooled=pooled, mlm_logits=mlm_logits,
                             nsp_logits=nsp_logits, predict_examples=owners)


def _flat(lists, size) -> np.ndarray:
    """The concatenation of ``lists`` of ints, ``size`` in all, as one intp array."""
    return np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(size))


def _where(index) -> str:
    """Name an entry of a (n,) or (B, n) id array."""
    return f"position {index[-1]}" + (f" of batch example {index[0]}" if len(index) > 1 else "")


def pretrain_loss(output: ForwardOutput, examples) -> tuple[Tensor, dict]:
    """Joint loss: the mean over examples of (mean MLM NLL + NSP NLL).

    ``examples`` is what :meth:`EncoderModel.pretrain_forward` encoded. An
    example without predictions adds no MLM loss. Returns the scalar loss and
    a metrics bundle: the loss and its parts; ``mlm_accuracy``, the mean
    top-1 accuracy of the examples that have predictions (NaN if none do);
    and the counts ``num_predictions``, ``mlm_correct``, ``nsp_correct`` and
    the summed MLM NLL ``mlm_nll_sum``, which add up across batches.
    """
    if isinstance(examples, PretrainExample):
        examples = [examples]
    b = len(examples)
    owners = output.predict_examples
    counts = np.bincount(owners, minlength=b)
    labels = [np.asarray(ex.predict_labels, dtype=np.intp) for ex in examples]
    if [l.size for l in labels] != counts.tolist():
        raise ValueError("label count does not match prediction position count")
    labels = np.concatenate(labels)
    num_pred, vocab = labels.size, output.mlm_logits.shape[-1]
    bad = np.flatnonzero((labels < 0) | (labels >= vocab))
    if bad.size:
        raise IndexError(f"batch example {owners[bad[0]]}: predict label {labels[bad[0]]} "
                         f"outside the vocabulary of {vocab}")
    mlm_loss, nll = nll_loss(output.mlm_logits, labels, 1.0 / (b * counts[owners]))
    correct = output.mlm_logits.data.argmax(axis=-1) == labels
    nsp_labels = np.array([int(ex.nsp_label) for ex in examples], dtype=np.intp)
    nsp_loss, _ = nll_loss(output.nsp_logits, nsp_labels, np.full(b, 1.0 / b))
    total = mlm_loss + nsp_loss
    has = counts > 0
    accuracy = np.bincount(owners, correct, minlength=b)[has] / counts[has]
    metrics = {
        "loss": float(total.data),
        "mlm_loss": float(mlm_loss.data),
        "nsp_loss": float(nsp_loss.data),
        "mlm_accuracy": float(accuracy.mean()) if accuracy.size else float("nan"),
        "num_predictions": num_pred,
        "mlm_correct": int(np.sum(correct)),
        "mlm_nll_sum": float(np.sum(nll)),
        "nsp_correct": int(np.sum(output.nsp_logits.data.argmax(axis=-1) == nsp_labels)),
    }
    return total, metrics
