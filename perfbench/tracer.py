"""Span tracing of relpe's layers from outside the program.

``Tracer.install`` wraps each layer's public functions at runtime, at the
name its caller looks up, and ``uninstall`` restores them. Every wrapped call
records a span (name, parent, start, end, amount) in memory. A span's self
time is its duration minus the durations of its child spans, so the self
times of all spans under one ``train.run_step`` add up to that step.

Backward closures run inside ``Tensor.backward``, so the backward sweep is
one span here and cannot be split per layer from outside.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import relpe.attention
import relpe.encoder
import relpe.optim
import relpe.posenc
import relpe.tensor
import relpe.train

STEP = "train.run_step"
MAX_LAYERS = 2  # the deepest workload has two encoder layers


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, parent index, start, end, amount]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._layer = 0                # encoder layer whose attention runs next
        self._loss = None              # root of the last backward sweep
        self.nodes = 0                 # autodiff nodes reached by backward sweeps

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, amount: int = 0) -> int:
        i = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0, amount])
        self._stack.append(i)
        self.spans[i][2] = perf_counter()
        return i

    def _close(self, i: int):
        self.spans[i][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name, amount=None):
        """Replace ``owner.attr`` with a spanning wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments; ``amount`` maps them to a work count stored on the span.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            i = self._open(name if isinstance(name, str) else name(args),
                           amount(args) if amount else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def _layer_name(self, args) -> str:
        model, _, layer = args[:3]
        self._layer = next(i for i, l in enumerate(model.layers) if l is layer)
        return f"encoder.layer{self._layer}.ffn"

    def _keep_loss(self, args) -> int:
        self._loss = args[0]
        return 0

    def install(self):
        """Wrap every traced layer boundary."""
        def block_bytes(args):
            table, n = args[0], args[1]
            return n * n * table.d_z * 8

        self._wrap(relpe.train.Trainer, "run_step", STEP)
        self._wrap(relpe.train, "training_step", "optim.training_step")
        self._wrap(relpe.train, "pretrain_loss", "encoder.loss")
        self._wrap(relpe.train, "save_checkpoint", "checkpoint.save")
        self._wrap(relpe.tensor.Tensor, "backward", "tensor.backward", self._keep_loss)
        self._wrap(relpe.optim, "round_half", "optim.round_half",
                   lambda args: np.size(args[0]))
        self._wrap(relpe.optim.LambOptimizer, "step", "optim.step")
        self._wrap(relpe.encoder.EncoderModel, "embed_inputs", "encoder.embed")
        self._wrap(relpe.encoder.EncoderModel, "layer_forward", self._layer_name)
        self._wrap(relpe.encoder.EncoderModel, "pretrain_forward", "encoder.heads")
        self._wrap(relpe.encoder, "multi_head_attention",
                   lambda args: f"attention.layer{self._layer}")
        self._wrap(relpe.attention, "attention_scores", "attention.scores")
        self._wrap(relpe.attention, "attention_output", "attention.output")
        self._wrap(relpe.posenc.RelPositionTable, "block", "posenc.block", block_bytes)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def count_nodes(self):
        """Add the autodiff nodes reachable from the last backward root."""
        seen, todo = set(), [self._loss] if self._loss is not None else []
        while todo:
            node = todo.pop()
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            todo.extend(node._parents)
        self.nodes += len(seen)
        self._loss = None

    # -- aggregation ------------------------------------------------------

    def table(self) -> dict[tuple[str, str], list]:
        """{(root span name, span name): [calls, total s, self s, amount]}."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (_, parent, start, end, _) in enumerate(self.spans):
            if parent >= 0:
                root[i] = root[parent]
                child[parent] += end - start
        rows: dict[tuple[str, str], list] = {}
        for i, (name, _, start, end, amount) in enumerate(self.spans):
            row = rows.setdefault((self.spans[root[i]][0], name), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += amount
        return rows


def step_metrics(rows: dict, steps: int) -> dict[str, float]:
    """Per-step layer metrics from the spans under ``train.run_step``."""
    def get(name, col):
        return rows.get((STEP, name), [0, 0.0, 0.0, 0])[col]

    def self_ms(name):
        return 1000.0 * get(name, 2) / steps

    m = {
        "tensor.backward_ms": self_ms("tensor.backward"),
        "optim.round_half_ms": self_ms("optim.round_half"),
        "optim.round_half_calls": get("optim.round_half", 0) / steps,
        "optim.round_half_values": get("optim.round_half", 3) / steps,
        "optim.step_ms": self_ms("optim.step"),
        "optim.training_step_self_ms": self_ms("optim.training_step"),
        "encoder.embed_ms": self_ms("encoder.embed"),
        "encoder.heads_ms": self_ms("encoder.heads"),
        "encoder.loss_ms": self_ms("encoder.loss"),
        "attention.scores_self_ms": self_ms("attention.scores"),
        "attention.output_self_ms": self_ms("attention.output"),
        "posenc.block_ms": self_ms("posenc.block"),
        "posenc.block_calls": get("posenc.block", 0) / steps,
        "posenc.block_bytes": get("posenc.block", 3) / steps,
        "train.run_step_self_ms": self_ms(STEP),
    }
    mha_self = 0.0
    for i in range(MAX_LAYERS):
        m[f"encoder.layer{i}.ffn_ms"] = self_ms(f"encoder.layer{i}.ffn")
        m[f"attention.layer{i}.ms"] = 1000.0 * get(f"attention.layer{i}", 1) / steps
        mha_self += self_ms(f"attention.layer{i}")
    m["attention.mha_self_ms"] = mha_self
    return m


# Self-time metrics that together partition one traced step.
SELF_TIME_METRICS = (
    "tensor.backward_ms", "optim.round_half_ms", "optim.step_ms",
    "optim.training_step_self_ms", "encoder.embed_ms", "encoder.heads_ms",
    "encoder.loss_ms", "attention.mha_self_ms", "attention.scores_self_ms",
    "attention.output_self_ms", "posenc.block_ms", "train.run_step_self_ms",
    *(f"encoder.layer{i}.ffn_ms" for i in range(MAX_LAYERS)),
)
