"""Checkpoint format 3: manifest.json + optstate.bin.

The manifest's ``tensors`` (each block's name, shape and numel, in block
order) is the optimizer's layout, and optstate.bin, an npz of exactly
``step`` and the float64 masters ``w`` and moments ``m`` and ``v``, follows it,
so a resumed run reproduces an uninterrupted one bitwise and ``relpe eval``
scores the weights the run trained. A float32 copy of the weights is
``np.load(path / "optstate.bin")["w"].astype("<f4")``. Loads check the whole
checkpoint before the first write: a load that raises changes nothing.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from pathlib import Path

import numpy as np

from .optim import _MomentOptimizer
from .tensor import Tensor

FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    pass


def _layout(params: dict[str, Tensor]) -> list[dict]:
    """The manifest's ``tensors`` for ``params``, in order."""
    return [{"name": name, "shape": list(p.data.shape), "numel": p.data.size}
            for name, p in params.items()]


def save_checkpoint(path, optimizer: _MomentOptimizer, config_dict: dict, step: int,
                    metrics: dict | None = None):
    """Write a checkpoint directory: the manifest and the optimizer's flat buffers."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_dict,
        "seed": config_dict.get("seed"),
        "step": int(step),
        "metrics": metrics or {},
        "tensors": _layout(optimizer.params),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                        encoding="utf-8")
    with open(path / "optstate.bin", "wb") as fh:
        np.savez(fh, step=np.asarray(optimizer.state.step),
                 w=optimizer.w, m=optimizer.m, v=optimizer.v)


def load_manifest(path) -> dict:
    """The format-3 manifest, with a ``config`` object, a ``step`` >= 0 and a ``tensors`` list."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or not JSON
        raise CheckpointError(f"cannot read checkpoint manifest in {path}: {exc}")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint manifest in {path} is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported (expected {FORMAT_VERSION})")
    for key, kind, fits in (("config", "an object", lambda x: isinstance(x, dict)),
                            ("step", "an integer >= 0", lambda x: type(x) is int and x >= 0),
                            ("tensors", "a list", lambda x: isinstance(x, list))):
        if not fits(manifest.get(key)):
            raise CheckpointError(f"checkpoint manifest in {path}: {key!r} is "
                                  f"{manifest.get(key)!r}, expected {kind}")
    return manifest


def _check_layout(manifest: dict, params: dict[str, Tensor]):
    """Raise unless the manifest's layout is ``params``'."""
    for i, (stored, live) in enumerate(itertools.zip_longest(manifest["tensors"],
                                                             _layout(params))):
        if stored != live:
            raise CheckpointError(f"checkpoint tensor {i} differs from the model's: "
                                  f"checkpoint {stored}, model {live}")


def load_optimizer_state(path, optimizer: _MomentOptimizer) -> dict:
    """Restore ``step`` and the flat masters and moments in place; returns the manifest.

    Nothing is written until the manifest's layout is the optimizer's and
    optstate.bin holds an integer ``step`` >= 0 and float64 ``w``, ``m`` and
    ``v`` of the masters' length.
    """
    manifest = load_manifest(path)
    _check_layout(manifest, optimizer.params)
    file = Path(path) / "optstate.bin"
    try:
        with np.load(file) as npz:
            state = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        # A truncated or corrupt zip fails in any of these ways, depending on
        # which bytes are damaged.
        raise CheckpointError(f"cannot read optimizer state {file}: {exc}")
    for key in ("step", "w", "m", "v"):
        if key not in state:
            raise CheckpointError(f"optimizer state {file} has no entry {key!r}")
        entry, shape = state[key], list(optimizer.w.shape)
        if key == "step" and not (entry.shape == () and np.issubdtype(entry.dtype, np.integer)
                                  and entry >= 0):
            raise CheckpointError(f"optimizer state entry 'step' holds {entry.dtype} "
                                  f"{entry}, expected an integer >= 0")
        if key != "step" and (list(entry.shape), entry.dtype) != (shape, np.float64):
            raise CheckpointError(f"optimizer state entry {key!r} holds {entry.dtype} values of "
                                  f"shape {list(entry.shape)}, expected float64 of shape {shape}")
    optimizer.w[...], optimizer.m[...], optimizer.v[...] = state["w"], state["m"], state["v"]
    optimizer.state.step = int(state["step"])
    return manifest
