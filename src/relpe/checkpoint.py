"""Checkpoint format: manifest.json + params.bin + optstate.bin.

params.bin is the concatenation of every parameter as little-endian 32-bit
floats in manifest order, so a save/load round trip is bitwise at storage
precision. optstate.bin additionally carries the full-precision parameter
values and optimizer moments so a resumed run reproduces an uninterrupted
one exactly.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .optim import _MomentOptimizer
from .tensor import Tensor

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, params: dict[str, Tensor], optimizer: _MomentOptimizer | None,
                    config_dict: dict, step: int, metrics: dict | None = None):
    """Write a checkpoint directory; parameters narrow to float32 for storage."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    tensors = []
    offset = 0
    payload = io.BytesIO()
    for name, p in params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4")
        tensors.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "numel": int(raw.size)})
        payload.write(raw.tobytes())
        offset += raw.size * 4
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_dict,
        "seed": config_dict.get("seed"),
        "step": int(step),
        "metrics": metrics or {},
        "tensors": tensors,
    }
    (path / "params.bin").write_bytes(payload.getvalue())
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                        encoding="utf-8")
    state = {"step": np.asarray(0 if optimizer is None else optimizer.state.step)}
    if optimizer is not None:
        for name, m in optimizer.state.m.items():
            state[f"m::{name}"] = m
        for name, v in optimizer.state.v.items():
            state[f"v::{name}"] = v
    for name, p in params.items():
        state[f"master::{name}"] = p.data
    with open(path / "optstate.bin", "wb") as fh:
        np.savez(fh, **state)


def load_manifest(path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint manifest in {path}: {exc}")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported (expected {FORMAT_VERSION})")
    return manifest


def load_checkpoint(path, params: dict[str, Tensor]) -> dict:
    """Load stored values into ``params`` (float32 widened to float64).

    Refuses to load on any name or shape mismatch, naming the tensor.
    Returns the manifest.
    """
    path = Path(path)
    manifest = load_manifest(path)
    raw = (path / "params.bin").read_bytes()
    stored = {t["name"]: t for t in manifest["tensors"]}
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, p in params.items():
        t = stored[name]
        if tuple(t["shape"]) != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for tensor {name!r}: checkpoint {t['shape']}, "
                f"model {list(p.data.shape)}")
        start, nbytes = t["offset"], t["numel"] * 4
        if start + nbytes > len(raw):
            raise CheckpointError(
                f"params.bin truncated: tensor {name!r} needs bytes "
                f"[{start}, {start + nbytes}) of {len(raw)}")
        arr = np.frombuffer(raw[start:start + nbytes], dtype="<f4")
        p.data = arr.astype(np.float64).reshape(p.data.shape)
    return manifest


def load_optimizer_state(path, params: dict[str, Tensor],
                         optimizer: _MomentOptimizer | None = None):
    """Restore full-precision masters (into params) and optimizer moments."""
    file = Path(path) / "optstate.bin"
    try:
        with np.load(file) as npz:
            state = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        # A truncated or corrupt zip fails in any of these ways, depending on
        # which bytes are damaged.
        raise CheckpointError(f"cannot read optimizer state {file}: {exc}")
    for name, p in params.items():
        key = f"master::{name}"
        if key not in state:
            raise CheckpointError(f"optimizer state missing master weights for {name!r}")
        master = state[key]
        if master.shape != p.data.shape:
            raise CheckpointError(f"master shape mismatch for tensor {name!r}")
        p.data = master.astype(np.float64)
    if optimizer is not None:
        try:
            optimizer.state.step = int(state["step"])
            for name in params:
                if f"m::{name}" in state:
                    optimizer.state.m[name] = state[f"m::{name}"].astype(np.float64)
                    optimizer.state.v[name] = state[f"v::{name}"].astype(np.float64)
        except KeyError as exc:
            raise CheckpointError(f"optimizer state {file} has no entry {exc}")
