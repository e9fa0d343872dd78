"""Checkpoint format: manifest.json + params.bin + optstate.bin.

params.bin is the concatenation of every parameter as little-endian 32-bit
floats in manifest order, so a save/load round trip is bitwise at storage
precision. optstate.bin additionally carries the full-precision parameter
values and optimizer moments so a resumed run reproduces an uninterrupted
one exactly.
"""

from __future__ import annotations

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
    for name, p in params.items():
        tensors.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "numel": p.data.size})
        offset += p.data.size * 4
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_dict,
        "seed": config_dict.get("seed"),
        "step": int(step),
        "metrics": metrics or {},
        "tensors": tensors,
    }
    masters = np.concatenate([p.data for p in params.values()], axis=None)
    (path / "params.bin").write_bytes(masters.astype("<f4").tobytes())
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
        p.data[...] = np.frombuffer(raw[start:start + nbytes], dtype="<f4").reshape(p.data.shape)
    return manifest


def load_optimizer_state(path, params: dict[str, Tensor],
                         optimizer: _MomentOptimizer | None = None):
    """Restore full-precision masters and optimizer moments, in place."""
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
        if state[key].shape != p.data.shape:
            raise CheckpointError(f"master shape mismatch for tensor {name!r}")
        p.data[...] = state[key]
    if optimizer is not None:
        st = optimizer.state
        try:
            st.step = int(state["step"])
            for name in params:
                if f"m::{name}" not in state:     # saved before the first step
                    continue
                for key, moment in ((f"m::{name}", st.m[name]), (f"v::{name}", st.v[name])):
                    if state[key].shape != moment.shape:
                        raise CheckpointError(
                            f"moment shape mismatch for {key!r}: checkpoint "
                            f"{list(state[key].shape)}, model {list(moment.shape)}")
                    moment[...] = state[key]
        except KeyError as exc:
            raise CheckpointError(f"optimizer state {file} has no entry {exc}")
