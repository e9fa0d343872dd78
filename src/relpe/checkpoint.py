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


def read_checkpoint(path, params: dict[str, Tensor]) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and each parameter's stored values (float32 widened to float64).

    Checks every name, shape and size against ``params`` first, and raises a
    CheckpointError naming the first tensor that does not fit.
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
    values = {}
    for name, p in params.items():
        t = stored[name]
        if tuple(t["shape"]) != p.data.shape or t["numel"] != p.data.size:
            raise CheckpointError(
                f"shape mismatch for tensor {name!r}: checkpoint {t['shape']} "
                f"({t['numel']} values), model {list(p.data.shape)}")
        start, nbytes = t["offset"], t["numel"] * 4
        if start + nbytes > len(raw):
            raise CheckpointError(
                f"params.bin truncated: tensor {name!r} needs bytes "
                f"[{start}, {start + nbytes}) of {len(raw)}")
        values[name] = np.frombuffer(raw[start:start + nbytes], dtype="<f4").reshape(p.data.shape)
    return manifest, values


def load_checkpoint(path, params: dict[str, Tensor]) -> dict:
    """Load stored values into ``params``, once all fit; returns the manifest."""
    manifest, values = read_checkpoint(path, params)
    for name, p in params.items():
        p.data[...] = values[name]
    return manifest


def load_optimizer_state(path, params: dict[str, Tensor],
                         optimizer: _MomentOptimizer | None = None):
    """Restore full-precision masters and optimizer moments in place, once every
    entry is present with its shape and type (float64 arrays, a non-negative
    integer ``step``): a load that raises changes nothing."""
    file = Path(path) / "optstate.bin"
    try:
        with np.load(file) as npz:
            state = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        # A truncated or corrupt zip fails in any of these ways, depending on
        # which bytes are damaged.
        raise CheckpointError(f"cannot read optimizer state {file}: {exc}")
    live = {f"master::{name}": p.data for name, p in params.items()}
    if optimizer is not None:
        live["step"] = None                      # a scalar, not a live array
        for name in params:
            if f"m::{name}" in state:            # no m:: entry: saved before the first step
                live[f"m::{name}"], live[f"v::{name}"] = optimizer.state.m[name], \
                    optimizer.state.v[name]
    for key, array in live.items():
        if key not in state:
            raise CheckpointError(f"optimizer state {file} has no entry {key!r}")
        entry, want = state[key], () if array is None else array.shape
        if entry.shape != want:
            raise CheckpointError(f"optimizer state shape mismatch for {key!r}: checkpoint "
                                  f"{list(entry.shape)}, model {list(want)}")
        if array is None:
            fits, kind = np.issubdtype(entry.dtype, np.integer) and entry >= 0, "an integer >= 0"
        else:
            fits, kind = entry.dtype == np.float64, "float64 values"
        if not fits:
            raise CheckpointError(f"optimizer state entry {key!r} holds {entry.dtype} "
                                  f"{entry if array is None else 'values'}, expected {kind}")
    for key, array in live.items():
        if array is not None:
            array[...] = state[key]
    if optimizer is not None:
        optimizer.state.step = int(state["step"])
