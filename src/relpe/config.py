"""Run configuration: the single source of experiment truth.

A RunConfig is validated on construction, serialized verbatim into every
checkpoint manifest and metrics log, and mirrors its JSON file exactly;
unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import EncoderConfig
from .optim import LrSchedule, PrecisionPolicy, require_number


class ConfigError(ValueError):
    pass


def _from_mapping(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object, not {data!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}")


@dataclass
class RunConfig:
    model: EncoderConfig
    schedule: LrSchedule
    precision: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    optimizer: str = "lamb"
    weight_decay: float = 0.01
    train_examples: str | None = None
    corpus: str | None = None
    lexicon: str | None = None
    masking_strategy: str = "char"
    batch_size: int = 8
    total_steps: int = 1000
    checkpoint_every: int = 500
    seed: int = 0
    out_dir: str = "run"

    def __post_init__(self):
        if self.optimizer not in ("lamb", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.masking_strategy not in ("char", "wwm"):
            raise ConfigError(f"unknown masking strategy {self.masking_strategy!r}")
        for name, kind, low in (("weight_decay", float, 0), ("batch_size", int, 1),
                                ("total_steps", int, 0), ("checkpoint_every", int, 0),
                                ("seed", int, 0)):
            require_number(self, name, kind, low, ConfigError)
        for name in ("train_examples", "corpus", "lexicon", "out_dir"):
            value, optional = getattr(self, name), name != "out_dir"
            # an empty path would resolve to the current directory
            if not ((isinstance(value, str) and value) or (optional and value is None)):
                raise ConfigError(f"{name}={value!r} must be a nonempty path string"
                                  + (" or null" if optional else ""))
        if self.total_steps > self.schedule.total_steps:
            # the steps past the schedule's end would all train at lr 0
            raise ConfigError(f"total_steps={self.total_steps} must be <= schedule "
                              f"total_steps={self.schedule.total_steps}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["model"]["scheme"] = self.model.scheme.value
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("run config must be a JSON object")
        if "model" not in data or "schedule" not in data:
            raise ConfigError("run config requires 'model' and 'schedule' sections")
        data = dict(data)
        data["model"] = _from_mapping(EncoderConfig, data["model"], "model config")
        data["schedule"] = _from_mapping(LrSchedule, data["schedule"], "schedule config")
        if "precision" in data:
            data["precision"] = _from_mapping(PrecisionPolicy, data["precision"],
                                              "precision config")
        return _from_mapping(cls, data, "run config")

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Read and validate a config file; ``overrides`` replace its top-level
        keys before validation."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}")
        if overrides and isinstance(data, dict):
            data = {**data, **overrides}
        return cls.from_dict(data)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                              encoding="utf-8")
