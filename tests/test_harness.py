import ctypes
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import relpe.optim
import relpe.train
from relpe.ablate import hash_cell
from relpe.checkpoint import (CheckpointError, load_checkpoint, load_manifest,
                              load_optimizer_state, save_checkpoint)
from relpe.cli import main as cli_main
from relpe.config import ConfigError, RunConfig
from relpe.data import CLS_ID, MASK_ID, read_examples
from relpe.encoder import EncoderConfig, EncoderModel, pretrain_loss
from relpe.optim import AdamOptimizer, LambOptimizer, LrSchedule, PrecisionPolicy
from relpe.synth import (generate_toy_corpus, make_offset_copy_examples,
                         partner, toy_words)
from relpe.tensor import Tensor
from relpe.train import Trainer, TrainingDiverged, _eval_chunks, evaluate


def tiny_run_config(**kw):
    defaults = dict(
        model=EncoderConfig(vocab_size=13, d_model=8, num_layers=1, num_heads=2,
                            ffn_size=16, max_seq_len=12),
        schedule=LrSchedule(lr_max=1e-3, warmup_steps=3, total_steps=12),
        optimizer="lamb",
        batch_size=2,
        total_steps=12,
        checkpoint_every=6,
        seed=3,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def tiny_examples(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return make_offset_copy_examples(n, 12, 8, -3, rng)


# Tiny runs that diverge within a few steps: (precision mode, optimizer, lr_max).
DIVERGING = {"full-adam": ("full", "adam", 1e200), "mixed-lamb": ("mixed_emulated", "lamb", 1e6)}


def diverging_config(run, **kw):
    mode, optimizer, lr_max = DIVERGING[run]
    return tiny_run_config(schedule=LrSchedule(lr_max=lr_max, warmup_steps=3, total_steps=12),
                           precision=PrecisionPolicy(mode=mode), optimizer=optimizer, **kw)


# Damaged optstate.bin entries: (entry, its replacement given the saved value).
# ``v`` is the last entry, so every other one is checked before it.
BAD_OPTIMIZER_ENTRIES = {
    "bad-last-v-entry": ("v", lambda v: np.full(1, 0.7)),
    "string-last-v-entry": ("v", lambda v: np.full(v.shape, "x")),
    "nan-step": ("step", lambda v: np.asarray(np.nan)),
}


def damage_optimizer_state(ckpt, damage):
    """Rewrite ``ckpt``'s optstate.bin with one BAD_OPTIMIZER_ENTRIES entry; returns its key."""
    key, bad = BAD_OPTIMIZER_ENTRIES[damage]
    with np.load(ckpt / "optstate.bin") as npz:
        state = {k: npz[k] for k in npz.files}
    state[key] = bad(state[key])
    with open(ckpt / "optstate.bin", "wb") as fh:
        np.savez(fh, **state)
    return key


class TestRunConfig:
    def test_round_trip_through_json(self, tmp_path):
        config = tiny_run_config()
        config.save(tmp_path / "config.json")
        loaded = RunConfig.from_json(tmp_path / "config.json")
        assert loaded.to_dict() == config.to_dict()

    def test_unknown_top_level_key_rejected(self):
        d = tiny_run_config().to_dict()
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig.from_dict(d)

    def test_unknown_model_key_rejected(self):
        d = tiny_run_config().to_dict()
        d["model"]["head_size"] = 4
        with pytest.raises(ConfigError, match="head_size"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("model", [
        {"num_heads": 3},                      # d_model 8 does not split in 3
        {"num_heads": 0},
        {"num_heads": 8, "scheme": "frpe"},    # odd d_z = 1
        {"max_seq_len": 0},
        {"hidden_dropout": 1.0},
        {"hidden_dropout": -0.1},
        {"attn_dropout": 1.0},
        {"attn_dropout": 1.5},
        {"attn_dropout": -0.1},
        {"vocab_size": 0},
        {"d_model": 0},
        {"ffn_size": -4},
        {"ffn_size": 0},
        {"num_layers": -1},
        {"num_layers": 0},
        {"type_vocab_size": 0},
    ])
    def test_invalid_head_geometry_rejected(self, model):
        d = tiny_run_config().to_dict()
        d["model"].update(model)
        with pytest.raises(ConfigError, match="model config"):
            RunConfig.from_dict(d)

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"optimizer": "lamb"})

    def test_invalid_nested_value_reported(self):
        d = tiny_run_config().to_dict()
        d["schedule"]["warmup_steps"] = 0
        with pytest.raises(ConfigError, match="schedule"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("section, key, value", [
        *(("schedule", "lr_max", v) for v in (math.nan, math.inf, -math.inf, -1.0)),
        *((None, "weight_decay", v) for v in (math.nan, math.inf, -math.inf, -0.01)),
        (None, "checkpoint_every", -1),
        (None, "checkpoint_every", -2),
        (None, "checkpoint_every", 2.0),
        (None, "batch_size", True),
        ("model", "vocab_size", 16.5),
        ("model", "d_model", 8.0),
        ("model", "num_heads", True),
        ("model", "max_seq_len", "12"),
        ("schedule", "warmup_steps", 1.5),
        ("schedule", "warmup_steps", 0),
        ("schedule", "total_steps", 12.0),
        (None, "total_steps", 13),            # past the schedule's 12 steps
        (None, "train_examples", True),
        (None, "train_examples", 5),
        (None, "corpus", 1.5),
        (None, "lexicon", ["words.txt"]),
        (None, "out_dir", 7),
        (None, "out_dir", None),
        (None, "out_dir", ""),
        ("precision", "loss_scale", True),
        ("precision", "loss_scale", "1024"),
        ("model", "hidden_dropout", False),
        ("model", "attn_dropout", False),
        ("model", "hidden_dropout", 1.0),
        ("model", "attn_dropout", math.nan),
    ])
    def test_bad_number_names_the_key(self, section, key, value):
        d = tiny_run_config().to_dict()
        (d[section] if section else d)[key] = value
        with pytest.raises(ConfigError, match=rf"{section or 'run'} config: {key}="):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("section, value", [
        ("model", 5), ("schedule", []), ("precision", "mixed"), ("precision", None)])
    def test_section_that_is_not_an_object_is_named(self, section, value):
        d = tiny_run_config().to_dict()
        d[section] = value
        with pytest.raises(ConfigError, match=rf"^{section} config must be a JSON object"):
            RunConfig.from_dict(d)

    def test_invalid_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            tiny_run_config(optimizer="sgd")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_json(tmp_path / "missing.json")

    def test_readme_minimal_config_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("A minimal `run.json`:", 1)[1].split("```json", 1)[1]
        documented = json.loads(block.split("```", 1)[0])
        d = RunConfig.from_dict(documented).to_dict()
        for key, value in documented.items():
            assert d[key] == ({**d[key], **value} if isinstance(value, dict) else value), key
        assert RunConfig.from_dict(d).to_dict() == d


class TestCheckpoint:
    def params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "embed.token": Tensor(rng.normal(size=(6, 4)).astype(np.float32)
                                  .astype(np.float64), requires_grad=True),
            "layer0.ffn.w1": Tensor(rng.normal(size=(4, 8)).astype(np.float32)
                                    .astype(np.float64), requires_grad=True),
        }

    def test_round_trip_bitwise_at_storage_precision(self, tmp_path):
        params = self.params()
        save_checkpoint(tmp_path / "ckpt", AdamOptimizer(params, weight_decay=0.0),
                        {"seed": 1}, step=5, metrics={"loss": 1.0})
        restored = self.params(seed=99)
        manifest = load_checkpoint(tmp_path / "ckpt", restored)
        assert manifest["step"] == 5 and manifest["seed"] == 1
        assert manifest["format_version"] == 2
        for name in params:
            np.testing.assert_array_equal(restored[name].data, params[name].data)
        with np.load(tmp_path / "ckpt" / "optstate.bin") as npz:
            assert sorted(npz.files) == ["m", "step", "v", "w"]

    def test_optimizer_state_restores_masters_and_moments(self, tmp_path):
        params = self.params()
        # give the values float64 detail that float32 storage would destroy
        params["embed.token"].data = params["embed.token"].data + 1e-12
        opt = self.stepped_optimizer(params)
        save_checkpoint(tmp_path / "ckpt", opt, {"seed": 0}, step=1)

        restored = self.params(seed=99)
        opt2 = AdamOptimizer(restored, weight_decay=0.0)
        assert load_optimizer_state(tmp_path / "ckpt", opt2)["step"] == 1
        assert opt2.state.step == 1
        for name in params:
            np.testing.assert_array_equal(restored[name].data, params[name].data)
            np.testing.assert_array_equal(opt2.state.m[name], opt.state.m[name])
            np.testing.assert_array_equal(opt2.state.v[name], opt.state.v[name])
            assert np.shares_memory(restored[name].data, opt2.w)
            assert np.shares_memory(opt2.state.m[name], opt2.m)

    def save(self, tmp_path):
        """Save one Adam step of ``self.params()``; returns the checkpoint directory."""
        params = self.params()
        save_checkpoint(tmp_path / "ckpt", self.stepped_optimizer(params), {}, step=1)
        return tmp_path / "ckpt"

    def assert_failed_load_changes_nothing(self, ckpt, params, match):
        """Loading ``ckpt`` into a stepped optimizer of ``params`` raises a
        CheckpointError matching ``match``, with w, m, v and step bitwise unchanged."""
        opt = self.stepped_optimizer(params)
        opt.state.step = 7                     # not the stored step
        before = [a.copy() for a in (opt.w, opt.m, opt.v)]
        with pytest.raises(CheckpointError, match=match):
            load_optimizer_state(ckpt, opt)
        assert opt.state.step == 7
        for got, want in zip((opt.w, opt.m, opt.v), before):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_shape_mismatch_names_tensor(self, tmp_path):
        ckpt = self.save(tmp_path)
        bad = self.params(seed=99)
        bad["embed.token"] = Tensor(np.zeros((5, 4)), requires_grad=True)
        with pytest.raises(CheckpointError, match="embed.token"):
            load_checkpoint(ckpt, bad)
        self.assert_failed_load_changes_nothing(ckpt, bad, "tensor 0 .*embed.token")

    def test_parameter_set_mismatch(self, tmp_path):
        ckpt = self.save(tmp_path)
        bad = self.params(seed=99)
        del bad["layer0.ffn.w1"]
        with pytest.raises(CheckpointError, match="layer0.ffn.w1"):
            load_checkpoint(ckpt, bad)
        self.assert_failed_load_changes_nothing(ckpt, bad, "tensor 1 .*layer0.ffn.w1")

    @pytest.mark.parametrize("damage", ["reordered", "resized", "no-numel", "not-an-object"])
    def test_manifest_layout_mismatch_named(self, tmp_path, damage):
        ckpt = self.save(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        tensors = manifest["tensors"]
        if damage == "reordered":
            tensors.reverse()
        elif damage == "resized":
            tensors[0]["shape"], tensors[0]["numel"] = [5, 4], 20
        elif damage == "no-numel":
            del tensors[0]["numel"]
        else:
            tensors[0] = "embed.token"
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="tensor 0 .*embed.token"):
            load_checkpoint(ckpt, self.params(seed=99))
        self.assert_failed_load_changes_nothing(ckpt, self.params(seed=99),
                                                "tensor 0 .*embed.token")

    def test_truncated_payload_detected(self, tmp_path):
        ckpt = self.save(tmp_path)
        blob = (ckpt / "params.bin").read_bytes()
        (ckpt / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(ckpt, self.params())
        self.assert_failed_load_changes_nothing(ckpt, self.params(seed=99), "params.bin")

    def test_truncated_optimizer_state_detected(self, tmp_path):
        state = self.save(tmp_path) / "optstate.bin"
        blob = state.read_bytes()
        state.write_bytes(blob[:len(blob) // 2])
        self.assert_failed_load_changes_nothing(state.parent, self.params(seed=99),
                                                "optstate.bin")

    @staticmethod
    def stepped_optimizer(params):
        opt = AdamOptimizer(params, weight_decay=0.0)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.01)
        return opt

    def rewrite_optimizer_state(self, tmp_path, **entries):
        """Save one Adam step of ``self.params()``, then replace or (value None)
        drop optstate.bin entries; returns the checkpoint directory."""
        ckpt = self.save(tmp_path)
        with np.load(ckpt / "optstate.bin") as npz:
            kept = {k: entries.get(k, npz[k]) for k in npz.files}
        with open(ckpt / "optstate.bin", "wb") as fh:
            np.savez(fh, **{k: v for k, v in kept.items() if v is not None})
        return ckpt

    @pytest.mark.parametrize("entry", ["step", "w", "m", "v"])
    def test_missing_optimizer_entry_named(self, tmp_path, entry):
        ckpt = self.rewrite_optimizer_state(tmp_path, **{entry: None})
        self.assert_failed_load_changes_nothing(ckpt, self.params(seed=99),
                                                f"no entry '{entry}'")

    @pytest.mark.parametrize("entry", ["m", "v"])
    def test_moment_shape_mismatch_named(self, tmp_path, entry):
        # a (1,) moment would broadcast over the whole buffer
        ckpt = self.rewrite_optimizer_state(tmp_path, **{entry: np.full(1, 0.7)})
        self.assert_failed_load_changes_nothing(ckpt, self.params(seed=99),
                                                rf"'{entry}' holds float64 values of shape \[1\]")

    @pytest.mark.parametrize("entry, value, named", [
        ("w", np.zeros(57), "'w' holds float64 values of shape .57."),
        ("m", np.zeros(56, dtype=np.float32), "'m' holds float32"),
        ("v", np.full(56, "x"), "'v' holds <U1"),
        ("step", np.asarray(np.nan), "'step' holds float64 nan"),
        ("step", np.asarray(-1), "'step' holds int64 -1"),
        ("step", np.asarray("x"), "'step' holds <U1 x"),
        ("step", np.asarray(True), "'step' holds bool"),
        ("step", np.ones(1, dtype=np.int64), "'step' holds int64"),
    ], ids=["long-w", "float32-m", "string-v", "nan-step", "negative-step", "string-step",
            "bool-step", "vector-step"])
    def test_bad_optimizer_entry_named(self, tmp_path, entry, value, named):
        ckpt = self.rewrite_optimizer_state(tmp_path, **{entry: value})
        self.assert_failed_load_changes_nothing(ckpt, self.params(seed=99), named)

    def rewrite_format_version(self, tmp_path, version):
        ckpt = self.save(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format_version"] = version
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        return ckpt

    def test_format_version_checked(self, tmp_path):
        ckpt = self.rewrite_format_version(tmp_path, 999)
        with pytest.raises(CheckpointError, match="version 999 unsupported"):
            load_manifest(ckpt)

    def test_format_one_rejected(self, tmp_path):
        ckpt = self.rewrite_format_version(tmp_path, 1)
        with pytest.raises(CheckpointError, match="version 1 unsupported"):
            load_manifest(ckpt)

    def test_missing_checkpoint_directory(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_manifest(tmp_path / "nope")


class TestTrainer:
    def test_metrics_log_structure(self, tmp_path):
        config = tiny_run_config(total_steps=3, checkpoint_every=0)
        Trainer(config, tiny_examples()).train(out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["run_config"] == config.to_dict()
        assert header["seed"] == config.seed
        records = [json.loads(l) for l in lines[1:]]
        assert [r["step"] for r in records] == [1, 2, 3]
        for r in records:
            assert set(r) >= {"loss", "mlm_loss", "nsp_loss", "mlm_accuracy",
                              "lr", "skipped", "wall_time"}
            assert math.isfinite(r["loss"])

    @pytest.mark.parametrize("mode", ["full", "mixed_emulated"])
    def test_tracer_sees_every_update_and_master_rounding(self, monkeypatch, mode):
        # perfbench/tracer.py wraps LambOptimizer.step and the module global
        # relpe.optim.round_half at runtime, so each must see the work it names.
        config = tiny_run_config(precision=PrecisionPolicy(mode=mode), checkpoint_every=0)
        trainer = Trainer(config, tiny_examples())
        params = trainer.params
        numel = sum(p.data.size for p in params.values())

        def snapshot():
            return {name: p.data.copy() for name, p in params.items()}

        exits, untouched_between, masters_rounded = [snapshot()], [], []
        real_step, real_round = LambOptimizer.step, relpe.optim.round_half

        def traced_step(self, *args, **kwargs):
            entry = snapshot()
            untouched_between.append(all(np.array_equal(entry[k], exits[-1][k]) for k in entry))
            real_step(self, *args, **kwargs)
            exits.append(snapshot())

        def traced_round(x):
            if np.size(x) == numel and all(np.shares_memory(x, p.data) for p in params.values()):
                masters_rounded.append(trainer.step + 1)
            return real_round(x)

        monkeypatch.setattr(LambOptimizer, "step", traced_step)
        monkeypatch.setattr(relpe.optim, "round_half", traced_round)
        records = [trainer.run_step(t) for t in range(1, 6)]
        assert not any(r["skipped"] for r in records)
        assert untouched_between == [True] * 5
        for before, after in zip(exits, exits[1:]):
            assert any(not np.array_equal(before[k], after[k]) for k in before)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, exits[-1][name])
        assert masters_rounded == ([1, 2, 3, 4, 5] if mode == "mixed_emulated" else [])

    def test_identical_seeds_reproduce_bitwise(self, tmp_path):
        config = tiny_run_config(total_steps=4, checkpoint_every=0)
        t1 = Trainer(config, tiny_examples())
        t1.train(out_dir=tmp_path / "a")
        t2 = Trainer(config, tiny_examples())
        t2.train(out_dir=tmp_path / "b")
        for name, p in t1.params.items():
            np.testing.assert_array_equal(p.data, t2.params[name].data)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        examples = tiny_examples()
        config = tiny_run_config()  # 12 steps, checkpoint at step 6

        straight = Trainer(config, examples)
        straight.train(out_dir=tmp_path / "straight")

        interrupted = Trainer(config, examples)
        interrupted.train(out_dir=tmp_path / "interrupted")

        resumed = Trainer(config, examples)
        resumed.train(out_dir=tmp_path / "resumed",
                      resume_from=tmp_path / "interrupted" / "checkpoint-6")
        assert resumed.step == 12
        for name, p in straight.params.items():
            np.testing.assert_array_equal(p.data, resumed.params[name].data)

        # and so do the final checkpoints: params.bin byte for byte, and each
        # optstate.bin entry bit for bit (the zip's own bytes carry timestamps)
        def payload(run):
            ckpt = tmp_path / run / "checkpoint-final"
            with np.load(ckpt / "optstate.bin") as npz:
                entries = {k: (npz[k].dtype, npz[k].shape, npz[k].tobytes()) for k in npz.files}
            return (ckpt / "params.bin").read_bytes(), entries

        assert payload("straight") == payload("resumed")

        # per-step metrics agree too, modulo wall-clock time
        def records(run):
            lines = (tmp_path / run / "metrics.jsonl").read_text().splitlines()
            out = {}
            for line in lines[1:]:
                r = json.loads(line)
                r.pop("wall_time")
                out[r["step"]] = r
            return out

        full = records("straight")
        tail = records("resumed")
        assert sorted(tail) == list(range(7, 13))
        for step, r in tail.items():
            assert r == full[step]

    def test_resume_into_own_directory_keeps_log(self, tmp_path):
        examples = tiny_examples()
        config = tiny_run_config()  # 12 steps, checkpoint at step 6
        Trainer(config, examples).train(out_dir=tmp_path / "run")
        log = tmp_path / "run" / "metrics.jsonl"
        first = [json.loads(l) for l in log.read_text().splitlines()]

        Trainer(config, examples).train(out_dir=tmp_path / "run",
                                        resume_from=tmp_path / "run" / "checkpoint-6")
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert records[:len(first)] == first
        assert [r["step"] for r in first[1:]] == list(range(1, 13))
        assert records[len(first)] == {"type": "resume", "from_step": 6}
        replay = records[len(first) + 1:]
        assert [r["step"] for r in replay] == list(range(7, 13))
        for r in replay:
            expected = dict(first[r["step"]])
            expected.pop("wall_time")
            r.pop("wall_time")
            assert r == expected

    def test_resume_with_no_step_left_keeps_the_checkpoint_metrics(self, tmp_path):
        config = tiny_run_config(precision=PrecisionPolicy(mode="mixed_emulated"),
                                 total_steps=4, checkpoint_every=0)
        final = tmp_path / "run" / "checkpoint-final"
        Trainer(config, tiny_examples()).train(out_dir=tmp_path / "run")
        before = load_manifest(final)
        assert {"loss", "lr", "mlm_accuracy"} <= before["metrics"].keys()
        assert Trainer(config, tiny_examples()).train(out_dir=tmp_path / "run",
                                                      resume_from=final) is None
        assert load_manifest(final) == before

    @staticmethod
    def assert_optimizer_owns_memory(trainer):
        opt = trainer.optimizer
        for name, p in trainer.params.items():
            assert np.shares_memory(p.data, opt.w), name
            assert np.shares_memory(opt.state.m[name], opt.m), name
            assert np.shares_memory(opt.state.v[name], opt.v), name

    def test_parameters_and_moments_stay_views_of_the_optimizer(self, tmp_path):
        config = tiny_run_config(precision=PrecisionPolicy(mode="mixed_emulated"))
        trainer = Trainer(config, tiny_examples())
        trainer.train(out_dir=tmp_path / "run")           # 12 mixed steps, 2 saves
        self.assert_optimizer_owns_memory(trainer)
        resumed = Trainer(config, tiny_examples())
        resumed.resume(tmp_path / "run" / "checkpoint-6")
        self.assert_optimizer_owns_memory(resumed)
        assert resumed.optimizer.m.any() and resumed.optimizer.state.step == 6
        assert not resumed.run_step(7)["skipped"]
        self.assert_optimizer_owns_memory(resumed)

    @pytest.mark.parametrize("damage", [*BAD_OPTIMIZER_ENTRIES, "wrong-shape-last-tensor"])
    def test_failed_resume_changes_nothing(self, tmp_path, damage):
        trainer = Trainer(tiny_run_config(total_steps=4, checkpoint_every=2), tiny_examples())
        trainer.train(out_dir=tmp_path / "run")
        ckpt, last = tmp_path / "run" / "checkpoint-2", list(trainer.params)[-1]
        if damage in BAD_OPTIMIZER_ENTRIES:
            named = damage_optimizer_state(ckpt, damage)
        else:
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["tensors"][-1]["shape"].append(1)
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            named = last
        opt = trainer.optimizer
        before = [a.copy() for a in (opt.w, opt.m, opt.v)]
        with pytest.raises(CheckpointError, match=named):
            trainer.resume(ckpt)
        assert trainer.step == opt.state.step == 4
        for got, want in zip((opt.w, opt.m, opt.v), before):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        self.assert_optimizer_owns_memory(trainer)

    @pytest.mark.parametrize("run", DIVERGING)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_named_with_its_step(self, run):
        trainer = Trainer(diverging_config(run), tiny_examples())
        with pytest.raises(TrainingDiverged) as info:
            for t in range(1, 13):
                trainer.run_step(t)
        assert str(info.value).startswith(f"training diverged at step {t}: ")
        assert trainer.step == t - 1

    @pytest.mark.parametrize("mode", ["full", "mixed_emulated"])
    def test_non_finite_loss_diverges_in_both_modes(self, monkeypatch, mode):
        real = relpe.train.pretrain_loss

        def infinite_loss(*args):
            loss, metrics = real(*args)
            return loss, {**metrics, "loss": math.inf}

        monkeypatch.setattr(relpe.train, "pretrain_loss", infinite_loss)
        trainer = Trainer(tiny_run_config(precision=PrecisionPolicy(mode=mode)), tiny_examples())
        opt = trainer.optimizer
        before = [a.copy() for a in (opt.w, opt.m, opt.v)]
        with pytest.raises(TrainingDiverged, match="at step 1: loss is inf"):
            trainer.run_step(1)
        # the diverged step changed neither the optimizer nor the trainer
        for old, new in zip(before, (opt.w, opt.m, opt.v)):
            assert old.tobytes() == new.tobytes()
        assert opt.state.step == 0 and trainer.step == 0

    def test_zero_steps_writes_init_checkpoint(self, tmp_path):
        config = tiny_run_config(total_steps=0, checkpoint_every=0)
        trainer = Trainer(config, tiny_examples())
        assert trainer.train(out_dir=tmp_path / "run") is None
        assert (tmp_path / "run" / "checkpoint-init" / "manifest.json").exists()

    def test_requires_examples(self):
        with pytest.raises(ValueError):
            Trainer(tiny_run_config(), [])

    @pytest.mark.parametrize("label", [13, 999, -1])
    def test_label_outside_vocabulary_is_named(self, tmp_path, label):
        examples = tiny_examples(n=2)
        examples[1].predict_labels[-1] = label
        problem = rf"batch example 1: predict label {label} outside the vocabulary of 13"
        with pytest.raises(IndexError, match=rf"examples 0-1: {problem}"):
            evaluate(EncoderModel(tiny_run_config().model), examples)
        trainer = Trainer(tiny_run_config(batch_size=8), examples[1:])
        with pytest.raises(IndexError, match="batch example 0: predict label"):
            trainer.train(out_dir=tmp_path / "run")


# A child interpreter that trains the test-09 (toy MLM) configuration, so the
# allocator state it measures does not depend on the tests that ran before.
# argv: working directory, then "faults" or "off"/"on" (the threshold helper
# replaced by a no-op or left in place).
_CHILD = """
import resource, sys
from pathlib import Path
import relpe.train
from relpe import data, synth
from relpe.config import RunConfig
from relpe.encoder import EncoderConfig
from relpe.optim import LrSchedule, PrecisionPolicy

out, task = Path(sys.argv[1]), sys.argv[2]
if task == "off":
    relpe.train._keep_freed_memory_mapped = lambda: None
corpus, lexicon = synth.generate_toy_corpus(
    out / "corpus", num_docs=10, sentences_per_doc=10, words_per_sentence=10,
    alphabet=200, seed=0)
examples = data.make_examples(data.load_corpus(corpus), data.build_vocab([corpus]),
                              data.Lexicon.load(lexicon), "char", 44, seed=1)

def trainer(mode, steps):
    return relpe.train.Trainer(RunConfig(
        model=EncoderConfig(vocab_size=256, d_model=32, num_layers=2, num_heads=2,
                            ffn_size=64, max_seq_len=44),
        schedule=LrSchedule(lr_max=0.005, warmup_steps=steps // 10, total_steps=steps),
        precision=PrecisionPolicy(mode=mode), optimizer="lamb", batch_size=4,
        total_steps=steps, checkpoint_every=0, seed=0), examples)

if task == "faults":
    t = trainer("full", 35)
    for step in range(1, 6):
        t.run_step(step)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for step in range(6, 36):
        t.run_step(step)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
else:
    for mode in ("full", "mixed_emulated"):
        trainer(mode, 12).train(out_dir=out / mode)
"""


def run_child(tmp_path, task, script=_CHILD):
    src = str(Path(relpe.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    tmp_path.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), task], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# A child interpreter that takes relpe's run-time paths (a full and a
# mixed_emulated training step, evaluation, a whole-model gradient check) and
# prints the SciPy modules they imported.
_RUNTIME_CHILD = """
import sys
import numpy as np
import relpe
from relpe.config import RunConfig
from relpe.encoder import EncoderConfig
from relpe.gradcheck import check_full_model
from relpe.optim import LrSchedule, PrecisionPolicy
from relpe.synth import make_offset_copy_examples
from relpe.train import Trainer, evaluate

examples = make_offset_copy_examples(6, 12, 8, -3, np.random.default_rng(0))
for mode in ("full", "mixed_emulated"):
    trainer = Trainer(RunConfig(
        model=EncoderConfig(vocab_size=13, d_model=8, num_layers=1, num_heads=2,
                            ffn_size=16, max_seq_len=12),
        schedule=LrSchedule(lr_max=1e-3, warmup_steps=3, total_steps=12),
        precision=PrecisionPolicy(mode=mode), optimizer="lamb", batch_size=2,
        total_steps=12, checkpoint_every=0, seed=3), examples)
    trainer.run_step(1)
    evaluate(trainer.model, examples)
check_full_model("none")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy(tmp_path):
    # relpe's only run-time dependency is NumPy; SciPy is a test oracle.
    assert run_child(tmp_path, "", script=_RUNTIME_CHILD).strip() == "[]"


class TestMallocThresholds:
    """Trainer fixes glibc's mmap and trim thresholds once per process."""

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        """Let the once-per-process helper run anew in each test."""
        relpe.train._keep_freed_memory_mapped.cache_clear()
        yield
        relpe.train._keep_freed_memory_mapped.cache_clear()

    @staticmethod
    def fake_libc(monkeypatch, answer):
        """Replace libc with one whose mallopt records its calls."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return answer

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

    def test_steady_state_steps_do_not_fault_memory_back_in(self, tmp_path):
        # glibc's default thresholds cost this config hundreds of faults per step.
        assert float(run_child(tmp_path, "faults")) <= 20

    def test_thresholds_do_not_change_results(self, tmp_path):
        run_child(tmp_path / "on", "on")
        run_child(tmp_path / "off", "off")
        for mode in ("full", "mixed_emulated"):
            for name in ("params.bin", "optstate.bin"):
                on, off = (tmp_path / side / mode / "checkpoint-final" / name
                           for side in ("on", "off"))
                assert on.read_bytes() == off.read_bytes(), (mode, name)

    def test_sets_mmap_then_trim_threshold_once_per_process(self, monkeypatch, tmp_path):
        calls = self.fake_libc(monkeypatch, answer=1)
        for _ in range(2):   # relpe ablate builds one Trainer per cell
            Trainer(tiny_run_config(total_steps=2, checkpoint_every=0),
                    tiny_examples()).train(out_dir=tmp_path / "run")
        assert calls == [(-3, 256 << 20), (-1, 256 << 20)]

    def test_trim_threshold_left_alone_if_mmap_threshold_refused(self, monkeypatch):
        # Any mallopt call freezes glibc's dynamic mmap threshold, so trimming
        # alone would leave every block over 128 KiB mmapped.
        calls = self.fake_libc(monkeypatch, answer=0)
        Trainer(tiny_run_config(), tiny_examples())
        assert calls == [(-3, 256 << 20)]

    @pytest.mark.parametrize("libc", ["missing", "without_mallopt"])
    def test_hosts_without_mallopt_train_normally(self, monkeypatch, tmp_path, libc):
        def cdll(name):
            if libc == "missing":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        trainer = Trainer(tiny_run_config(total_steps=2, checkpoint_every=0), tiny_examples())
        last = trainer.train(out_dir=tmp_path / "run")
        assert trainer.step == 2 and math.isfinite(last["loss"])


class TestEvaluate:
    def examples(self):
        rng = np.random.default_rng(4)
        examples = [ex for n in (12, 40, 13, 30, 16) * 8
                    for ex in make_offset_copy_examples(1, n, 8, -3, rng)]
        examples[3].predict_positions, examples[3].predict_labels = [], []
        return examples

    def test_matches_graph_building_reference(self):
        model = EncoderModel(tiny_run_config(model=EncoderConfig(
            vocab_size=13, d_model=8, num_layers=2, num_heads=2, ffn_size=16,
            max_seq_len=12, scheme="prpe", prpe_clip=3)).model, seed=5)
        examples = self.examples()
        got = evaluate(model, examples)

        nll = correct = nsp = 0.0
        for ex in examples:
            out = model.pretrain_forward(ex)
            loss, _ = pretrain_loss(out, ex)
            assert loss.requires_grad     # the reference builds every graph
            k = len(ex.predict_labels)
            if k:
                lp = out.mlm_logits.data - out.mlm_logits.data.max(axis=-1, keepdims=True)
                lp -= np.log(np.exp(lp).sum(axis=-1, keepdims=True))
                nll -= lp[np.arange(k), ex.predict_labels].sum()
                correct += np.sum(out.mlm_logits.data.argmax(-1) == ex.predict_labels)
            nsp += out.nsp_logits.data.argmax() == ex.nsp_label
        n_pred = sum(len(ex.predict_labels) for ex in examples)
        assert got["num_examples"] == len(examples)
        assert got["num_predictions"] == n_pred
        assert got["mlm_loss"] == pytest.approx(nll / n_pred, rel=0, abs=1e-12)
        assert got["mlm_accuracy"] == pytest.approx(correct / n_pred, rel=0, abs=1e-12)
        assert got["nsp_accuracy"] == pytest.approx(nsp / len(examples), rel=0, abs=1e-12)

    def test_chunks_are_consecutive_and_capped(self):
        examples = self.examples()
        examples.insert(7, make_offset_copy_examples(1, 600, 8, -3,
                                                     np.random.default_rng(0))[0])
        starts, chunks = zip(*_eval_chunks(examples))
        assert [ex for chunk in chunks for ex in chunk] == examples
        assert list(starts) == [0, *np.cumsum([len(chunk) for chunk in chunks])[:-1]]
        for chunk in chunks:
            longest = max(len(ex.tokens) for ex in chunk)
            assert len(chunk) == 1 or (
                len(chunk) * longest <= relpe.train._EVAL_CHUNK_TOKENS
                and len(chunk) * longest ** 2 <= relpe.train._EVAL_CHUNK_SCORES)
        assert [len(ex.tokens) for ex in chunks[1]] == [600]
        assert len(chunks) < len(examples) // 4
        examples[9].tokens[2] = 99
        with pytest.raises(IndexError, match=r"examples 8-\d+: .* of batch example 1"):
            evaluate(EncoderModel(tiny_run_config().model), examples)
        assert evaluate(EncoderModel(tiny_run_config().model), []) == {
            "num_examples": 0, "num_predictions": 0, "mlm_loss": 0.0,
            "mlm_accuracy": 0.0, "nsp_accuracy": 0.0}

    def test_pass_size_does_not_change_the_report(self, monkeypatch):
        model = EncoderModel(tiny_run_config().model, seed=6)
        examples = make_offset_copy_examples(24, 12, 8, -3, np.random.default_rng(7))
        assert len(list(_eval_chunks(examples))) == 1
        together = evaluate(model, examples)
        monkeypatch.setattr(relpe.train, "_EVAL_CHUNK_TOKENS", 12)   # one example a pass
        alone = evaluate(model, examples)
        assert len(list(_eval_chunks(examples))) == len(examples)
        loss = alone.pop("mlm_loss")
        assert together.pop("mlm_loss") == pytest.approx(loss, rel=0, abs=4 * math.ulp(loss))
        assert together == alone


class TestSynth:
    def test_partner_is_a_bijection(self):
        for alphabet in (8, 48, 200):
            image = {partner(i, alphabet) for i in range(alphabet)}
            assert image == set(range(alphabet))

    def test_toy_words_structure(self):
        words = toy_words(16)
        assert len(words) == 16
        assert all(len(w) == 2 for w in words)

    def test_generate_toy_corpus(self, tmp_path):
        corpus, lexicon = generate_toy_corpus(tmp_path, num_docs=3,
                                              sentences_per_doc=2,
                                              words_per_sentence=4, alphabet=16)
        docs = corpus.read_text(encoding="utf-8").split("\n\n")
        assert len(docs) == 3
        for doc in docs:
            lines = [l for l in doc.splitlines() if l]
            assert len(lines) == 2 and all(len(l) == 8 for l in lines)
        words = set(lexicon.read_text(encoding="utf-8").split())
        sentence = docs[0].splitlines()[0]
        assert all(sentence[i:i + 2] in words for i in range(0, 8, 2))

    def test_offset_copy_labels_point_at_offset(self):
        rng = np.random.default_rng(5)
        for ex in make_offset_copy_examples(20, 24, 10, -3, rng):
            assert ex.tokens[0] == CLS_ID
            for q, label in zip(ex.predict_positions, ex.predict_labels):
                assert ex.tokens[q] == MASK_ID
                assert ex.tokens[q - 3] == label
                assert label >= 5

    def test_offset_copy_rejects_impossible_geometry(self):
        with pytest.raises(ValueError):
            make_offset_copy_examples(1, 6, 4, -5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_offset_copy_examples(1, 16, 4, 0, np.random.default_rng(0))


class TestCli:
    def write_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abcdabcd\nbcdabcda\n\ncdabcdab\ndabcdabc\n",
                          encoding="utf-8")
        return corpus

    def write_config(self, tmp_path, **kw):
        config = tiny_run_config(**kw)
        path = tmp_path / "config.json"
        config.save(path)
        return path, config

    def test_build_vocab(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path)
        rc = cli_main(["build-vocab", "--corpus", str(corpus),
                       "--out", str(tmp_path / "vocab.txt")])
        assert rc == 0
        vocab_lines = (tmp_path / "vocab.txt").read_text().splitlines()
        assert vocab_lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert set(vocab_lines[5:]) == set("abcd")

    def test_prepare_data_is_deterministic_and_self_describing(self, tmp_path):
        corpus = self.write_corpus(tmp_path)
        cfg_path, config = self.write_config(
            tmp_path, corpus=str(corpus), out_dir=str(tmp_path / "data"))
        assert cli_main(["prepare-data", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "data" / "examples.jsonl").read_bytes()
        stats = json.loads((tmp_path / "data" / "stats.json").read_text())
        assert stats["seed"] == config.seed
        assert stats["run_config"]["masking_strategy"] == "char"
        assert cli_main(["prepare-data", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "data" / "examples.jsonl").read_bytes() == first

    def test_prepare_data_seed_changes_output(self, tmp_path):
        corpus = self.write_corpus(tmp_path)
        cfg_path, _ = self.write_config(
            tmp_path, corpus=str(corpus), out_dir=str(tmp_path / "data"))
        cli_main(["prepare-data", "--config", str(cfg_path)])
        first = (tmp_path / "data" / "examples.jsonl").read_bytes()
        cli_main(["prepare-data", "--config", str(cfg_path), "--seed", "77"])
        assert (tmp_path / "data" / "examples.jsonl").read_bytes() != first

    def test_pretrain_and_eval(self, tmp_path, capsys):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(
            tmp_path, train_examples=str(examples_path),
            out_dir=str(tmp_path / "run"), total_steps=4, checkpoint_every=2)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "checkpoint-final"
        assert (ckpt / "manifest.json").exists()
        assert (ckpt / "params.bin").exists()
        assert (ckpt / "optstate.bin").exists()
        assert (tmp_path / "run" / "checkpoint-2" / "manifest.json").exists()

        rc = cli_main(["eval", "--checkpoint", str(ckpt),
                       "--examples", str(examples_path),
                       "--out", str(tmp_path / "eval.json")])
        assert rc == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["num_examples"] == 6
        assert math.isfinite(report["mlm_loss"])
        assert report["run_config"]["seed"] == report["seed"]

    def test_pretrain_resume_from_checkpoint(self, tmp_path):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(
            tmp_path, train_examples=str(examples_path),
            out_dir=str(tmp_path / "run"), total_steps=6, checkpoint_every=3)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        rc = cli_main(["pretrain", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run2"),
                       "--resume", str(tmp_path / "run" / "checkpoint-3")])
        assert rc == 0
        assert (tmp_path / "run2" / "checkpoint-final" / "manifest.json").exists()

    @pytest.mark.parametrize("damage", ["string-last-v-entry", "nan-step"])
    def test_pretrain_resume_from_bad_optimizer_state_exits_one(self, tmp_path, capsys, damage):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(
            tmp_path, train_examples=str(examples_path),
            out_dir=str(tmp_path / "run"), total_steps=4, checkpoint_every=2)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        key = damage_optimizer_state(tmp_path / "run" / "checkpoint-2", damage)
        capsys.readouterr()
        rc = cli_main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "run2"),
                       "--resume", str(tmp_path / "run" / "checkpoint-2")])
        assert rc == 1
        assert f"'{key}'" in capsys.readouterr().err

    def pretrained_run(self, tmp_path, capsys):
        """A 4-step tiny run through the CLI; returns its config path."""
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(
            tmp_path, train_examples=str(examples_path),
            out_dir=str(tmp_path / "run"), total_steps=4, checkpoint_every=0)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        return cfg_path

    @pytest.mark.parametrize("damage, named", [
        (lambda m: m.pop("step"), "'step'"),
        (lambda m: m.pop("config"), "'config'"),
        (lambda m: m.pop("tensors"), "'tensors'"),
        (lambda m: m["tensors"][0].pop("numel"), "'numel'"),
        (lambda m: m.update(step="x"), "'step'"),
        (lambda m: m.update(step=True), "'step'"),
        (lambda m: m.update(config=[]), "'config'"),
        (lambda m: m.update(tensors={}), "'tensors'"),
        (lambda m: m.update(tensors=[7]), "tensor 0"),
        (None, "JSON object"),                 # the manifest wrapped in a list
    ], ids=["no-step", "no-config", "no-tensors", "no-numel", "string-step", "bool-step",
            "list-config", "object-tensors", "number-tensor", "list-manifest"])
    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_damaged_manifest_is_user_error(self, tmp_path, capsys, damage, named, command):
        cfg_path = self.pretrained_run(tmp_path, capsys)
        ckpt = tmp_path / "run" / "checkpoint-final"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        if damage is None:
            manifest = [manifest]
        else:
            damage(manifest)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        argv = (["eval", "--checkpoint", str(ckpt), "--examples", str(tmp_path / "train.jsonl")]
                if command == "eval" else
                ["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "run2"),
                 "--resume", str(ckpt)])
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_resume_of_finished_run_reports_its_step(self, tmp_path, capsys):
        cfg_path = self.pretrained_run(tmp_path, capsys)
        assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "run2"),
                         "--resume", str(tmp_path / "run" / "checkpoint-final")]) == 0
        assert capsys.readouterr().out == "no steps left to run: wrote the step-4 checkpoint\n"
        assert load_manifest(tmp_path / "run2" / "checkpoint-final")["step"] == 4

    def test_resume_past_the_end_is_refused(self, tmp_path, capsys):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(
            tmp_path, train_examples=str(examples_path),
            out_dir=str(tmp_path / "run"), total_steps=6, checkpoint_every=0)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        short_path = tmp_path / "short.json"
        tiny_run_config(train_examples=str(examples_path), out_dir=str(tmp_path / "run"),
                        total_steps=4, checkpoint_every=0).save(short_path)
        run = tmp_path / "run"
        before = {f: f.read_bytes() for f in run.rglob("*") if f.is_file()}
        capsys.readouterr()
        assert cli_main(["pretrain", "--config", str(short_path),
                         "--resume", str(run / "checkpoint-final")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert "step 6" in captured.err and "total_steps=4" in captured.err
        assert {f: f.read_bytes() for f in run.rglob("*") if f.is_file()} == before

    @pytest.mark.parametrize("run", DIVERGING)
    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a warning would print too
    def test_divergence_exits_one_naming_the_step(self, tmp_path, capsys, run):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        config = diverging_config(run, train_examples=str(examples_path),
                                  out_dir=str(tmp_path / "run"))
        config.save(tmp_path / "config.json")
        assert cli_main(["pretrain", "--config", str(tmp_path / "config.json")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged at step \d+: .+\n", err), err

    @pytest.mark.parametrize("flags, named", [
        (["gradcheck", "--scheme", "bogus"], "--scheme 'bogus'"),
        (["gradcheck", "--scheme", "none,frpe,"], "--scheme ''"),
        (["build-vocab", "--max-size", "3"], "--max-size 3"),
        (["build-vocab", "--max-size", "-1"], "--max-size -1"),
    ], ids=["bogus-scheme", "empty-scheme", "max-size-below-specials", "negative-max-size"])
    def test_bad_flag_is_user_error(self, tmp_path, capsys, flags, named):
        if flags[0] == "build-vocab":
            flags += ["--corpus", str(self.write_corpus(tmp_path)),
                      "--out", str(tmp_path / "vocab.txt")]
        assert cli_main(flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == "" and not (tmp_path / "vocab.txt").exists()

    def test_user_errors_exit_code_one(self, tmp_path, capsys):
        assert cli_main(["pretrain", "--config", str(tmp_path / "nope.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {}, "schedule": {}, "zzz": 1}')
        assert cli_main(["pretrain", "--config", str(bad)]) == 1
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "nope"),
                         "--examples", str(tmp_path / "nope.jsonl")]) == 1
        capsys.readouterr()

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a warning would print too
    def test_eval_of_non_finite_checkpoint_is_user_error(self, tmp_path, capsys):
        cfg_path = self.write_init_only_config(tmp_path)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "checkpoint-init"
        values = np.fromfile(ckpt / "params.bin", dtype="<f4")
        values[::7] = np.inf                     # what 1e39 is in float32
        values.tofile(ckpt / "params.bin")
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(ckpt),
                         "--examples", str(tmp_path / "train.jsonl")]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: evaluation failed: examples 0-5: .+ not finite .+\n",
                            captured.err), captured.err
        assert captured.out == ""

    def test_eval_of_malformed_examples_is_user_error(self, tmp_path, capsys):
        cfg_path = self.write_init_only_config(tmp_path)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        bad = tmp_path / "bad.jsonl"
        record = tiny_examples()[0].to_dict()
        record["segments"] = record["segments"][:-1]
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint-init"),
                         "--examples", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.jsonl" in err and "line 1" in err
        (tmp_path / "p").mkdir()
        cfg_path, _ = self.write_config(tmp_path / "p", train_examples=str(bad),
                                        out_dir=str(tmp_path / "p" / "run"), total_steps=1)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 1
        assert "bad.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, problem", [
        ("nsp_label", 2, "line 3: nsp_label 2 must be 0 or 1"),
        ("predict_labels", 999, "example 2 has predict label 999 outside [0, vocab_size=13)"),
        ("segments", 2, "example 2 has segment 2 outside [0, type_vocab_size=2)"),
    ])
    def test_out_of_range_ids_are_user_errors(self, tmp_path, capsys, field, value, problem):
        cfg_path = self.write_init_only_config(tmp_path)
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 0
        records = [ex.to_dict() for ex in tiny_examples()]
        if field == "nsp_label":
            records[2][field] = value
        else:
            records[2][field][-1] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        (tmp_path / "p").mkdir()
        bad_cfg, _ = self.write_config(tmp_path / "p", train_examples=str(bad),
                                       out_dir=str(tmp_path / "p" / "run"), total_steps=1)
        capsys.readouterr()
        assert cli_main(["pretrain", "--config", str(bad_cfg)]) == 1
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint-init"),
                         "--examples", str(bad)]) == 1
        errors = capsys.readouterr().err.splitlines()     # one for pretrain, one for eval
        assert len(errors) == 2
        for line in errors:
            assert line.startswith("error: ") and "bad.jsonl" in line and problem in line
        assert not (tmp_path / "p" / "run").exists()

    def write_init_only_config(self, tmp_path):
        examples_path = tmp_path / "train.jsonl"
        from relpe.data import write_examples
        write_examples(tiny_examples(), examples_path)
        cfg_path, _ = self.write_config(tmp_path, train_examples=str(examples_path),
                                        out_dir=str(tmp_path / "run"), total_steps=0)
        return cfg_path

    def test_pretrain_rejects_negative_seed_override(self, tmp_path, capsys):
        cfg_path = self.write_init_only_config(tmp_path)
        assert cli_main(["pretrain", "--config", str(cfg_path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run config") and "seed" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("schedule", "lr_max", math.nan),
        ("schedule", "lr_max", -1.0),
        (None, "weight_decay", math.nan),
        (None, "checkpoint_every", -2),
        ("model", "vocab_size", 16.5),
        (None, "total_steps", 13),
        (None, "train_examples", True),
        (None, "train_examples", 5),
        (None, "out_dir", 7),
        (None, "out_dir", ""),
        ("precision", "loss_scale", True),
    ])
    def test_pretrain_rejects_bad_number_before_training(self, tmp_path, capsys,
                                                          section, key, value):
        cfg_path = self.write_init_only_config(tmp_path)
        d = json.loads(cfg_path.read_text(encoding="utf-8"))
        (d[section] if section else d)[key] = value
        cfg_path.write_text(json.dumps(d), encoding="utf-8")
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ") and f"{key}=" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section", ["model", "precision"])
    def test_pretrain_names_a_section_that_is_not_an_object(self, tmp_path, capsys, section):
        cfg_path = self.write_init_only_config(tmp_path)
        d = ({"model": 5, "schedule": {}} if section == "model" else
             {**json.loads(cfg_path.read_text(encoding="utf-8")), "precision": "mixed"})
        cfg_path.write_text(json.dumps(d), encoding="utf-8")
        assert cli_main(["pretrain", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{section} config must be a JSON object" in err
        assert not (tmp_path / "run").exists()

    def test_pretrain_applies_valid_overrides(self, tmp_path):
        cfg_path = self.write_init_only_config(tmp_path)
        out = tmp_path / "other"
        assert cli_main(["pretrain", "--config", str(cfg_path),
                         "--seed", "9", "--out", str(out)]) == 0
        manifest = load_manifest(out / "checkpoint-init")
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["out_dir"] == str(out)
        assert not (tmp_path / "run").exists()

    def test_prepare_data_without_corpus_is_user_error(self, tmp_path, capsys):
        cfg_path, _ = self.write_config(tmp_path, out_dir=str(tmp_path / "d"))
        assert cli_main(["prepare-data", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "corpus" in err

    @pytest.mark.parametrize("flags", [
        ["--steps", "1"],                      # no room for warmup
        ["--schemes", "frpe,bogus"],
        ["--schemes", ""],
        ["--sl-train", "4"],                   # too short for two offset queries
        ["--sl-eval", "0"],
        ["--pape-max-position", "-1"],
        ["--pape-max-position", "0"],          # was taken as unset
        ["--seed", "-1000"],                   # every cell seed negative
    ])
    def test_ablate_rejects_bad_grid_before_training(self, tmp_path, capsys, flags):
        out = tmp_path / "grid"
        assert cli_main(["ablate", "--out", str(out), "--steps", "5", *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_ablate_tiny_grid(self, tmp_path, capsys):
        def run(out):
            assert cli_main(["ablate", "--out", str(out), "--schemes", "pape,frpe",
                             "--steps", "5",
                             "--sl-train", "16", "--sl-eval", "24"]) == 0
            return (out / "results.json").read_bytes()

        first = run(tmp_path / "a")
        results = json.loads(first)
        lines = (tmp_path / "a" / "results.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["scheme", "sl_train", "sl_eval",
                                        "accuracy_train_len", "accuracy_eval_len",
                                        "status"]
        pape, frpe = (line.split("\t") for line in lines[1:])
        assert pape[:3] == ["pape", "16", "24"] and pape[4] == ""
        assert pape[5].startswith("out-of-range")
        assert frpe[:3] == ["frpe", "16", "24"] and frpe[5] == "ok"
        assert 0.0 <= float(frpe[4]) <= 1.0

        for row in results["rows"]:
            config = row["run_config"]
            assert config["seed"] == results["seed"] + hash_cell(row["scheme"], "char") % 1000
            assert config["model"]["scheme"] == row["scheme"]
            assert config["total_steps"] == 5
        assert run(tmp_path / "b") == first


class TestBenchTracer:
    """perfbench/tracer.py wraps relpe names at runtime; a refactor that drops
    one, or a wrapper that outlives ``uninstall``, fails here."""

    @staticmethod
    def load_tracer_module():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_install_traces_a_step_and_uninstall_restores_every_name(self):
        tracer = self.load_tracer_module().Tracer()
        trainer = Trainer(tiny_run_config(checkpoint_every=0), tiny_examples())
        tracer.install()                 # getattr of each wrapped name: all must exist
        try:
            patches = list(tracer._patches)
            trainer.run_step(1)
        finally:
            tracer.uninstall()
        assert {"attention.layer0", "tensor.backward", "optim.step"} <= {
            span[0] for span in tracer.spans}
        for owner, attr, original in patches:
            assert vars(owner).get(attr) is original, f"{owner.__name__}.{attr}"
