"""What ``perfbench/`` reads of relpe, named and checked.

The benchmark drives the program from outside, so a rename in ``src/`` can
break it without any other test failing. Two lists name what it reads: the
relpe modules and attributes its files import or dereference, found by an AST
scan and committed below, and a hand-kept list of what no scan can see
(attributes of the objects relpe returns, keywords, result keys), each with
the perfbench line that reads it. Both must resolve against the program.
"""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from relpe.attention import init_head_weights
from relpe.config import RunConfig
from relpe.encoder import EncoderConfig
from relpe.optim import LrSchedule
from relpe.posenc import Scheme
from relpe.synth import make_offset_copy_examples
from relpe.train import Trainer, evaluate

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def relpe_reads(source: str) -> dict[str, list[int]]:
    """{dotted name: lines} of each relpe module or attribute that ``source``
    imports, reads through an imported name, or wraps as ``_wrap(owner, "attr", ...)``."""
    tree = ast.parse(source)
    found, bound = defaultdict(list), {}       # bound: local name -> dotted relpe name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relpe":
                    found[alias.name].append(node.lineno)
                    bound[alias.asname or "relpe"] = alias.name if alias.asname else "relpe"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relpe":
            for alias in node.names:
                found[f"{node.module}.{alias.name}"].append(node.lineno)
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner and dotted(node):
            found[dotted(node)].append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_wrap"
              and dotted(node.args[0]) and isinstance(node.args[1], ast.Constant)):
            found[f"{dotted(node.args[0])}.{node.args[1].value}"].append(node.lineno)
    return {name: sorted(lines) for name, lines in found.items()}


def test_scan_finds_imports_chains_and_wrap_targets():
    source = ("import relpe.train\nfrom relpe import data\nfrom relpe.optim import lr_at_step\n"
              "def f(x):\n    relpe.train.Trainer.run_step(x)\n    data.Lexicon.load(x).words\n"
              "    x._wrap(relpe.train, 'evaluate', 'e')\n    other.thing\n")
    assert relpe_reads(source) == {
        "relpe.train": [1, 7], "relpe.data": [2], "relpe.optim.lr_at_step": [3],
        "relpe.train.Trainer.run_step": [5], "relpe.data.Lexicon.load": [6],
        "relpe.train.evaluate": [7]}


def bench_reads() -> dict[str, list[str]]:
    """{dotted relpe name: ["file:line", ...]} over every ``perfbench/*.py``."""
    where = defaultdict(list)
    for path in sorted(BENCH.glob("*.py")):
        for name, lines in relpe_reads(path.read_text(encoding="utf-8")).items():
            where[name] += [f"perfbench/{path.name}:{line}" for line in lines]
    return dict(where)


def resolve(name: str):
    """The object a dotted name names, importing its modules on the way."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


# Every relpe name perfbench imports or dereferences, as the scan finds them.
# A change to perfbench that reads another name adds it here.
BENCH_NAMES = [
    "relpe.attention",
    "relpe.attention.AttentionConfig",
    "relpe.attention.attention_output",
    "relpe.attention.attention_scores",
    "relpe.attention.init_head_weights",
    "relpe.attention.multi_head_attention",
    "relpe.config.RunConfig",
    "relpe.data",
    "relpe.data.Lexicon.load",
    "relpe.data.PretrainExample",
    "relpe.data.build_vocab",
    "relpe.data.load_corpus",
    "relpe.data.make_examples",
    "relpe.encoder",
    "relpe.encoder.EncoderConfig",
    "relpe.encoder.EncoderModel",
    "relpe.encoder.EncoderModel.embed_inputs",
    "relpe.encoder.EncoderModel.layer_forward",
    "relpe.encoder.EncoderModel.pretrain_forward",
    "relpe.encoder.multi_head_attention",
    "relpe.optim",
    "relpe.optim.LambOptimizer",
    "relpe.optim.LambOptimizer.step",
    "relpe.optim.LrSchedule",
    "relpe.optim.PrecisionPolicy",
    "relpe.optim.round_half",
    "relpe.posenc",
    "relpe.posenc.RelPositionTable",
    "relpe.posenc.RelPositionTable.block",
    "relpe.posenc.Scheme",
    "relpe.posenc.build_rel_table",
    "relpe.synth",
    "relpe.synth.generate_toy_corpus",
    "relpe.synth.make_offset_copy_examples",
    "relpe.tensor",
    "relpe.tensor.Tensor",
    "relpe.tensor.Tensor.backward",
    "relpe.train",
    "relpe.train.Trainer",
    "relpe.train.Trainer.run_step",
    "relpe.train.evaluate",
    "relpe.train.pretrain_loss",
    "relpe.train.save_checkpoint",
    "relpe.train.training_step",
]


def test_the_committed_list_is_what_perfbench_reads():
    assert sorted(bench_reads()) == BENCH_NAMES


def test_every_name_perfbench_reads_resolves():
    missing = []
    for name, where in sorted(bench_reads().items()):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(f"{name} (read at {', '.join(where)})")
    assert missing == []


# What perfbench reads that no import names, as (perfbench file:line, owner,
# uses). A use is an attribute chain of a live object (".a.b"), a keyword of
# a relpe callable ("name="), or a key of a result ("[name]"). Attribute and
# key owners name the live objects of ``live_objects``; keyword owners are
# dotted names under ``relpe``.
BENCH_USES = [
    ("run.py:82", "PretrainExample", ".tokens"),
    ("run.py:137", "Trainer", ".run_step"),
    ("run.py:150", "Trainer", ".run_step"),
    ("run.py:154", "Trainer", ".train"),
    ("run.py:154", "train.Trainer.train", "out_dir="),
    ("run.py:158", "Trainer.run_step", "[step]"),
    ("run.py:159", "RunConfig", ".total_steps"),
    ("run.py:162", "Trainer.run_step", "[loss]"),
    ("run.py:165", "RunConfig", ".checkpoint_every"),
    ("run.py:168", "Trainer", ".resume"),
    ("run.py:174", "Trainer", ".optimizer.state"),
    ("run.py:176", "Trainer", ".step"),
    ("run.py:177", "Trainer", ".params"),
    ("run.py:177", "Tensor", ".data"),
    ("run.py:179", "Trainer", ".optimizer.state.m .optimizer.state.v"),
    ("run.py:190", "Trainer", ".model"),
    ("run.py:197", "evaluate", "[mlm_loss]"),
    ("run.py:209", "Trainer.run_step", "[skipped]"),
    ("tracer.py:73", "EncoderModel", ".layers"),
    ("tracer.py:84", "RelPositionTable", ".d_z"),
    ("tracer.py:116", "Tensor", ".requires_grad"),
    ("tracer.py:119", "Tensor", "._parents"),
    ("sweep.py:41", "attention.AttentionConfig", "num_heads= d_model= scheme="),
    ("sweep.py:44", "Scheme", ".relative"),
    ("sweep.py:45", "AttentionConfig", ".d_z"),
    ("sweep.py:45", "posenc.build_rel_table", "rng_seed= clip="),
    ("sweep.py:46", "tensor.Tensor", "requires_grad="),
    ("sweep.py:49", "HeadWeights", ".parameters"),
    ("sweep.py:50", "RelPositionTable", ".parameters"),
    ("sweep.py:54", "Tensor", ".zero_grad"),
    ("sweep.py:55", "attention.multi_head_attention", "table="),
    ("sweep.py:56", "Tensor", ".sum .backward"),
    ("sweep.py:57", "Tensor", ".grad"),
    ("workloads.py:49", "synth.generate_toy_corpus", "num_docs= sentences_per_doc="),
    ("workloads.py:50", "synth.generate_toy_corpus", "words_per_sentence= alphabet= seed="),
    ("workloads.py:58", "data.make_examples", "seed="),
    ("workloads.py:68", "optim.LrSchedule", "warmup_steps= total_steps="),
    ("workloads.py:69", "config.RunConfig", "optimizer= total_steps= seed="),
    ("workloads.py:76", "config.RunConfig", "model="),
    ("workloads.py:76", "encoder.EncoderConfig", "vocab_size= d_model= num_layers= num_heads="),
    ("workloads.py:77", "encoder.EncoderConfig", "ffn_size= max_seq_len= scheme="),
    ("workloads.py:78", "config.RunConfig", "schedule="),
    ("workloads.py:78", "optim.LrSchedule", "lr_max="),
    ("workloads.py:79", "config.RunConfig", "masking_strategy= batch_size= checkpoint_every="),
    ("workloads.py:89", "encoder.EncoderConfig", "prpe_clip="),
    ("workloads.py:91", "config.RunConfig", "precision="),
    ("workloads.py:91", "optim.PrecisionPolicy", "mode= loss_scale="),
]

USES = [(cite, owner, use) for cite, owner, uses in BENCH_USES for use in uses.split()]


@pytest.fixture(scope="module")
def live_objects():
    """A tiny FRPE Trainer after one step and the objects perfbench reads from
    its kind of run, by the owner names of ``BENCH_USES``."""
    examples = make_offset_copy_examples(4, 8, 8, -2, np.random.default_rng(0))
    model = EncoderConfig(vocab_size=13, d_model=8, num_layers=1, num_heads=2, ffn_size=16,
                          max_seq_len=8, scheme="frpe")
    config = RunConfig(model=model, schedule=LrSchedule(warmup_steps=1, total_steps=2),
                       batch_size=2, total_steps=2)
    trainer = Trainer(config, examples)
    record = trainer.run_step(1)
    return {"PretrainExample": examples[0], "Trainer": trainer, "RunConfig": config,
            "EncoderModel": trainer.model, "RelPositionTable": trainer.model.rel_table,
            "AttentionConfig": trainer.model.attn_cfg, "Scheme": Scheme.FRPE,
            "HeadWeights": init_head_weights(trainer.model.attn_cfg, np.random.default_rng(0)),
            "Tensor": trainer.params["embed.token"], "Trainer.run_step": record,
            "evaluate": evaluate(trainer.model, examples)}


def cited_text(use: str) -> tuple[str, ...]:
    """What the cited perfbench line must hold for ``use``."""
    if use.endswith("="):
        return (use,)
    if use.startswith("["):
        return (f'"{use[1:-1]}"', f"'{use[1:-1]}'")
    return ("." + use.rsplit(".", 1)[-1],)


@pytest.mark.parametrize("cite, owner, use", USES, ids=[f"{c}:{u}" for c, _, u in USES])
def test_every_hand_kept_use_holds(cite, owner, use, live_objects):
    file, line = cite.split(":")
    text = (BENCH / file).read_text(encoding="utf-8").splitlines()[int(line) - 1]
    assert any(part in text for part in cited_text(use)), f"perfbench/{cite} reads no {use}"
    where = f"perfbench/{cite}: {owner} {use}"
    if use.endswith("="):
        signature = inspect.signature(resolve(f"relpe.{owner}"))
        try:
            signature.bind_partial(**{use[:-1]: None})
        except TypeError:
            pytest.fail(f"{where}: no such keyword in {signature}")
    elif use.startswith("["):
        assert use[1:-1] in live_objects[owner], where
    else:
        obj = live_objects[owner]
        for attr in use[1:].split("."):
            assert hasattr(obj, attr), where
            obj = getattr(obj, attr)
