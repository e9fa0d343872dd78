"""Every name a relpe or test module imports is used in it, and every module-level
private name is read by some relpe module: the unused-import and dead-code
checks a linter would make, with only the standard library's ``ast``. Also
the source rules past a linter's: banned NumPy calls, one training loop, one
function that builds a batch, an exit code for every error, and a probe that
the program reaches every ``Tensor`` member."""

import ast
import builtins
import functools
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relpe"


def unused_imports(source: str) -> list[str]:
    """Names that import statements in ``source`` bind and no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from a import b as c, d\nc(numpy.linalg.norm)\ndef f(x: d): pass\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
                         + sorted(Path(__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> set[str]:
    """Module-level ``_name`` functions, classes and constants that ``source`` defines."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names that ``source`` loads, reads as an attribute or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each private name of ``sources`` that none of them reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted(f"{module}:{name}" for module, source in sources.items()
                  for name in private_names(source) - read)


def test_checker_finds_dead_private_names():
    sources = {"a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper(): pass\nclass _Gone: pass\n"
                       "def __getattr__(name): return _USED\n",
               "b.py": "from a import _helper\n_helper()\n"}
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


# NumPy functions that ``src/`` must not call. ``take_along_axis`` builds one
# broadcast index array per axis on every call; a flat ``take`` through a
# precomputed index reads the same entries. ``add.at`` is the unbuffered
# scatter that ``tensor._scatter_rows`` replaces bit for bit, so that one
# ``np.bincount`` stays the engine's only row scatter. Tests may still use
# both as oracles.
BANNED_CALLS = {"take_along_axis", "add.at"}


def banned_calls(source: str) -> list[str]:
    """``line:name`` for each name of ``BANNED_CALLS`` that ``source`` reads or
    imports; a dotted name such as ``add.at`` matches an attribute of that name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "attr", getattr(node.value, "id", None))
            names = [node.attr, f"{owner}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}:{name}" for name in names if name in BANNED_CALLS]
    return sorted(found)


def test_checker_finds_banned_calls():
    source = ("import numpy as np\nfrom numpy import add, take, take_along_axis\nnp.take(a, i)\n"
              "y = np.take_along_axis(a, i, axis=-1)\nnp.add.at(a, i, g)\nadd.at(a, i, g)\n"
              "np.add(a, g, out=a)\nat = 1\n")
    assert banned_calls(source) == ["2:take_along_axis", "4:take_along_axis", "5:add.at",
                                    "6:add.at"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_calls_no_banned_function(module):
    assert banned_calls((SRC / module).read_text(encoding="utf-8")) == []


def name_readers(source: str, module: str, name: str) -> list[str]:
    """``module:scope`` for each class or function of ``source`` that reads
    ``name``, called or not; ``scope`` is its dotted path in the module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if getattr(child, "attr", None) == name or getattr(child, "id", None) == name:
                found.append(f"{module}:{scope}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_checker_finds_step_readers():
    source = ("class T:\n    def run_step(self, t): pass\n"
              "    def train(self):\n        self.run_step(1)\n"
              "def cell(trainer):\n    step = trainer.run_step\n    step(1)\n"
              "for t in range(2):\n    run_step(t)\n")
    assert name_readers(source, "m.py", "run_step") == ["m.py:", "m.py:T.train", "m.py:cell"]


def test_only_the_training_loop_runs_steps():
    # One training loop: everything else trains through Trainer.train, which
    # writes the metrics log and the final checkpoint.
    assert sum((name_readers(p.read_text(encoding="utf-8"), p.name, "run_step")
                for p in sorted(SRC.glob("*.py"))), []) == ["train.py:Trainer.train"]


def test_one_function_builds_a_batch():
    # ``make_batch`` alone flattens examples' fields into a batch's arrays and
    # checks them; every model pass takes the Batch it returns, and the loss
    # reads its labels from the forward's output. Only the code that holds the
    # examples calls it: the Trainer's check and steps, evaluate's chunks and
    # the gradient check's one batch. The CLI checks no file.
    def readers(name):
        return sum((name_readers(p.read_text(encoding="utf-8"), p.name, name)
                    for p in sorted(SRC.glob("*.py"))), [])

    for name in ("_flat", "_raise_first"):
        assert readers(name) == ["encoder.py:make_batch"], name
    assert readers("make_batch") == ["gradcheck.py:check_full_model",
                                     "train.py:Trainer.__init__", "train.py:Trainer.run_step",
                                     "train.py:evaluate"]
    assert "make_batch" not in {alias.name
                                for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                                if isinstance(node, ast.ImportFrom) for alias in node.names}
    module = ast.parse((SRC / "encoder.py").read_text(encoding="utf-8")).body

    def arguments(body, name):
        return next(node.args for node in body
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    assert ast.unparse(arguments(module, "pretrain_loss")) == "output: ForwardOutput"
    model = next(node for node in module
                 if isinstance(node, ast.ClassDef) and node.name == "EncoderModel")
    for name in ("pretrain_forward", "encode", "embed_inputs"):
        first = arguments(model.body, name).args[1]
        assert (first.arg, first.annotation and ast.unparse(first.annotation)) == (
            "batch", "Batch"), name


# Exceptions left to the CLI's exit 2 (internal error). A non-finite value or
# gradient met in training reaches the CLI as TrainingDiverged (exit 1), and a
# non-finite value met by `relpe eval` as its user error (exit 1); in a
# gradient check the guards' errors exit 2.
INTERNAL_ERRORS = {"NonDeterministicLossError", "NonFiniteGradientError", "NonFiniteValueError"}


def exception_classes(sources: dict[str, str]) -> set[str]:
    """Classes of ``sources`` that derive, through any of them, from a builtin exception."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for source in sources.values() for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef)}
    found = {name for name in vars(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    while more := {name for name, names in bases.items() if names & found} - found:
        found |= more
    return found & set(bases)


def exit_one_errors(cli_source: str) -> set[str]:
    """Names in the ``except`` clauses of ``main`` whose handler returns 1."""
    main = next(node for node in ast.parse(cli_source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    names = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and any(
                isinstance(n, ast.Return) and getattr(n.value, "value", None) == 1
                for n in ast.walk(handler)):
            names.update(n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name))
    return names


def test_checkers_find_exceptions_and_exit_one_clauses():
    sources = {"a.py": "class A(ValueError): pass\nclass B(A): pass\nclass C: pass\n",
               "b.py": "class D(Exception): pass\n"}
    assert exception_classes(sources) == {"A", "B", "D"}
    cli = ("def main():\n    try:\n        return 0\n    except (A, OSError):\n        return 1\n"
           "    except B:\n        return 2\n")
    assert exit_one_errors(cli) == {"A", "OSError"}


def test_every_named_error_has_an_exit_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    errors = exception_classes(sources)
    assert INTERNAL_ERRORS <= errors
    assert sorted(errors - exit_one_errors(sources["cli.py"]) - INTERNAL_ERRORS) == []


# Tensor members that the program need not reach: a debugging aid.
UNREACHED_OK = {"__repr__"}


def tensor_members() -> dict:
    """{name: member} for each method and property that ``Tensor`` defines."""
    from relpe.tensor import Tensor
    return {name: member for name, member in vars(Tensor).items()
            if isinstance(member, (FunctionType, property, staticmethod))}


def run_the_program(tmp_path):
    """What training and evaluation run of the engine, on a tiny model: one
    training step and one ``evaluate`` per scheme and precision with dropout,
    the attention composites the benchmark times, and a gradient check."""
    from relpe.attention import attention_output, attention_scores
    from relpe.config import RunConfig
    from relpe.encoder import EncoderConfig
    from relpe.gradcheck import check_gradients
    from relpe.optim import LrSchedule, PrecisionPolicy
    from relpe.posenc import Scheme, build_rel_table
    from relpe.synth import make_offset_copy_examples
    from relpe.tensor import Tensor
    from relpe.train import Trainer, evaluate

    rng = np.random.default_rng(0)
    examples = (make_offset_copy_examples(3, 12, 8, -2, rng)       # two lengths: padding
                + make_offset_copy_examples(3, 8, 8, 2, rng))
    for scheme in Scheme:
        for mode in ("full", "mixed_emulated"):
            model = EncoderConfig(vocab_size=16, d_model=8, num_layers=1, num_heads=2,
                                  ffn_size=16, max_seq_len=12, scheme=scheme, prpe_clip=3,
                                  hidden_dropout=0.1, attn_dropout=0.1)
            config = RunConfig(model=model, precision=PrecisionPolicy(mode=mode),
                               schedule=LrSchedule(lr_max=1e-3, warmup_steps=1, total_steps=2),
                               batch_size=4, total_steps=2, out_dir=str(tmp_path))
            trainer = Trainer(config, examples)
            trainer.run_step(1)
            evaluate(trainer.model, examples)
    n, d_z = 6, 4
    q, k, v = (Tensor(rng.normal(size=(2, n, d_z)), requires_grad=True) for _ in range(3))
    alpha = Tensor(rng.uniform(size=(2, n, n)), requires_grad=True)
    for table in (None, build_rel_table(n, d_z, Scheme.FRPE),
                  build_rel_table(n, d_z, Scheme.PRPE, clip=2)):
        (attention_scores(q, k, table).sum() + attention_output(alpha, v, table).sum()).backward()
    x = Tensor(rng.normal(size=3), requires_grad=True)
    check_gradients(lambda: (x * x).sum(), {"x": x})


def test_program_reaches_every_tensor_member(monkeypatch, tmp_path):
    # An op that only the tests call belongs in the tests' oracle_ops module.
    # Members are spied on by the function they hold, so an alias
    # (``__radd__ = __add__``) is reached with the function it names.
    from relpe.tensor import Tensor
    reached = set()

    def spy(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached.add(fn)
            return fn(*args, **kwargs)
        return wrapper

    functions = {}
    for name, member in tensor_members().items():
        if isinstance(member, property):
            functions[name] = member.fget
            member = property(spy(member.fget))
        elif isinstance(member, staticmethod):
            functions[name] = member.__func__
            member = staticmethod(spy(member.__func__))
        else:
            functions[name] = member
            member = spy(member)
        monkeypatch.setattr(Tensor, name, member)
    run_the_program(tmp_path)
    assert sorted(name for name, fn in functions.items()
                  if fn not in reached and name not in UNREACHED_OK) == []
