"""Names that code outside the package reaches by attribute lookup, and
names that nothing reads.

The benchmark's tracer (`perfbench/tracer.py`) replaces charqa functions by
name with `getattr`/`setattr`, so a renamed or removed function breaks every
traced run; the public `__all__` lists promise names to importers. An
imported name that its module never reads is dead code.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import charqa

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_hooks_restore_and_exports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        originals = {}
        for owner, attr, orig in tracer.patches:
            originals.setdefault((owner, attr), orig)
            assert getattr(owner, attr) is not orig, attr
        assert originals
    finally:
        tracer.uninstall()
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig, attr

    missing = [name for name in charqa.__all__ if not hasattr(charqa, name)]
    for info in pkgutil.iter_modules(charqa.__path__):
        module = importlib.import_module(f"charqa.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_traced_unit_runs_every_hook(monkeypatch, tmp_path):
    # One tiny traced train_ref unit: every wrapper, and every counter hook
    # reading the arguments of the call it wraps, runs on the training and
    # evaluation path and the unit's outputs still pass their checks.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restored afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    result, code = run.run("train_ref", 3, 1, True, clips=6)
    assert code == 0 and result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("carn.prepare_sequence.calls", "carn.name_assignments.calls",
                 "naming.forward.calls", "naming.backward.calls", "naming.rkl.calls",
                 "carn.embed_backward.self_s", "naming.broadcast_targets.self_s",
                 "carn.tokens.qa_mean", "carn.tokens.subtitle_mean", "carn.tokens.visual_mean",
                 "carn.stream_encode_unique_ratio"):
        assert metrics[name] > 0, name


def unused_imports(source: str, is_init: bool = False) -> list[str]:
    """The names a module imports but never reads, as "line: name". Names
    listed in a literal __all__ are exempt, and so is every import of an
    __init__.py, whose imports are the package's re-exports."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and not is_init:
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not is_init):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
        # A quoted annotation reads the names inside its quotes.
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "1: os", "2: b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from a import b\n", is_init=True) == []
    assert unused_imports("from a import b\ndef f() -> 'b': pass\n") == []
    assert unused_imports("from a import b\nb = 1\n") == ["1: b"]


def test_every_import_is_read():
    dead = {}
    for folder in ("src/charqa", "tests", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            found = unused_imports(path.read_text(encoding="utf-8"),
                                   is_init=path.name == "__init__.py")
            if found:
                dead[str(path.relative_to(ROOT))] = found
    assert not dead, dead


def unread_parameters(source: str) -> list[str]:
    """The parameters that a module's functions and lambdas never read in
    their bodies, as "function(parameter)". A read in a nested function
    counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{getattr(node, 'name', '<lambda>')}({p})" for p in params if p not in read]
    return found


def test_unread_parameters_are_caught():
    source = ("def f(a, b, *c, d=1, **e):\n    def g(x):\n        return a\n    return g\n"
              "h = lambda y, z: z\n")
    assert sorted(unread_parameters(source)) == [
        "<lambda>(y)", "f(b)", "f(c)", "f(d)", "f(e)", "g(x)"]
    assert unread_parameters("class A:\n    def m(self, v):\n        return self.v\n") == [
        "m(v)"]


# perfbench/tracer.py reads prepare_sequence's tokens and flags as positional
# arguments 2 and 3, so its first parameter stays though nothing reads it.
UNREAD_PARAMETERS_ALLOWED = {"carn.py": ["prepare_sequence(params)"]}


def test_every_parameter_is_read():
    unread = {}
    for path in sorted((ROOT / "src/charqa").glob("*.py")):
        found = unread_parameters(path.read_text(encoding="utf-8"))
        if found != UNREAD_PARAMETERS_ALLOWED.get(path.name, []):
            unread[path.name] = found
    assert not unread, unread


def names_read(source: str) -> set[str]:
    """The names a module reads: loaded names, attributes, and string
    constants (the tracer's getattr targets, quoted annotations), but not
    the strings of its own __all__ list."""
    tree = ast.parse(source)
    listed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed.update(id(n) for n in ast.walk(node.value))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            read.add(node.value)
    return read


def test_names_read_skips_own_exports():
    source = "import m\n__all__ = ['f', 'g']\ndef f(): pass\nm.h('k', g)\nx = 1\n"
    assert names_read(source) == {"m", "h", "k", "g"}


def test_every_export_is_read_outside_the_tests():
    # A name that only tests read belongs in the tests, not in the package.
    read = set()
    for folder in ("src/charqa", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            read |= names_read(path.read_text(encoding="utf-8"))
    unread = [f"{info.name}.{name}" for info in pkgutil.iter_modules(charqa.__path__)
              for name in getattr(importlib.import_module(f"charqa.{info.name}"), "__all__", ())
              if name not in read]
    unread += [name for name in charqa.__all__ if name not in read]
    assert not unread, unread


# A module may import only the modules before it; semantics builds the visual
# stream from a variant without importing carn, which defines the variants.
MODULE_ORDER = ("errors", "corpus", "castlist", "nn", "naming", "semantics", "carn", "harness",
                "cli")


def later_imports(module: str, source: str) -> list[str]:
    """The charqa modules that `module` imports and that come after it in
    MODULE_ORDER, as "line: name"; relative and absolute imports count,
    wherever they sit in the source."""
    rank = MODULE_ORDER.index(module)
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = []
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "charqa":
                targets = [a.name for a in node.names]
            elif node.module.startswith("charqa."):
                targets = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("charqa.")]
        found += [f"{node.lineno}: {t}" for t in targets
                  if t in MODULE_ORDER and MODULE_ORDER.index(t) > rank]
    return found


def test_later_imports_are_caught():
    source = ("from . import nn, carn\nfrom .cli import main\nimport charqa.harness\n"
              "from charqa import errors\ndef f():\n    from charqa.carn import Model\n")
    assert later_imports("semantics", source) == ["1: carn", "2: cli", "3: harness", "6: carn"]
    assert later_imports("cli", source) == []


def test_modules_import_only_earlier_modules():
    found = {path.name: later_imports(path.stem, path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/charqa").glob("*.py")) if path.stem != "__init__"}
    assert sorted(found) == sorted(f"{m}.py" for m in MODULE_ORDER)
    assert not any(found.values()), found


def bool_type_tests(source: str) -> list[int]:
    """The lines that call isinstance(..., bool), with bool alone or in a
    tuple of types: the hand-rolled test that keeps booleans out of JSON
    integers. corpus.typed is the one JSON type check."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            found += [node.lineno for k in kinds if isinstance(k, ast.Name) and k.id == "bool"]
    return sorted(found)


def test_bool_type_tests_are_caught():
    source = ("isinstance(v, bool)\nok = isinstance(v, (int, bool))\nisinstance(v, int)\n"
              "type(v) is bool\nisinstance(v, bool_like)\n")
    assert bool_type_tests(source) == [1, 2]


def test_one_json_type_check():
    found = {path.name: bool_type_tests(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/charqa").glob("*.py"))}
    assert not any(found.values()), found


def parameter_key_stores(source: str) -> list[str]:
    """The stores into a parameter dict (`params` or `p`) by string key, a
    key built from a string constant or an f-string, as "function: line",
    outside carn.draw_params: the way a tensor is drawn. carn.param_table is
    the one place that gives a tensor its shape and initial value, and
    draw_params the one place that draws it."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                    and func != "draw_params"):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found.extend(
                    f"{func}: {child.lineno}" for t in targets for sub in ast.walk(t)
                    if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id in ("params", "p")
                    and any(isinstance(n, ast.JoinedStr)
                            or (isinstance(n, ast.Constant) and isinstance(n.value, str))
                            for n in ast.walk(sub.slice)))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), "<module>")
    return found


def test_parameter_key_stores_are_caught():
    source = ("def init(rng, params, prefix):\n"
              "    params[prefix + '.w'] = rng.standard_normal(3)\n"
              "    params[f'{prefix}.b'], x = 0, 1\n"
              "def draw_params(rng, table):\n"
              "    p = {}\n"
              "    p['x'] = 1\n"
              "def step(params, grads):\n"
              "    for k in grads:\n"
              "        params[k] -= grads[k]\n"
              "        grads['w'] = 0\n"
              "p['embed.word'] = 0\n")
    assert parameter_key_stores(source) == ["init: 2", "init: 3", "<module>: 11"]


def test_one_draw():
    found = {path.name: parameter_key_stores(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/charqa").glob("*.py"))}
    assert not any(found.values()), found


# The forward ops of nn.py besides its `*_forward` functions: the ones they
# are built from that run a gemm or a softmax.
FORWARD_OPS = ("softmax", "attention_weights", "_project", "ffn_activation")


def backward_forward_calls(source: str) -> list[str]:
    """The forward ops that a module's `*_backward` functions call, directly
    or through its other module-level functions, as "backward: op". A
    forward op is a function named `*_forward` or one in FORWARD_OPS: a
    backward reads what its forward computed from the cache instead."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}

    def callees(name):
        return {n.func.id for n in ast.walk(funcs[name])
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    found = set()
    for backward in (name for name in funcs if name.endswith("_backward")):
        seen, todo = {backward}, [backward]
        while todo:
            for callee in callees(todo.pop()):
                if callee.endswith("_forward") or callee in FORWARD_OPS:
                    found.add(f"{backward}: {callee}")
                elif callee in funcs and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
    return sorted(found)


def test_forward_calls_in_backward_are_caught():
    source = ("def softmax(x):\n    return x\n"
              "def helper(x):\n    return softmax(x)\n"
              "def a_forward(x):\n    return x\n"
              "def a_backward(x):\n    return helper(x)\n"
              "def b_backward(x):\n    return a_forward(x) + a_backward(x)\n"
              "def c_backward(x):\n    return abs(x) + helper_forward\n")
    assert backward_forward_calls(source) == [
        "a_backward: softmax", "b_backward: a_forward", "b_backward: softmax"]


def test_backward_runs_no_forward_op():
    found = backward_forward_calls((ROOT / "src/charqa/nn.py").read_text(encoding="utf-8"))
    assert not found, found
