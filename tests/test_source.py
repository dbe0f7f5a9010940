"""Checks over the package source itself, read with the stdlib ast module."""

import ast
import pathlib

import pytest

from textforge import graph

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "textforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list:
    """Module-level private functions, classes and constants (_x, not __x__)
    that the module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_unread_private_names_are_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nx = _A\n"
              "def _f():\n    return _g()\ndef _g():\n    pass\nclass _C:\n    pass\n")
    assert unread_private_names(source) == ["_B", "_C", "_f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def repeated_dict_keys(source: str) -> list:
    """Keys, constants or names, that a dict literal gives twice: the later
    entry silently replaces the earlier one."""
    repeated = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys = [ast.unparse(k) for k in node.keys if isinstance(k, (ast.Constant, ast.Name))]
            repeated.update(k for k in keys if keys.count(k) > 1)
    return sorted(repeated)


def test_repeated_dict_keys_are_found():
    source = ("A = {'x': 1, 'y': {'z': 1, 'z': 2}, 'x': 3}\n"
              "B = {K: 1, **A, 'w': {K: 2}, K: 3, 1: 0, 2: 0}\n")
    assert repeated_dict_keys(source) == ["'x'", "'z'", "K"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dict_literal_repeats_a_key(path):
    assert repeated_dict_keys(path.read_text(encoding="utf-8")) == []


def writing_opens(source: str) -> list:
    """Lines of open() calls whose mode may write, append or create a file,
    or is not a constant that can be read."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes):
            lines.append(node.lineno)
    return lines


def test_writing_opens_are_found():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w', encoding='utf-8')\n"
              "open(p, mode='ab')\nio.open(p, 'x')\nopen(p, 'r+b')\nopen(p, mode)\n"
              "os.open(p, os.O_RDONLY)\n")
    assert writing_opens(source) == [3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "binio.py"],
                         ids=lambda p: p.name)
def test_only_binio_opens_a_file_to_write(path):
    # binio.write_file replaces a file all at once; an open for writing
    # truncates the old file first, and a failed write loses it
    assert writing_opens(path.read_text(encoding="utf-8")) == []


def recording_switches(source: str, allowed: str = "") -> list:
    """Lines that switch a module's `recording` flag: an assignment to a
    `recording` attribute (ops.recording = ..., setattr(ops, "recording",
    ...)), a `global recording` outside the function named allowed, or a
    module-level rebinding of `recording` after its first assignment."""
    lines, bound = [], []

    def visit(node, func):
        if isinstance(node, ast.Global) and "recording" in node.names and func != allowed:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "recording"
              and isinstance(node.ctx, ast.Store)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "recording"):
            lines.append(node.lineno)
        elif (func is None and isinstance(node, ast.Name) and node.id == "recording"
              and isinstance(node.ctx, ast.Store)):
            bound.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    visit(ast.parse(source), None)
    return sorted(lines + bound[1:])


def test_recording_switches_are_found():
    source = ("recording = True\n"
              "def inference():\n    global recording\n    recording = False\n"
              "def other():\n    global recording\n    recording = True\n"
              "def local():\n    recording = False\n"
              "ops.recording = False\nops.recording += 1\nsetattr(ops, 'recording', 0)\n"
              "x = ops.recording\nrecording = False\n")
    assert recording_switches(source, "inference") == [6, 10, 11, 12, 14]
    assert recording_switches(source) == [3, 6, 10, 11, 12, 14]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_ops_inference_switches_recording(path):
    # a training forward with recording off would train only the layers
    # above its first kernel op; ops.inference restores the flag on exit
    allowed = "inference" if path.name == "ops.py" else ""
    assert recording_switches(path.read_text(encoding="utf-8"), allowed) == []


FEED_NAMES = ("tokens", "gaz_labels", "cap_labels")


def feed_name_literals(source: str) -> list:
    """Lines of string constants that spell a raw text feed's name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in FEED_NAMES)


def test_feed_name_literals_are_found():
    source = ("x = 'tokens'\ny = {'gaz_labels': tokens}\nz = 'the tokens'\n"
              "f(cap_labels, b'tokens')\nw = ('a', 'cap_labels')\n")
    assert feed_name_literals(source) == [1, 2, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graph.py"],
                         ids=lambda p: p.name)
def test_only_graph_spells_the_feed_names(path):
    # graph._FEEDS states the feeds every graph reads; a second spelling
    # elsewhere can drift from it
    assert set(FEED_NAMES) == set(graph._FEEDS)
    assert feed_name_literals(path.read_text(encoding="utf-8")) == []


def leading_params(source: str, name: str, n: int) -> list:
    """The first n positional parameter names of the module-level function name."""
    (func,) = [node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return [arg.arg for arg in (func.args.posonlyargs + func.args.args)[:n]]


@pytest.mark.parametrize("kernel,params", [("conv_maxpool", ["x", "filters"]),
                                           ("lstm_seq", ["x", "w_ih", "w_hh"])])
def test_the_kernel_arguments_perfbench_reads_stay_in_place(kernel, params):
    # perfbench/spans.py's _conv_flops and _lstm_flops count each call's
    # flops from its positional args[0..2]: x and filters, x and w_hh. A
    # refactor that moved them would silently miscount the flops, and the
    # traced perfbench smoke run would still pass
    source = (SRC / "kernels.py").read_text(encoding="utf-8")
    assert leading_params(source, kernel, len(params)) == params
