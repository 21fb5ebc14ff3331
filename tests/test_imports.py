"""Every name a module of the package imports is used in that module, every
parameter of its functions is read, and every defaulted parameter is passed
by some call in the package.

No linter ships with the project; these are the lint checks it keeps.
``__init__.py`` is left out of the import check: its imports are the
package's public names.
"""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mkrf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name, line) of every binding an import statement makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every name the module reads, names inside string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom os import path, sep\nx: 'path' = sep\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["math"]


def unread_parameters(tree):
    """(function, parameter, line) of every parameter, self and cls aside,
    that its function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in ("self", "cls") and p.arg not in read:
                yield getattr(node, "name", "<lambda>"), p.arg, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_every_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = [f"{fn}({arg}) (line {line})" for fn, arg, line in unread_parameters(tree)]
    assert not unread, f"{path.name} has parameters it never reads: {unread}"


def test_unread_parameter_is_caught():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, a, b=1, *rest, c, **kw):\n"
        "        a = b\n"
        "        def inner():\n"
        "            return rest, c\n"
        "        return inner\n"
        "f = lambda x, y: x\n"
    )
    assert [(fn, arg) for fn, arg, _ in unread_parameters(tree)] == [
        ("m", "a"), ("m", "kw"), ("<lambda>", "y")]


def definitions(tree):
    """(call name, node) of every function and method; a class's
    ``__init__`` goes by the class name, the name its calls use."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (cls if cls and child.name == "__init__" else child.name), child
                yield from visit(child, None)
            else:
                yield from visit(child, child.name if isinstance(child, ast.ClassDef) else cls)
    return visit(tree, None)


def unpassed_defaults(trees, exempt=()):
    """(file, function, parameter, line) of every defaulted parameter that no
    call in the trees passes, by keyword or by position; trees maps file
    names to parsed modules.

    Calls are matched to definitions by name, and a ``Class(...)`` call is a
    call of the class's ``__init__``.  A ``*args`` or ``**kwargs`` argument
    passes every position or keyword.  ``exempt`` names functions whose
    defaults are left alone.
    """
    positions, keywords = {}, {}
    for call in (n for tree in trees.values() for n in ast.walk(tree)
                 if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        n_pos = len(call.args)
        if any(isinstance(a, ast.Starred) for a in call.args):
            n_pos = math.inf
        positions[name] = max(positions.get(name, 0), n_pos)
        keywords.setdefault(name, set()).update(kw.arg for kw in call.keywords)
    for file, tree in trees.items():
        for name, node in definitions(tree):
            if name in exempt:
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args]
            # a method's calls do not pass self or cls by position
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            first_default = len(params) - len(args.defaults)
            defaulted = [(i - bound, p) for i, p in enumerate(params) if i >= first_default]
            defaulted += [(math.inf, p) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            kws = keywords.get(name, set())
            for i, p in defaulted:
                # a keyword of None is a ** argument
                if positions.get(name, 0) <= i and not kws & {p.arg, None}:
                    yield file, name, p.arg, node.lineno


def test_every_default_is_overridden_somewhere():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    # main(argv) is the console entry point; tests pass argv
    knobs = [f"{fn}({arg}) ({file}, line {line})"
             for file, fn, arg, line in unpassed_defaults(trees, exempt=("main",))]
    assert not knobs, f"defaulted parameters no call in src/mkrf passes: {knobs}"


def test_unpassed_default_is_caught():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a, b, c, d, e\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n"
        "        self.v = f(x, 5, d=y)\n"
        "    def m(self, z=None):\n"
        "        return z\n"
        "def main(argv=None):\n"
        "    return K(1).m()\n"
    )
    found = unpassed_defaults({"m.py": tree}, exempt=("main",))
    assert sorted((fn, arg) for _, fn, arg, _ in found) == [
        ("K", "y"), ("f", "c"), ("f", "e"), ("m", "z")]
