"""Every name a module of the package imports is used in that module, every
parameter of its functions is read, and every defaulted parameter is passed
by some call in the package and left to its default by another.

No linter ships with the project; these are the lint checks it keeps.
``__init__.py`` is left out of the import check: its imports are the
package's public names.  The last checks keep scipy's sparse solvers out of
the processes that never run a Newton solve, and scipy.fft's package (with
scipy.special) out of every process: mkrf.grid loads only its kernel.
"""

import ast
import math
import os
import subprocess
import sys
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


def call_index(trees):
    """Call name -> [(passed positions, keywords, unpacks)] of every call in
    the trees; trees maps file names to parsed modules.

    The passed positions are those before the first ``*args`` argument;
    ``unpacks`` is true when the call has a ``*args`` or ``**kwargs``
    argument, which may pass any parameter.
    """
    calls = {}
    for call in (n for tree in trees.values() for n in ast.walk(tree)
                 if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
        unpacks = bool(starred) or len(keywords) < len(call.keywords)
        n_pos = starred[0] if starred else len(call.args)
        calls.setdefault(name, []).append((n_pos, keywords, unpacks))
    return calls


def defaulted_parameters(trees, exempt):
    """(file, function, position, parameter, line) of every defaulted
    parameter, its position counted as its calls pass it (math.inf for a
    keyword-only one).

    Calls are matched to definitions by name, and a ``Class(...)`` call is
    a call of the class's ``__init__``.  ``exempt`` names functions whose
    defaults are left alone.
    """
    for file, tree in trees.items():
        for name, node in definitions(tree):
            if name in exempt:
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args]
            # a method's calls do not pass self or cls by position
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            first_default = len(params) - len(args.defaults)
            for i, p in enumerate(params):
                if i >= first_default:
                    yield file, name, i - bound, p.arg, node.lineno
            for p, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield file, name, math.inf, p.arg, node.lineno


def unpassed_defaults(trees, exempt=()):
    """(file, function, parameter, line) of every defaulted parameter that no
    call in the trees passes, by keyword or by position (see
    defaulted_parameters); a call that unpacks arguments may pass it."""
    calls = call_index(trees)
    for file, name, i, arg, line in defaulted_parameters(trees, exempt):
        if not any(unpacks or i < n_pos or arg in kws
                   for n_pos, kws, unpacks in calls.get(name, ())):
            yield file, name, arg, line


def always_passed_defaults(trees, exempt=()):
    """(file, function, parameter, line) of every defaulted parameter that
    every call in the trees passes, so its default is never taken; functions
    without a call in the trees are left out.  A call that unpacks
    arguments may leave the parameter to its default."""
    calls = call_index(trees)
    for file, name, i, arg, line in defaulted_parameters(trees, exempt):
        found = calls.get(name, ())
        if found and all(not unpacks and (i < n_pos or arg in kws)
                         for n_pos, kws, unpacks in found):
            yield file, name, arg, line


def package_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_every_default_is_overridden_somewhere():
    # main(argv) is the console entry point; tests pass argv
    knobs = [f"{fn}({arg}) ({file}, line {line})"
             for file, fn, arg, line in unpassed_defaults(package_trees(), exempt=("main",))]
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


def test_every_default_is_taken_somewhere():
    unused = [f"{fn}({arg}) ({file}, line {line})"
              for file, fn, arg, line in always_passed_defaults(package_trees())]
    assert not unused, f"defaults no call in src/mkrf takes: {unused}"


def test_always_passed_default_is_caught():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return a, b, c, d\n"
        "def g(x=0):\n"
        "    return x\n"
        "def h(y=0):\n"
        "    return y\n"
        "class K:\n"
        "    def __init__(self, z=None):\n"
        "        self.z = z\n"
        "f(1, 2, d=4)\n"
        "f(1, b=3, d=5)\n"
        "K(z=1)\n"
        "h(*[1])\n"
    )
    found = always_passed_defaults({"m.py": tree})
    assert sorted((fn, arg) for _, fn, arg, _ in found) == [("K", "z"), ("f", "b"), ("f", "d")]


# packages a run without Newton solves must not load; mkrf.grid loads scipy.fft's
# compiled kernel module alone, not the package (whose __init__ imports scipy.special)
HEAVY = ("scipy.sparse", "scipy.fft", "scipy.special")
KERNEL = "scipy.fft._pocketfft.pypocketfft"


def test_cli_and_a_finite_time_run_leave_scipy_sparse_unloaded(tmp_path):
    # only a Krylov solve imports scipy.sparse.linalg; a finite-time run has none
    code = (
        "import sys\n"
        "import mkrf.cli\n"
        f"heavy, kernel = {HEAVY!r}, {KERNEL!r}\n"
        "def loaded():\n"
        "    return [m for m in heavy if m in sys.modules], kernel in sys.modules\n"
        "after_import = loaded()\n"
        "rc = mkrf.cli.main(['run', '--preset', 'finite-time', '--out', sys.argv[1]])\n"
        "after_run = loaded()\n"
        "ours = sys.modules[kernel]\n"
        "import scipy.fft\n"
        "from scipy.fft._pocketfft import pypocketfft\n"
        "works = scipy.fft.irfftn(scipy.fft.rfftn([[1.0, 2.0], [3.0, 4.0]]), s=(2, 2))\n"
        "shared = pypocketfft is ours and sys.modules[kernel] is ours\n"
        "print(repr((rc, after_import, after_run, shared, works.tolist())))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rc, after_import, after_run, shared, works = ast.literal_eval(out.stdout.splitlines()[-1])
    assert rc == 0
    assert after_import == ([], True)
    assert after_run == ([], True)
    # a later import of scipy.fft reuses the kernel module mkrf loaded
    assert shared and works == [[1.0, 2.0], [3.0, 4.0]]


def scipy_fft_imports(tree):
    """Line of every import statement that loads scipy.fft or a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.fft" or name.startswith("scipy.fft.") for name in names):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_does_not_import_scipy_fft(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(scipy_fft_imports(tree))
    assert not lines, f"{path.name} imports scipy.fft (lines {lines}); use the grid kernel"


def test_scipy_fft_import_is_caught():
    tree = ast.parse(
        "import scipy.fft as sfft\n"
        "from scipy import fft\n"
        "from scipy.fft import rfftn\n"
        "import scipy.sparse.linalg\n"
        "from scipy import sparse\n"
    )
    assert list(scipy_fft_imports(tree)) == [1, 2, 3]
