"""Every name a module of the package imports is used in that module, every
parameter of its functions is read, every defaulted parameter is passed by
some call in the package and left to its default by another, and every
attribute a class stores on self and every UPPER_CASE module constant is
read somewhere in the package, and every function or class named with one
leading underscore is named somewhere in the package outside its own
definition.  Every Hessian is made by grid.hessian_rows:
no other code calls hessian_components, and no code stacks the tables'
symbols.  Only grid.py, scenario.py and cli.py read an ``.N`` attribute:
everywhere else array sizes and scale factors come from the grid's shape,
which has 1 along unused complex directions, and only grid.py reads the
layout (a grid's one-point axes and its transform axes).

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


def stored_attributes(tree):
    """(class, attribute, line) of every attribute a class's code stores on self."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield cls.name, node.attr, node.lineno


def unread_attributes(trees):
    """(file, class, attribute, line) of every attribute stored on self that no
    code in the trees reads as an attribute, of any object."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for file, tree in trees.items():
        for cls, attr, line in stored_attributes(tree):
            if attr not in read:
                yield file, cls, attr, line


def test_every_stored_attribute_is_read():
    dead = [f"{cls}.{attr} ({file}, line {line})"
            for file, cls, attr, line in unread_attributes(package_trees())]
    assert not dead, f"attributes nothing in src/mkrf reads: {dead}"


def test_unread_attribute_is_caught():
    tree = ast.parse(
        "class K:\n"
        "    def __init__(self, a):\n"
        "        self.kept, self.dead = a, a\n"
        "        self.bumped = 0\n"
        "    def m(self, other):\n"
        "        self.bumped += 1\n"
        "        other.foreign = self.kept\n"
        "        return other\n"
    )
    found = {(cls, attr) for _, cls, attr, _ in unread_attributes({"m.py": tree})}
    assert found == {("K", "dead"), ("K", "bumped")}


def hessian_path_violations(trees):
    """(file, line) of every call that makes a Hessian outside
    grid.hessian_rows: a call of hessian_components in any other function,
    or a ``.stack(`` call on anything but numpy."""
    def visit(file, node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Attribute) and f.attr == "stack":
                    bad = getattr(f.value, "id", None) not in ("np", "numpy")
                else:
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    bad = (name == "hessian_components"
                           and (file, func) != ("grid.py", "hessian_rows"))
                if bad:
                    yield file, child.lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(file, child, child.name)
            else:
                yield from visit(file, child, func)

    for file, tree in trees.items():
        yield from visit(file, tree, None)


def test_only_hessian_rows_makes_a_hessian():
    found = [f"{file}, line {line}" for file, line in hessian_path_violations(package_trees())]
    assert not found, f"Hessians made outside grid.hessian_rows: {found}"


def test_hessian_path_violation_is_caught():
    grid = ast.parse(
        "def hessian_rows(hessian_components, g, c, stencil, buf):\n"
        "    for row in stencil:\n"
        "        yield hessian_components(g, c, buf, row[None])[0]\n"
        "def complex_hessian(f):\n"
        "    return hessian_components(f.grid, forward(f.values))\n"
    )
    geometry = ast.parse(
        "import numpy as np\n"
        "def metric(self):\n"
        "    rows = hessian_rows(hessian_components, g, c, tables(1, 8).stack(), buf)\n"
        "    return np.stack(list(rows)), mkrf.grid.hessian_components(g, c, buf, s)\n"
        "def hessian_rows(hessian_components, g, c, stencil, buf):\n"
        "    return hessian_components(g, c, buf, stencil)\n"
    )
    found = list(hessian_path_violations({"grid.py": grid, "geometry.py": geometry}))
    assert found == [("grid.py", 5), ("geometry.py", 3), ("geometry.py", 4), ("geometry.py", 6)]


# the modules that may read the points per axis N of a grid or a scenario
N_READERS = ("grid.py", "scenario.py", "cli.py")
# a grid's layout, its one-point axes and the transform axes they give,
# which only grid.py reads
LAYOUT = ("one_point", "axes")


def attribute_reads(trees, attrs, readers):
    """(file, line) of every read of an attribute named in attrs outside the
    files named in readers."""
    for file, tree in trees.items():
        if file not in readers:
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr in attrs
                        and isinstance(node.ctx, ast.Load)):
                    yield file, node.lineno


def test_only_grid_scenario_and_cli_read_N():
    found = [f"{file}, line {line}"
             for file, line in attribute_reads(package_trees(), ("N",), N_READERS)]
    assert not found, f".N read outside {N_READERS} (use the grid's shape): {found}"


def test_n_attribute_read_is_caught():
    flow = ast.parse(
        "def f(grid, sc):\n"
        "    grid.N = 8\n"
        "    npts = grid.N ** 4\n"
        "    return npts * sc.N + grid.n + len(grid.shape)\n"
    )
    grid = ast.parse("def size(self):\n    return self.N\n")
    found = list(attribute_reads({"flow.py": flow, "grid.py": grid}, ("N",), N_READERS))
    assert found == [("flow.py", 3), ("flow.py", 4)]


def test_only_grid_reads_the_layout():
    found = [f"{file}, line {line}"
             for file, line in attribute_reads(package_trees(), LAYOUT, ("grid.py",))]
    assert not found, f"grid layout read outside grid.py (ask grid.py's functions): {found}"


def test_layout_read_is_caught():
    elliptic = ast.parse(
        "def chain(grid, problem):\n"
        "    if grid.one_point:\n"
        "        return [problem]\n"
        "    last = problem.form.grid.axes[-1]\n"
        "    return [GridSpec(2, 8, frozenset({last})), grid.shape, grid.half()]\n"
    )
    grid = ast.parse("def axes(self):\n    return [a for a in range(4) if a not in self.one_point]\n")
    found = list(attribute_reads({"elliptic.py": elliptic, "grid.py": grid}, LAYOUT,
                                 ("grid.py",)))
    assert found == [("elliptic.py", 2), ("elliptic.py", 4)]


def module_constants(tree):
    """(name, line) of every UPPER_CASE name a module assigns at its top level."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            for name in ast.walk(target) if target is not None else ():
                if isinstance(name, ast.Name) and name.id.isupper():
                    yield name.id, node.lineno


def unread_constants(trees):
    """(file, name, line) of every module constant that no code in the trees
    reads, by name or as an attribute of its module."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    for file, tree in trees.items():
        for name, line in module_constants(tree):
            if name not in read:
                yield file, name, line


def test_every_module_constant_is_read():
    dead = [f"{name} ({file}, line {line})"
            for file, name, line in unread_constants(package_trees())]
    assert not dead, f"module constants nothing in src/mkrf reads: {dead}"


def test_unread_constant_is_caught():
    flow = ast.parse(
        "import monitors\n"
        "SNAP_DT = 0.1\n"
        "UHAT_SNAP_DT = 0.5\n"
        "WIDTH, HEIGHT = 640, 400\n"
        "LIMIT: int = 3\n"
        "_PRIVATE_DEAD = 1\n"
        "lower = 2\n"
        "def f(t):\n"
        "    return t / SNAP_DT + monitors.S_LIST[0] + WIDTH\n"
    )
    monitors = ast.parse("S_LIST = (1, 3)\nTOL = 1e-8\n")
    found = sorted((file, name) for file, name, _ in
                   unread_constants({"flow.py": flow, "monitors.py": monitors}))
    assert found == [("flow.py", "HEIGHT"), ("flow.py", "LIMIT"), ("flow.py", "UHAT_SNAP_DT"),
                     ("flow.py", "_PRIVATE_DEAD"), ("monitors.py", "TOL")]


def unreferenced_private_definitions(trees):
    """(file, name, line) of every function or class named with one leading
    underscore that no code in the trees names, by name or as an attribute,
    outside its own definition."""
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = {id(n) for n in ast.walk(node)}
                if not any(name == node.name and id(ref) not in own for name, ref in refs):
                    yield file, node.name, node.lineno


def test_every_private_definition_is_referenced():
    dead = [f"{name} ({file}, line {line})"
            for file, name, line in unreferenced_private_definitions(package_trees())]
    assert not dead, f"private functions and classes nothing in src/mkrf names: {dead}"


def test_unreferenced_private_definition_is_caught():
    flow = ast.parse(
        "class _Workspace:\n"
        "    def _used(self):\n"
        "        return 1\n"
        "    def _recursive(self):\n"
        "        return self._recursive()\n"
        "class _Dead:\n"
        "    pass\n"
        "def _helper():\n"
        "    return _Workspace()._used()\n"
        "def _attempt_step():\n"
        "    return _attempt_step()\n"
        "def __getattr__(name):\n"
        "    return name\n"
        "def public():\n"
        "    return 0\n"
    )
    cli = ast.parse("from .flow import _helper\n_helper()\n")
    found = sorted((file, name) for file, name, _ in
                   unreferenced_private_definitions({"flow.py": flow, "cli.py": cli}))
    assert found == [("flow.py", "_Dead"), ("flow.py", "_attempt_step"),
                     ("flow.py", "_recursive")]


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
