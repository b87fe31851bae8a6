"""The package runs on the standard library alone, and imports little of it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chcprecond
from chcprecond.linarith import Run

SRC = str(Path(chcprecond.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]


def _fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports from the checkout."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_import_loads_only_standard_library_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chcprecond\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'chcprecond'})))\n"
    )
    assert _fresh_output(code).split() == []


def test_import_does_not_load_logging():
    # warnings belong to the run that hit them, not to a process-wide logger
    code = "import sys, chcprecond\nprint('logging' in sys.modules)\n"
    assert _fresh_output(code).strip() == "False"


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and slotted classes: decorating them as
    # dataclasses took about half of a cold start, `inspect` included
    code = (
        "import sys, chcprecond\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    assert _fresh_output(code).split() == []


def test_import_loads_neither_fractions_nor_decimal_nor_numbers():
    # the simplex tableau is all-integer, so nothing needs `fractions`, or
    # the `decimal` and `numbers` it imports
    code = (
        "import sys, chcprecond\n"
        "print(' '.join(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n"
    )
    assert _fresh_output(code).split() == []


def _unused_imports(path: Path) -> list[str]:
    """Names `path` imports and never reads; a name in `__all__` is read."""
    tree = ast.parse(path.read_text(), str(path))
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    files = [f for d in ("src", "tests", "demos") for f in sorted((ROOT / d).rglob("*.py"))]
    assert files
    assert [u for f in files for u in _unused_imports(f)] == []


def _unused_definitions(package: Path) -> list[str]:
    """Module-level functions and classes of `package` that nothing reads.

    A definition is read when its own module loads the name, another module
    of the package imports it with `from .module import`, or an `__all__`
    lists it.
    """
    trees = {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(package.glob("*.py"))}
    read: set[tuple[str, str]] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update((module, name) for name in ast.literal_eval(node.value))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (module, node.name) not in read
    ]


def test_no_unused_definitions():
    # a public name only the tests call belongs in `tests/helpers.py`
    assert _unused_definitions(Path(chcprecond.__file__).parent) == []


# functions whose options callers outside the package pass, besides the names
# an `__all__` lists, which are the public API
_CALLED_FROM_OUTSIDE = {
    "cli.main",  # the console script calls it bare; tests pass `argv`
}


def _unpassed_options(package: Path) -> list[str]:
    """Optional parameters of the package's functions that no call in it passes.

    A call is matched to a function by name, `f(...)` or `x.f(...)`, and to
    `__init__` or `__new__` by its class's name.  It passes a parameter by
    keyword, by position (after a method's `self` or `cls`), or possibly
    through `*args` or `**kwargs`.
    """
    trees = {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(package.glob("*.py"))}
    public: set[str] = set()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                public.update(ast.literal_eval(node.value))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    # (qualified name, name calls use, definition, leading parameters calls skip)
    defs = []
    for module, tree in trees.items():
        methods = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef):
                    methods.add(f)
                    called_as = cls.name if f.name in ("__init__", "__new__") else f.name
                    defs.append((f"{module}.{cls.name}.{f.name}", called_as, f, 1))
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef) and f not in methods:
                defs.append((f"{module}.{f.name}", f.name, f, 0))
    out = []
    for qualname, called_as, f, skip in defs:
        if called_as in public or qualname in _CALLED_FROM_OUTSIDE:
            continue
        positional = [a.arg for a in (*f.args.posonlyargs, *f.args.args)]
        optional = positional[len(positional) - len(f.args.defaults) :]
        optional += [a.arg for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
        for name in optional:
            at = positional.index(name) - skip if name in positional else None
            if not any(
                any(kw.arg in (name, None) for kw in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (at is not None and len(call.args) > at)
                for call in calls.get(called_as, ())
            ):
                out.append(f"{qualname}.{name}")
    return out


def test_every_optional_parameter_is_passed_somewhere():
    # an option no call in the package passes is dead code or a test hook
    assert _unpassed_options(Path(chcprecond.__file__).parent) == []


# what a module other than `linarith` may import from `simplex`: every
# tableau is built in `simplex` and asked through `linarith`
_SIMPLEX_ELSEWHERE = {"Budget", "Undecided"}


def _simplex_imports(package: Path) -> list[str]:
    """Names modules of `package` other than `linarith` import from `simplex` beyond those.

    `from .simplex import a` takes `a`; `from . import simplex` and
    `import chcprecond.simplex` take the whole module.
    """
    out = []
    for f in sorted(package.glob("*.py")):
        if f.stem in ("linarith", "simplex"):
            continue
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("simplex"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names if alias.name == "simplex"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.endswith(".simplex")]
            else:
                continue
            out += [f"{f.name}: {name}" for name in names if name not in _SIMPLEX_ELSEWHERE]
    return out


def test_only_linarith_builds_tableaux(tmp_path):
    assert _simplex_imports(Path(chcprecond.__file__).parent) == []
    (tmp_path / "a.py").write_text("from .simplex import Budget, _solver_for\n")
    (tmp_path / "b.py").write_text("from . import simplex\nimport chcprecond.simplex\n")
    assert _simplex_imports(tmp_path) == [
        "a.py: _solver_for", "b.py: simplex", "b.py: chcprecond.simplex"
    ]


def _unread_run_slots(package: Path, slots: tuple[str, ...]) -> list[str]:
    """The `slots` of `Run` that no code in `package` reads outside `Run.__init__`.

    A read is an attribute load, `x.name`: `run.models[c] = point` reads
    `models`, and `self.models = {}` does not.
    """
    read: set[str] = set()
    for f in sorted(package.glob("*.py")):
        tree = ast.parse(f.read_text(), str(f))
        init = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Run"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in init:
                read.add(node.attr)
    return [name for name in slots if name not in read]


def test_every_run_map_is_read(tmp_path):
    # a kernel map the run fills and nothing reads only costs time and memory
    package = Path(chcprecond.__file__).parent
    assert _unread_run_slots(package, Run.__slots__) == []
    (tmp_path / "a.py").write_text(
        "class Run:\n"
        "    __slots__ = ('used', 'idle')\n"
        "    def __init__(self):\n"
        "        self.used, self.idle = {}, {}\n"
        "        self.idle.clear()\n"
        "def f(run):\n"
        "    run.idle = {}\n"
        "    return run.used.get(1)\n"
    )
    assert _unread_run_slots(tmp_path, ("used", "idle")) == ["idle"]
