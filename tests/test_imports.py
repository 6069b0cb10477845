"""No module in src/forewarn imports a name it never uses, or imports inside a function.

No linter is installed, so these stdlib-ast scans are the gate. A name counts
as used when it is read anywhere in the module or listed in its __all__. An
import inside a function hides a dependency (often a cycle) from the module's
header, so every import sits at module level. Each module's __all__ lists
every public top-level function and class, and only names the module binds.
No module reads a `_private` attribute that it does not define itself.
Only training.fit and core.as_batch take WindowSample handles: every other
window parameter is one WindowBatch.
Every function, class and method is named somewhere in the package or the
benchmark, or is on a short list that gives the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "forewarn"

def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import io\nimport json\nfrom x import a, b as c\n__all__ = ['a']\njson.dumps(1)\n"
    assert unused_imports(source) == ["c", "io"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.name} imports {unused} without using them"


def imports_in_functions(source: str) -> list[int]:
    """Line numbers of the imports inside a function body."""
    return sorted({
        node.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_the_scan_finds_an_import_in_a_function():
    source = "import io\ndef f():\n    def g():\n        from x import y\n    import json\n"
    assert imports_in_functions(source) == [4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_imports_inside_functions(path):
    lines = imports_in_functions(path.read_text())
    assert lines == [], f"{path.name} imports inside a function at lines {lines}"


def public_names(source: str) -> tuple[set[str], set[str], set[str]]:
    """(public top-level functions and classes, names bound at top level, __all__)."""
    tree = ast.parse(source)
    public, bound, listed = set(), set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                listed.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return public, bound, listed


def test_the_scan_finds_unlisted_and_undefined_names():
    source = "__all__ = ['f', 'G', 'gone']\ndef f(): pass\nclass G: pass\ndef h(): pass\n"
    public, bound, listed = public_names(source)
    assert public - listed == {"h"} and listed - bound == {"gone"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_all_lists_every_public_definition_and_only_bound_names(path):
    public, bound, listed = public_names(path.read_text())
    assert public - listed == set(), f"{path.name} leaves {public - listed} out of __all__"
    assert listed - bound == set(), f"{path.name} lists undefined {listed - bound} in __all__"


def foreign_private_reads(source: str) -> list[str]:
    """`_private` attributes the module reads but defines nowhere itself.

    A module defines an attribute by assigning it or by a def or class of that
    name; reading another module's private name couples to its internals.
    """
    defined, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif not node.attr.startswith("__"):
                read.add(node.attr)
    return sorted(read - defined)


def test_the_scan_finds_a_private_attribute_defined_elsewhere():
    source = (
        "class A:\n    _n: int = 0\n    def _f(self):\n        self._x = 1\n"
        "        return self._x, self._f(), self._n, other._y, mod._z.__doc__\n"
    )
    assert foreign_private_reads(source) == ["_y", "_z"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_a_private_attribute_it_does_not_define(path):
    foreign = foreign_private_reads(path.read_text())
    assert foreign == [], f"{path.name} reads private attributes {foreign} defined elsewhere"


# definitions that no package or benchmark code names yet, and why each stays
UNREACHED = {
    "make_windows": "one episode's windows, the unit the windowing oracle test compares",
    "replay": "the monitor's decisions collected, the base of batched replay (ROADMAP item 1)",
    "compare_samples": "the paper's family comparison, to be wired into sweep (ROADMAP item 6)",
}


def defined_names(source: str) -> set[str]:
    """Every function, class and method the module defines, dunder methods aside."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def named(source: str) -> set[str]:
    """Every identifier the module names, bare (ast.Name) or after a dot (ast.Attribute)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_the_scan_finds_a_definition_nothing_names():
    source = (
        "class A:\n    def __len__(self): return 0\n    def used(self): pass\n"
        "    def unused(self): pass\ndef f():\n    def g(): pass\n    return g\nA().used()\n"
    )
    assert defined_names(source) - named(source) == {"f", "unused"}


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    sources = [p.read_text() for p in (*SRC.glob("*.py"), *(ROOT / "benchmarks").glob("*.py"))]
    defined = set().union(*(defined_names(p.read_text()) for p in SRC.glob("*.py")))
    unreached = defined - set().union(*map(named, sources))
    assert unreached == set(UNREACHED), (
        f"named nowhere: {sorted(unreached - set(UNREACHED))}; "
        f"no longer unreached: {sorted(set(UNREACHED) - unreached)}"
    )


# the functions whose parameters may take WindowSample handles: fit's list form
# and the gather it goes through; every other window argument is a WindowBatch
HANDLE_TAKERS = {("training", "fit"), ("core", "as_batch")}


def handle_parameters(source: str) -> set[str]:
    """Functions with a parameter whose annotation names WindowSample, by name."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
            if arg is not None and arg.annotation is not None and any(
                (isinstance(n, ast.Name) and n.id == "WindowSample")
                or (isinstance(n, ast.Constant) and "WindowSample" in str(n.value))
                for n in ast.walk(arg.annotation)
            ):
                out.add(fn.name)
    return out


def test_the_scan_finds_a_parameter_that_takes_handles():
    source = (
        "def f(w: WindowBatch | Sequence[WindowSample]): pass\n"
        "def g(w: WindowBatch, *, s: 'list[WindowSample]'): pass\n"
        "def h(w: WindowBatch) -> WindowSample: pass\n"
    )
    assert handle_parameters(source) == {"f", "g"}


def test_only_fit_and_as_batch_take_window_handles():
    found = {(p.stem, name) for p in SRC.glob("*.py") for name in handle_parameters(p.read_text())}
    assert found == HANDLE_TAKERS
