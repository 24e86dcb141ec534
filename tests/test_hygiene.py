"""Source hygiene for src/brpic, checked with the standard-library ast only.

Every imported name is used or re-exported through ``__all__``, no module
uses ``assert`` (certificates must raise, also under ``python -O``),
every function is referenced somewhere or exported by the package, and no
function assigns a local that nothing reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "brpic"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """(bound name, line) for every module-level or nested import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, node.lineno))
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"groups.py", "autoeq.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    keep = _used_names(tree) | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in keep]
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


class _References(ast.NodeVisitor):
    """Names read anywhere in a tree, except inside a def of that name
    (recursion does not count); ``attrs`` holds those read as an attribute
    (``x.name``)."""

    def __init__(self):
        self.names, self.attrs, self.defs = set(), set(), []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _read(self, name, into):
        if name not in self.defs:
            into.add(name)

    def visit_Name(self, node):
        self._read(node.id, self.names)

    def visit_Attribute(self, node):
        self._read(node.attr, self.attrs)
        self.generic_visit(node)


def _methods(tree):
    """The defs that sit directly in a class body."""
    return {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body}


def test_every_function_is_referenced():
    """A function, method or property of src/brpic (dunders aside) is
    referenced by name outside its own def in src/brpic, tests or
    benchmarks, or exported through the package's ``__all__``.  A method
    or property counts as referenced only when it is read as an attribute
    (``x.name``): a local variable of the same name keeps nothing alive.
    A module's own ``__all__`` does not count either."""
    refs = _References()
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(
            (ROOT / "benchmarks").glob("*.py")):
        refs.visit(_tree(path))
    exported = _exported(_tree(SRC / "__init__.py"))
    unused = []
    for path in MODULES:
        tree = _tree(path)
        methods = _methods(tree)
        unused += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in refs.attrs | exported
            and (id(node) in methods or node.name not in refs.names)
        ]
    assert not unused, f"functions nothing references: {unused}"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _functions(tree, prefix):
    """(dotted name, node) for every def, methods and nested defs too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            yield from _functions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}")
        else:
            yield from _functions(node, prefix)


def _own_nodes(func):
    """The nodes of a function body outside its nested defs, lambdas and
    classes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(func):
    """Names the function assigns that nothing in it reads.  Reads in nested
    functions count, and so does a nested ``nonlocal``; names bound by
    ``global`` or ``nonlocal`` in the function itself are not its locals."""
    outer = set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
    stored = {
        node.id for node in _own_nodes(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    read = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Nonlocal):
            read.update(node.names)
    return sorted(n for n in stored - read - outer if not n.startswith("_"))


def test_no_dead_locals():
    """No function of src/brpic assigns a local (other than an underscore
    name) that nothing in the function reads."""
    dead = [
        f"{name}: {', '.join(names)}"
        for path in MODULES
        for name, func in _functions(_tree(path), path.stem)
        if (names := _dead_locals(func))
    ]
    assert not dead, f"locals assigned but never read: {dead}"


def test_only_cyclo_knows_its_internals():
    """No module of src/brpic other than ``cyclo`` imports a name beginning
    with ``_`` from it: the coefficient-tensor format belongs to
    ``cyclo.CycloArray``."""
    private = [
        f"{path.name}: {alias.name}"
        for path in MODULES if path.name != "cyclo.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("cyclo", "brpic.cyclo")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private, f"private names imported from cyclo: {private}"


def _memo_tag(key, func):
    """The tag of a ``_memo`` key: the key, or its first item, as a
    constant; a name is read through its first assignment in ``func``.
    None when it is none of these."""
    if isinstance(key, ast.Name) and func is not None:
        key = next((node.value for node in _own_nodes(func)
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == key.id
                            for t in node.targets)), key)
    if isinstance(key, ast.Tuple) and key.elts:
        key = key.elts[0]
    return key.value if isinstance(key, ast.Constant) else None


def _is_memo(node):
    return isinstance(node, ast.Attribute) and node.attr == "_memo"


def _memo_uses(tree):
    """(reads, writes): the tags of the ``_memo`` entries a module reads
    (``x._memo[k]``, ``k in x._memo``, ``x._memo.get(k)``) and writes
    (``x._memo[k] = ...``, ``x._memo.setdefault(k, ...)``)."""
    owner = {}
    for name, func in _functions(tree, ""):
        for node in _own_nodes(func):
            owner[id(node)] = func
    reads, writes = set(), set()
    for node in ast.walk(tree):
        func = owner.get(id(node))
        if isinstance(node, ast.Subscript) and _is_memo(node.value):
            into = writes if isinstance(node.ctx, ast.Store) else reads
            into.add(_memo_tag(node.slice, func))
        elif (isinstance(node, ast.Compare)
              and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and _is_memo(node.comparators[0])):
            reads.add(_memo_tag(node.left, func))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and _is_memo(node.func.value) and node.args):
            into = writes if node.func.attr == "setdefault" else reads
            into.add(_memo_tag(node.args[0], func))
    return reads, writes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_memo_entries_are_read_where_they_are_written(path):
    """A module reads only the ``_memo`` entries whose tag (the key, or the
    key's first item) it also writes: each cache has one owner, and other
    modules go through the owner's functions.  Every key has a constant
    tag."""
    reads, writes = _memo_uses(_tree(path))
    assert None not in reads | writes, f"{path.name}: a _memo key has no tag"
    foreign = sorted(reads - writes)
    assert not foreign, f"{path.name} reads others' _memo entries: {foreign}"
