"""Every public top-level name and public method in `blockenc` has a caller in `src/`.

A function, class or method that only tests call is surface nobody needs: it
either gets a caller in the package or goes.  The allowlists hold the few
references and test-support helpers kept on purpose.

Every dataclass field is read as an attribute somewhere in `src/` or
`tests/`.  The rules match by name, so a name that some other object reads
counts as read: `RegressionResult.alpha` passed while nothing read it,
because every encoding's `.alpha` is read.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blockenc"
TESTS = pathlib.Path(__file__).resolve().parent

# seeded instances for the tests and the benchmark
ALLOWED_MODULES = {"fixtures"}
ALLOWED = {
    ("mmio", "write_vector"),  # the benchmark writes its input vectors with it
    ("linalg", "is_unitary"),
    ("vtime", "run_unamplified"),  # the reference the VTAA tests compare against
}
# (class, method) pairs, by the same rule
ALLOWED_METHODS = {
    ("BlockEncoding", "unitary"),  # the dilation the dilatability tests check blocks against
    ("BlockEncoding", "verify"),  # the check tests run against each claimed target
    # how the data-structure input model prepares |b>; no route prepares b from a tree yet
    ("KPTree", "vector_state"),
}


def _trees(root=SRC):
    return {p.stem: ast.parse(p.read_text()) for p in sorted(root.glob("*.py"))}


def _public_definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name


def _public_methods(trees):
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield node.name, item.name


def _dataclass_fields(trees):
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield node.name, item.target.id


def _attributes(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _references(trees):
    """Names used in the package: bare names, relative imports, and `module.name`."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_src():
    trees = _trees()
    defined = set(_public_definitions(trees))
    assert ALLOWED <= defined  # no stale entries
    used = _references(trees)
    orphans = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in used and module not in ALLOWED_MODULES and (module, name) not in ALLOWED
    )
    assert orphans == []


def test_every_public_method_has_a_caller_in_src():
    trees = _trees()
    defined = set(_public_methods(trees))
    assert ALLOWED_METHODS <= defined  # no stale entries
    # a method is called through an attribute, on whatever object holds it
    used = _attributes(trees)
    orphans = sorted(
        f"{cls}.{name}"
        for cls, name in defined
        if name not in used and (cls, name) not in ALLOWED_METHODS
    )
    assert orphans == []


def test_every_dataclass_field_is_read():
    trees = _trees()
    read = _attributes(trees) | _attributes(_trees(TESTS))
    unread = sorted(f"{cls}.{name}" for cls, name in _dataclass_fields(trees) if name not in read)
    assert unread == []
