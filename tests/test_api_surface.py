"""Dead-API guard: every public module-level name in ``svoed`` has a user,
and so does every attribute a ``svoed`` class sets.

A public function, class or constant that only tests call is a second code
path to maintain, so each one must be referenced somewhere in ``src/`` or
``benchmark/`` outside its own definition.  References are identifiers and
attribute names; a name used only inside its own body does not count.
An attribute (``self.X = ...`` or a class-body field) must be read as
``something.X`` somewhere in ``src/`` or ``benchmark/``; attributes are
matched by name alone, so one read covers every class that sets ``X``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "svoed").glob("*.py"))
USERS = MODULES + sorted((ROOT / "benchmark").glob("*.py"))

# Entry points called from outside Python: the console script.
ALLOWED = {"main"}

# Attributes read by callers outside ``src/`` and ``benchmark/``: the index
# of the failed sample is the fault record that library users and tests read.
ALLOWED_ATTRIBUTES = {"ModelEvaluationError.sample_index"}


def defined_names(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def referenced_names(node) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_public_name_is_used_outside_its_definition():
    # (file, top-level statement index) -> names that statement references.
    references = {}
    for path in USERS:
        for index, statement in enumerate(ast.parse(path.read_text()).body):
            references[path, index] = referenced_names(statement)

    unused = []
    for path in MODULES:
        for index, statement in enumerate(ast.parse(path.read_text()).body):
            for name in defined_names(statement):
                if name.startswith("_") or name in ALLOWED:
                    continue
                if not any(name in names for key, names in references.items()
                           if key != (path, index)):
                    unused.append(f"{path.stem}.{name}")
    assert unused == []


def set_attributes(cls) -> set[str]:
    """Names of the class-body fields and ``self.X = ...`` targets of ``cls``."""
    names = {name for statement in cls.body
             if isinstance(statement, (ast.Assign, ast.AnnAssign))
             for name in defined_names(statement)}
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def test_every_attribute_is_read():
    read = {node.attr for path in USERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                unread += [f"{cls.name}.{name}" for name in sorted(set_attributes(cls))
                           if name not in read and f"{cls.name}.{name}" not in ALLOWED_ATTRIBUTES]
    assert unread == []
