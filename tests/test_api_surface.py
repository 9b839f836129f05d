"""Dead-API guard: every public module-level name in ``svoed`` has a user.

A public function, class or constant that only tests call is a second code
path to maintain, so each one must be referenced somewhere in ``src/`` or
``benchmark/`` outside its own definition.  References are identifiers and
attribute names; a name used only inside its own body does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "svoed").glob("*.py"))
USERS = MODULES + sorted((ROOT / "benchmark").glob("*.py"))

# Entry points called from outside Python: the console script.
ALLOWED = {"main"}


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
