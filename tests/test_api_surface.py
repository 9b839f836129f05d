"""Dead-API guard: every public module-level name in ``svoed`` has a user,
and so does every attribute a ``svoed`` class sets and every public method
and property it defines.

A public function, class or constant that only tests call is a second code
path to maintain, so each one must be referenced somewhere in ``src/`` or
``benchmark/`` outside its own definition.  References are identifiers and
attribute names; a name used only inside its own body does not count.

An attribute (``self.X = ...`` or a class-body field), a public method or
a property must be read as ``something.X`` in ``src/`` or ``benchmark/``,
a method or property outside its own body.  Each is keyed on its owning
class: the topmost ``svoed`` class in its hierarchy that holds ``X``, so a
read of a base's member covers every override of it.  Where a class outside
that hierarchy holds ``X`` too (every model sets ``n_params``;
``FieldJacobianBatch`` defines it as a property), a read counts only when
its receiver is known to be of the hierarchy: ``self`` in one of its
classes, the class itself, a parameter annotated with it, or a local bound
to a call of it or of a function annotated to return it.
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


def public_methods(cls) -> dict:
    """``cls``'s public methods and properties by name."""
    return {s.name: s for s in cls.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)) and not s.name.startswith("_")}


def class_named(node, classes) -> str | None:
    """The ``svoed`` class that ``node`` (``C`` or ``module.C``) names, if any."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in classes else None


def attribute_reads(tree, classes, returns) -> list:
    """``(name, receiver class or None, enclosing function definitions)`` of
    every ``X.name`` read in ``tree``.  ``returns`` maps a function name to
    the class its return annotation names."""
    reads = []

    def visit(node, env, scopes, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            env, scopes = dict(env), scopes + (node,)
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if owner is not None and args:
                env[args[0].arg] = owner
            for arg in args:
                if getattr(arg, "annotation", None) is not None:
                    env[arg.arg] = class_named(arg.annotation, classes)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name) and isinstance(sub.value, ast.Call)):
                    callee = sub.value.func
                    env[sub.targets[0].id] = class_named(callee, classes) or returns.get(
                        getattr(callee, "attr", getattr(callee, "id", None)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = class_named(node.value, classes)
            if isinstance(node.value, ast.Name) and node.value.id in env:
                receiver = env[node.value.id]
            reads.append((node.attr, receiver, scopes))
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, env, scopes, owner)

    visit(tree, {}, (), None)
    return reads


def unread_members(members) -> list[str]:
    """``Class.member`` for every member that ``members(cls)`` names in a
    ``svoed`` class and that no read reaches, by the owner rule above."""
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    classes = {cls.name: cls for path in MODULES for cls in ast.walk(trees[path])
               if isinstance(cls, ast.ClassDef)}
    returns = {f.name: class_named(f.returns, classes) for path in MODULES
               for f in ast.walk(trees[path]) if isinstance(f, ast.FunctionDef) and f.returns}
    bases = {name: [b for b in (class_named(base, classes) for base in cls.bases) if b]
             for name, cls in classes.items()}

    def ancestry(name) -> set:
        return {name}.union(*map(ancestry, bases[name]))

    def holds(name, member) -> bool:
        return member in public_methods(classes[name]) or member in set_attributes(classes[name])

    def root(name, member) -> str:
        above = [b for b in bases[name] if any(holds(c, member) for c in ancestry(b))]
        return root(above[0], member) if above else name

    reads = [read for path in USERS for read in attribute_reads(trees[path], classes, returns)]
    unread = []
    for name, cls in classes.items():
        for member in sorted(members(cls)):
            family = {c for c in classes if holds(c, member) and root(c, member) == root(name, member)}
            shared = any(holds(c, member) for c in classes if c not in family)
            bodies = {public_methods(classes[c]).get(member) for c in family}
            if not any(attr == member and not bodies.intersection(scopes)
                       and (not shared or receiver is not None
                            and any(receiver in ancestry(c) or c in ancestry(receiver)
                                    for c in family))
                       for attr, receiver, scopes in reads):
                unread.append(f"{name}.{member}")
    return unread


def test_every_attribute_is_read():
    assert [name for name in unread_members(set_attributes)
            if name not in ALLOWED_ATTRIBUTES] == []


def test_every_public_method_and_property_is_read():
    assert unread_members(public_methods) == []
