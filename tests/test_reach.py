"""Every public top-level function and class in ``src/framekit`` is named
somewhere in the package outside its own definition.

A name counts as reached when another statement of its module uses it,
when another module imports it by name, or when another module reads it
as an attribute of the imported module (``hframe.frame_bounds``). A
decorated function counts as reached, because the decorator registers it
(every ``cmd_*`` handler of the command line). What no verb reaches gets a
verb or is deleted; the allowlist holds the few names that tests keep on
purpose.
"""

import ast
import pathlib

import framekit

SRC = pathlib.Path(framekit.__file__).parent

ALLOWED = {
    ("cuntz", "concrete_equal"):
        "test oracle: equality of word-algebra elements in the concrete "
        "representation",
    ("cuntz", "first_iterate_entry"):
        "test oracle: the exact first corrector iterate, against which the "
        "tests check solve_b's certified first bounds",
    ("sip", "make_parseval"):
        "test fixture: builds the Parseval semi-inner-product pairs of the "
        "sip tests",
}


def public_names():
    """(defined, used): public top-level names with their line, and the
    (module, name) pairs named outside their own definition."""
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined, used = {}, set()
    for mod, tree in modules.items():
        aliases = {}  # local name -> framekit module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rsplit(".", 1)[-1]
                for a in node.names:
                    if node.module in (None, "framekit") and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    elif source in modules:
                        used.add((source, a.name))
        for stmt in tree.body:
            own = None
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                own = stmt.name
                defined[(mod, own)] = stmt.lineno
                if isinstance(stmt, ast.FunctionDef) and stmt.decorator_list:
                    used.add((mod, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add((mod, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    used.add((aliases[node.value.id], node.attr))
    return defined, used


def test_every_public_name_is_reached():
    defined, used = public_names()
    assert ("cli", "main") in defined  # the scan found the package
    unreached = [f"{mod}.py:{line} {name}"
                 for (mod, name), line in sorted(defined.items())
                 if (mod, name) not in used and (mod, name) not in ALLOWED]
    assert unreached == []
    # an allowlist entry goes once its name is deleted or gets a caller
    assert [k for k in ALLOWED if k not in defined or k in used] == []
