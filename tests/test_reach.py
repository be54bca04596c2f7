"""Every public top-level function and class in ``src/framekit`` is named
somewhere in the package outside its own definition, and every member of a
public class is read there.

A name counts as reached when another statement of its module uses it,
when another module imports it by name, or when another module reads it
as an attribute of the imported module (``hframe.frame_bounds``, or
``framekit.hframe.frame_bounds`` after ``import framekit``). A
decorated function counts as reached, because the decorator registers it
(every ``cmd_*`` handler of the command line). What no verb reaches gets a
verb or is deleted; the test oracles live in ``tests/oracles.py``, so the
allowlists hold only the entry point's parameter.

A member (a method, property or annotated field, dunders aside) counts as
read when an attribute load of its name appears anywhere in the package
outside the member's own definition; a load on ``self`` reads only the
members of the class it is written in. Other loads match by name alone, so
a member that shares its name with one that is read passes unseen. A
keyword in a constructor call is not a read.

A defaulted parameter of a public function or method is passed by some
call in the package, by position or by keyword; a knob no caller turns
is a choice made twice. Calls match by the called name alone, and a call
inside the function's own definition does not count.
"""

import ast
import math
import pathlib

import framekit

SRC = pathlib.Path(framekit.__file__).parent

ALLOWED = {}

PARAM_ALLOWED = {
    ("cli", "main", "argv"):
        "entry point: the console script calls main() with no argument, "
        "tests pass the argument list",
}

MEMBER_ALLOWED = {}


def public_names():
    """(defined, used): public top-level names with their line, and the
    (module, name) pairs named outside their own definition."""
    modules = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined, used = {}, set()
    for mod, tree in modules.items():
        aliases = {}  # local name -> framekit module
        packages = set()  # local names of the framekit package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                packages.update(a.asname or a.name for a in node.names
                                if a.name == "framekit")
            elif isinstance(node, ast.ImportFrom):
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
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in aliases:
                        used.add((aliases[base.id], node.attr))
                    elif (isinstance(base, ast.Attribute)
                          and base.attr in modules
                          and isinstance(base.value, ast.Name)
                          and base.value.id in packages):
                        used.add((base.attr, node.attr))
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


def public_members():
    """(spans, unread): the members of public top-level classes with the
    lines of their definition, and those that no attribute load outside
    that definition reads."""
    spans, loads = {}, {}
    for path in SRC.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        for stmt in tree.body:
            owner = (mod, stmt.name) if isinstance(stmt, ast.ClassDef) else None
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    on_self = (isinstance(node.value, ast.Name)
                               and node.value.id == "self")
                    loads.setdefault(node.attr, []).append(
                        (mod, node.lineno, owner if on_self else None))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                elif (isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)):
                    name = stmt.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    spans[mod, cls.name, name] = (stmt.lineno, stmt.end_lineno)
    unread = {key for key, (lo, hi) in spans.items()
              if not any(owner in (None, key[:2])
                         and not (m == key[0] and lo <= line <= hi)
                         for m, line, owner in loads.get(key[2], ()))}
    return spans, unread


def test_every_public_member_is_read():
    spans, unread = public_members()
    assert ("cuntz", "DXBuild", "error_bound") in spans  # fields are seen
    assert [f"{mod}.py:{spans[mod, cls, name][0]} {cls}.{name}"
            for mod, cls, name in sorted(unread)
            if (mod, cls, name) not in MEMBER_ALLOWED] == []
    # an allowlist entry goes once its member is deleted or gets a reader
    assert [k for k in MEMBER_ALLOWED if k not in unread] == []


def defaulted_params(fn: ast.FunctionDef, offset: int):
    """(positional index or None, name) of every parameter with a default;
    offset drops self or cls from the positional count."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(i - offset, arg.arg) for i, arg in enumerate(positional)
           if i >= first]
    out += [(None, arg.arg)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None]
    return out


def public_defs(tree):
    """(function, offset) for the public top-level functions and the
    public methods of public classes; offset is 1 past self or cls."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt, 0
        elif (isinstance(stmt, ast.ClassDef)
              and not stmt.name.startswith("_")):
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    yield fn, 0 if static else 1


def unpassed_params():
    """(spans, unpassed): the defaulted parameters of public functions and
    of the methods of public classes with the lines of their definition,
    and those that no call outside that definition passes."""
    spans, calls = {}, {}
    for path in SRC.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                calls.setdefault(name, []).append((
                    mod, node.lineno,
                    math.inf if starred else len(node.args),
                    {k.arg for k in node.keywords}))  # None for **kwargs
        for fn, offset in public_defs(tree):
            if fn.name.startswith("_"):
                continue
            for index, arg in defaulted_params(fn, offset):
                spans[mod, fn.name, arg] = (fn.lineno, fn.end_lineno, index)
    unpassed = {key for key, (lo, hi, index) in spans.items()
                if not any((index is not None and index < npos)
                           or key[2] in kws or None in kws
                           for m, line, npos, kws in calls.get(key[1], ())
                           if not (m == key[0] and lo <= line <= hi))}
    return spans, unpassed


def test_every_defaulted_param_is_passed():
    spans, unpassed = unpassed_params()
    assert ("vsdilate", "as_exact", "rational") in spans  # the scan works
    assert [f"{mod}.py:{spans[mod, fn, arg][0]} {fn}({arg})"
            for mod, fn, arg in sorted(unpassed)
            if (mod, fn, arg) not in PARAM_ALLOWED] == []
    # an allowlist entry goes once its parameter is deleted or gets a caller
    assert [k for k in PARAM_ALLOWED if k not in unpassed] == []
