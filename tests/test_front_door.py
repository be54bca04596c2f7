"""Every eigen, singular-value, norm and power routine of ``np.linalg`` is
called from ``linops`` alone, so that one module decides how each spectral
quantity is computed and what it certifies.

The test walks the syntax tree of every module of ``src/framekit`` but
``linops.py`` and collects each use of ``numpy.linalg``: an attribute
``np.linalg.<name>`` (called or not), ``import numpy.linalg`` and
``from numpy import linalg``. A use is keyed by its module, the function
or method around it and the routine it names. ``ALLOWED`` lists the uses
not yet moved behind ``linops``, with how many times each occurs; the
list may only shrink, so a use that is gone must leave it too.
"""

import ast
import collections
import pathlib

import framekit

SRC = pathlib.Path(framekit.__file__).parent

ALLOWED = {
    ("hframe", "parsevalize", "eigh"): 1,
    ("ovf", "_range_basis", "svd"): 1,
    ("ovf", "dilate", "svd"): 1,
    ("pasf", "dilate", "svd"): 1,
    ("pasf", "expand_to_asf", "svd"): 1,
}


def _uses(tree: ast.Module):
    """(scope, routine) of each use of numpy.linalg in one module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Attribute)
                    and child.value.attr == "linalg"
                    and isinstance(child.value.value, ast.Name)
                    and child.value.value.id in ("np", "numpy")):
                yield scope, child.attr
            elif isinstance(child, ast.Import):
                yield from ((scope, "import") for a in child.names
                            if a.name.startswith("numpy.linalg"))
            elif isinstance(child, ast.ImportFrom) and (
                    (child.module or "").startswith("numpy.linalg")
                    or child.module == "numpy"
                    and any(a.name == "linalg" for a in child.names)):
                yield scope, "import"
            yield from walk(child, inner)
    return walk(tree, "")


def found() -> collections.Counter:
    uses = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linops":
            for scope, name in _uses(ast.parse(path.read_text())):
                uses[(path.stem, scope, name)] += 1
    return uses


def test_linalg_is_called_from_linops_alone():
    got = found()
    new = {k: n for k, n in got.items() if n > ALLOWED.get(k, 0)}
    assert not new, f"np.linalg outside linops; call a linops function: {new}"


def test_the_allowlist_only_shrinks():
    got = found()
    stale = {k: n for k, n in ALLOWED.items() if got.get(k, 0) < n}
    assert not stale, f"moved behind linops; lower or drop these: {stale}"


def test_the_walk_sees_each_form():
    tree = ast.parse("import numpy.linalg\nfrom numpy import linalg\n"
                     "def f(A):\n    norm = np.linalg.norm\n"
                     "    return numpy.linalg.svd(A)\n")
    assert sorted(_uses(tree)) == [("", "import"), ("", "import"),
                                   ("f", "norm"), ("f", "svd")]
