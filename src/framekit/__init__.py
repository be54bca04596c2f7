"""framekit: finite-scale frame theory toolkit.

Hilbert frames, p-approximate Schauder frames, semi-inner products on
finite l^p, metric (Lipschitz) frames, frame multipliers, weak
operator-valued frames, exact vector-space dilations, and Cuntz-isometry
commutator systems.

The math modules load on first use: ``framekit.hframe`` imports
``framekit/hframe.py`` when it is first read, so a command imports only
the modules its own group needs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = frozenset({"cuntz", "hframe", "linops", "metricframe",
                      "multiplier", "ovf", "pasf", "sip", "vsdilate"})


def __getattr__(name: str):
    # called only while the attribute is missing: the import binds it
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
