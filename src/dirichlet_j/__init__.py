"""Dirichlet lambda/beta functions, the cosecant-moment integral J(s), and a
machine-checked suite of the identities relating them.  Submodules load on
first attribute access (PEP 562): `dirichlet_j.j_quadrature` never loads linalg."""

from importlib import import_module

_SUBMODULES = ("exact", "special", "jfun", "identities", "linalg")  # each imports only earlier ones

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [export for sub in _SUBMODULES for export in __getattr__(sub).__all__]
    else:
        # the first submodule that exports the name; those before it are its imports
        exporters = (m for m in map(__getattr__, _SUBMODULES) if name in m.__all__)
        owner = None if name.startswith("__") else next(exporters, None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})
