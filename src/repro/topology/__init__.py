"""AS-level topology substrate.

``TopologyParams``, the AS kinds and the org table are stdlib-only and
import eagerly.  The numpy-backed graph and generator load on first
access to one of their names, so configuring a scenario (whose cache
keys digest ``TopologyParams``) does not import the substrate.
"""

from .kinds import ASKind, Relationship, flip
from .orgs import OrgTable
from .params import TopologyParams

#: Names resolved on first access → the submodule defining them.
_LAZY_NAMES = {
    "GeneratedInternet": "generator",
    "build_internet": "generator",
    "AsNode": "graph",
    "Topology": "graph",
}

__all__ = [
    "GeneratedInternet",
    "TopologyParams",
    "build_internet",
    "AsNode",
    "Topology",
    "ASKind",
    "Relationship",
    "flip",
    "OrgTable",
]


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
