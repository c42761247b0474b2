"""Backlund transformations of n-dimensional confocal quadrics.

Layered library: sjcore (complex bilinear linear algebra on symmetric Jordan
matrices), quadric (confocal families, Ivory affinity, charts), deform
(conjugate-coordinate integrable systems on grids), backlund (matrix Riccati
transformation and its verifications), permute (Bianchi permutability and
Moebius-cube superposition), scenarios (the verification pipelines), cli
(scenario runner).  Each layer is imported on first use.
"""

__version__ = "0.1.0"

__all__ = [
    "backlund",
    "cli",
    "deform",
    "errors",
    "gridio",
    "numerics",
    "permute",
    "quadric",
    "scenarios",
    "sjcore",
    "__version__",
]


def __getattr__(name: str):
    """Import a layer on first use of confocal.<layer>: importing the package
    loads no submodule, so a run pays only for the layers it runs on."""
    if name in __all__ and name != "__version__":
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
