"""novspec: exact spectral invariants over Novikov fields.

Novikov-ring arithmetic, filtered complexes with spectral numbers,
toric potentials with certified critical branes, quasimap homology
ranks, and quasi-state estimates, all over exact rational or Gaussian
rational coefficients (with a tolerance-carrying floating mode).

The names below load their module on first access (PEP 562), so a
command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "NEG_INF": "records",
    "CoefficientField": "fields",
    "GaussianRational": "fields",
    "NovikovScalar": "novikov",
    "field_for_mode": "fields",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
