"""Mutual information of 1D coded-aperture imaging systems.

Exact spectral evaluation, large-n predictors, transmissivity optimization
and reproducible Monte Carlo ensembles for circulant optical systems under
Gaussian scene priors with thermal and shot noise.

The package re-exports each module's ``__all__``, the one list of its public
names; errors.py, which defines only its public classes, needs none.  The
re-export is lazy (PEP 562): ``import apmi`` loads no module, and the first
use of a name loads the module that defines it, so a command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module comes after every module it imports, so looking a name up
# loads no module that the name's own module does not load.
_MODULES = ("errors", "model", "spectral", "patterns", "asymptotic", "ensemble")


def __getattr__(name):
    """The public name `name` of the module in _MODULES that lists it;
    "__all__" is the list of every public name."""
    names = []
    for module_name in _MODULES:
        module = import_module(f"{__name__}.{module_name}")
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        if name in public:
            return getattr(module, name)
        names += public
    if name == "__all__":
        return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
