"""Mutual information of 1D coded-aperture imaging systems.

Exact spectral evaluation, large-n predictors, transmissivity optimization
and reproducible Monte Carlo ensembles for circulant optical systems under
Gaussian scene priors with thermal and shot noise.

The package re-exports each module's ``__all__``, the one list of its public
names (errors.py defines only public classes and needs none), lazily (PEP 562):
``import apmi`` loads no module, the first use of a name loads the module that
defines it, and ``from apmi import cli`` loads that submodule alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module comes after every module it imports, so looking a name up
# loads no module that the name's own module does not load.
_MODULES = ("errors", "model", "asymptotic", "spectral", "patterns", "ensemble")


def __getattr__(name):
    """The submodule `name`, loaded alone, or the public name `name` of the module
    in _MODULES that lists it; "__all__" is the list of every public name."""
    if name in (*_MODULES, "checks", "cli"):
        return import_module(f"{__name__}.{name}")
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
