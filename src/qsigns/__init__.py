"""qsigns: exact q-expansion arithmetic for half-integral weight forms,
Shimura lifts, Hecke operators, and coefficient sign statistics."""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_submodule(name: str):
    """The module qsigns.<name>, compiled and run on its first attribute
    access instead of now.

    This is the LazyLoader recipe of the importlib docs: the module is in
    sys.modules at once.  It is also bound on the package, as an import
    binds it, so `from qsigns import name` and `qsigns.name` find the same
    object before it has run.  A module already imported is returned as
    it is.
    """
    full = "%s.%s" % (__name__, name)
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        loader.exec_module(module)
    globals()[name] = module
    return module
