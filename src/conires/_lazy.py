"""Modules imported on first use.

deferred(name) is a stand-in for the module `name`: a module object that
imports the module at its first attribute access, takes over its
namespace and from then on is an ordinary module whose lookups cost what
the module's own do.  np is the package's one numpy handle: a module
that binds it keeps its np.* code as written and imports numpy only when
a call first reaches that code.  So the scalar routes (turning points,
the actions, the lattice and the Bohr-Sommerfeld refinement), which build
no array, never load numpy, and the array routes load it on their first
call.
"""

import importlib
import types

__all__ = ["deferred", "np"]


class _Deferred(types.ModuleType):
    def __getattr__(self, attr):
        # introspection (inspect, copy, pickle) asks for dunder names,
        # which do not import the module
        if attr.startswith("__") and attr.endswith("__"):
            raise AttributeError(attr)
        module = importlib.import_module(self.__name__)
        vars(self).update(vars(module))
        self.__class__ = types.ModuleType
        return getattr(module, attr)


def deferred(name):
    """The module `name`, imported at the first attribute access."""
    return _Deferred(name)


np = deferred("numpy")
