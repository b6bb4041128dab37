"""hyperline: exact arithmetic on a computable fragment of the extended
hyperreal line, with Goldbach-Euler and Hermite verification engines.

The six submodules load on first use.  Each is in ``sys.modules`` and is an
attribute of the package from the start, and its code runs the first time
one of its attributes (``__dict__`` included) is read.  So a command-line
call runs only the engines it uses: ``hermite m`` never executes ``seqfield``.
"""

import importlib.util
import sys
import threading
import types

from .intervals import Interval

__all__ = ["errors", "extsum", "goldbach", "hermite", "seqfield", "wattenberg",
           "Interval"]
__version__ = "0.1.0"

# Serialises first loads.  Re-entrant, because loads nest: extsum's code
# reads seqfield.
_LOAD_LOCK = threading.RLock()


class _LazyModule(types.ModuleType):
    """A registered submodule whose code has not run.  The first attribute
    read runs it under _LOAD_LOCK and then makes it a plain module.

    Unlike importlib.util.LazyLoader, which makes the module plain before
    its code runs and takes no lock, a read from another thread meanwhile
    waits for the load to finish instead of seeing a half-run module."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _LazyModule:
                self.__class__ = _Loading
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    self.__class__ = _LazyModule
                    raise
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


class _Loading(_LazyModule):
    """A submodule whose code is running.  Its reads take the lock, so only
    the loading thread gets through before the load ends."""


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


errors, extsum, goldbach, hermite, seqfield, wattenberg = map(_register, __all__[:6])
