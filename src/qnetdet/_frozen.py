"""The immutable base of the package's value classes.

A subclass names its fields in ``__slots__`` and sets them in
``__init__`` with ``object.__setattr__``.  It then compares and hashes
as the tuple of its fields, against instances of the same class only,
shows its fields in its repr, refuses assignment and deletion, and
copies and pickles through ``__reduce__``.  This is what a frozen
dataclass gives, without importing ``dataclasses`` and, through it,
``inspect``: a cold ``qnetdet reduce`` loads neither.

``_maker(cls)`` makes instances in one step from checked values: a
function generated once per class, as ``namedtuple`` does its methods,
that calls ``object.__new__`` and each slot's member descriptor.
"""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=None)
def _maker(cls):
    """``make(*values)``: a new instance of cls with its fields set, in
    slot order (see the module docstring); cached per class."""
    args = [f"v{i}" for i in range(len(cls.__slots__))]
    scope = {"new": object.__new__, "cls": cls}
    scope.update((f"set_{a}", getattr(cls, name).__set__) for a, name in zip(args, cls.__slots__))
    sets = "".join(f"    set_{a}(obj, {a})\n" for a in args)
    exec(f"def make({', '.join(args)}):\n    obj = new(cls)\n{sets}    return obj\n", scope)
    return scope["make"]


def _rebuild(cls, values):
    """An instance of cls with the given field values, set directly;
    the target of ``Frozen.__reduce__``."""
    return _maker(cls)(*values)


class Frozen:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values())
