"""Immutable value classes.

``Value`` gives a slotted class the behaviour of a frozen dataclass:
equality and hashing over the fields (equality needs the same class on
both sides), the dataclass repr, ``AttributeError`` on assigning or
deleting an attribute, and pickling and copying through the constructor.
It exists so that no module of the package imports the dataclass module,
which (with ``inspect``, which it loads) took more than half the import
time of ``bistrata.cli``.

A subclass names its fields in ``_fields``, in the order of its
constructor's parameters, and lists them in ``__slots__`` with any
attributes derived from them; its ``__init__`` validates and then stores
every slot with ``_assign``.  The generic equality and hash build
a tuple of the fields; a class on a hot path overrides them with direct
comparisons that agree with the generic ones.
"""

from __future__ import annotations

_setattr = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, **values) -> None:
        """Store each value in the slot of its name."""
        for name, value in values.items():
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: restoring slots would hit __setattr__
        return self.__class__, self._values()
