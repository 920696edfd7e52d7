"""Plain slotted records.

A record that validates nothing and gives no instance a list or dict of
its own is a ``typing.NamedTuple``.  The others are slotted classes with a
hand-written ``__init__`` that subclass :class:`Record`: the records that
validate their fields, those that give each instance a new list or dict,
and the block nodes, which the parser makes by the thousand and which a
named tuple would make slower to build and larger.  Both kinds have
``_fields`` and ``_replace``, and neither needs ``dataclasses``, which
generates and runs the source of each class's methods at import.
"""

from __future__ import annotations


class Record:
    """A slotted class whose ``__init__`` takes ``_fields`` in order, with
    field-wise ``==`` (only between instances of one class), ``repr``, and
    ``_replace`` and pickling through ``__init__``, so both validate."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with *changes*, made by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class FrozenRecord(Record):
    """A :class:`Record` that refuses assignment and hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
