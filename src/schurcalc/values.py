"""Bases of the package's small value classes.

A subclass names its fields in __slots__, in constructor order. Equality,
hashing, repr and copying all read the fields from there.
"""


class Record:
    """Mutable fields; equal to a record of the same class with equal fields.

    Unhashable, since a field may change after the record is used as a key.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class Frozen(Record):
    """Fields set once in __init__, through object.__setattr__.

    Assignment and deletion raise AttributeError; copy and pickle rebuild
    the value through its constructor, which checks the fields again. The
    hash is hash() of the field tuple. Subclasses are used as dict keys in
    hot loops, so each spells out its own __eq__ and __hash__.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
