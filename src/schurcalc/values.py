"""Bases of the package's small value classes.

A subclass names its fields in __slots__, in constructor order. Equality,
hashing, repr and copying all read the fields from there.
"""

from .errors import expect_int, expect_mapping


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


class Counts(Record):
    """Finitely supported integer vector over hashable keys.

    The last field is the canonical form: a dict from keys to nonzero ints.
    A field before it is a rank that two values must share to be added.
    A subclass checks or normalises one key in _key, writes and parses key
    text in _text and _parse, and may set the class attributes below. Counts
    must be ints, never bools; anything else raises TypeError.
    """

    __slots__ = ()

    # ValueError text for a negative count, with {key} and {count}; None
    # lets counts be negative
    _negative: str | None = None
    # JSON and repr list the keys in decreasing order
    _descending = False
    # what one count of the JSON map is, with {} for the key text
    _count_text: str

    def _key(self, key):
        return key

    def _canonical(self, counts) -> dict:
        clean = {}
        for key, count in (counts or {}).items():
            key = self._key(key)
            if not isinstance(count, int) or isinstance(count, bool):
                raise TypeError(
                    f"the count at {key!r} must be an int, not {type(count).__name__}"
                )
            if count < 0 and self._negative is not None:
                raise ValueError(self._negative.format(key=key, count=count))
            if count:
                clean[key] = count
        return clean

    @classmethod
    def zero(cls, *rank):
        return cls(*rank)

    def is_zero(self) -> bool:
        return not self._fields()[-1]

    def is_actual(self) -> bool:
        return all(count >= 0 for count in self._fields()[-1].values())

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        *rank, acc = self._fields()
        *other_rank, counts = other._fields()
        if rank != other_rank:
            raise ValueError("rank mismatch")
        acc = dict(acc)
        for key, count in counts.items():
            acc[key] = acc.get(key, 0) + count
        return type(self)(*rank, acc)

    def scale(self, scalar: int):
        *rank, counts = self._fields()
        return type(self)(*rank, {key: scalar * count for key, count in counts.items()})

    def _items(self) -> list:
        """(key, count) pairs in JSON order."""
        return sorted(self._fields()[-1].items(), reverse=self._descending)

    @staticmethod
    def _text(key) -> str:
        return str(key)

    def _map_json(self) -> dict[str, int]:
        return {self._text(key): count for key, count in self._items()}

    @classmethod
    def _read_map(cls, data, what: str) -> dict:
        """Counts of a decoded JSON object, keys parsed by _parse."""
        counts = {}
        for text, count in expect_mapping(data, what).items():
            key = cls._parse(text)
            counts[key] = expect_int(count, cls._count_text.format(text))
        return counts


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
