"""Bases of the package's small value classes, and the one text form of ints and keys.

A subclass names its fields in __slots__, in constructor order; a slot whose
name starts with "_" is derived state, not a field. Equality, hashing, repr
and copying all read the fields from there.
"""

import sys

from .errors import BoundExceededError, expect_int, expect_mapping, is_int


def read_object(data, what: str, fields):
    """A decoded JSON object; a field not among fields raises ValueError."""
    for field in expect_mapping(data, what):
        if field not in fields:
            raise ValueError(f"the {what} has no field {field!r}")
    return data


def write_keys(mapping, write=None) -> dict:
    """str of each key, in key order, to its value, or to write(value) if given."""
    return {str(key): write(value) if write else value for key, value in sorted(mapping.items())}


def read_keys(data, what: str, parse) -> dict:
    """The entries of a decoded JSON object, each key text read by parse.

    parse refuses a key text that the writer would not write, so two texts
    never name one key.
    """
    return {parse(key_text): value for key_text, value in expect_mapping(data, what).items()}


def write_ints(ints, brackets=False) -> str:
    """The one text of an int tuple: "3,-1", or "[3,-1]" with brackets."""
    text = ",".join(map(str, ints))
    return f"[{text}]" if brackets else text


def read_ints(text: str, what: str, brackets=False, length=None) -> tuple[int, ...]:
    """The ints that write_ints(ints, brackets) writes as text, length of them if given.

    The one reader of ints from text. Any other text raises ValueError
    naming it and, where it holds ints, the text they must be written as:
    surrounding spaces, a missing or extra bracket, "+1", "01", "0_1", "-0"
    and non-ASCII digits are all refused. An int of more digits than int()
    reads raises BoundExceededError naming its size.
    """
    # str(): a non-str key handed to from_json fails the last check, not here
    inner = str(text).strip()
    if inner[:1] == "[" and inner[-1:] == "]":
        inner = inner[1:-1]
    try:
        ints = tuple(map(int, inner.split(","))) if inner.strip() else ()
    except ValueError:
        # int() refuses a plain decimal only past this digit limit; Python
        # 3.10.0-3.10.6 have neither the limit nor this function
        limit = getattr(sys, "get_int_max_str_digits", int)()
        for digits in (entry.removeprefix("-") for entry in inner.split(",")):
            plain = digits.isascii() and digits.isdigit() and digits[0] != "0"
            if plain and 0 < limit < len(digits):
                # 10^(d-1) <= the int, and 3.321928094 < log2(10)
                bits = (len(digits) - 1) * 3321928094 // 10**9 + 1
                raise BoundExceededError(
                    f"the {what} holds an int of {len(digits)} digits, at least {bits} bits;"
                    f" an int text may have at most {limit} digits"
                ) from None
        raise ValueError(f"the {what} {text!r} must be written as decimal ints") from None
    if length is not None and len(ints) != length:
        raise ValueError(f"the {what} {text!r} must have length {length}")
    canonical = write_ints(ints, brackets)
    if canonical != text:
        raise ValueError(f"the {what} {text!r} must be written {canonical!r}")
    return ints


class Record:
    """Mutable fields; equal to a record of the same class with equal fields.

    The fields are the public slots, which this constructor takes in order;
    a subclass's own __init__ may derive its private slots after calling it.
    Unhashable, since a field may change after the record is used as a key.
    """

    __slots__ = ()
    _field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *fields):
        names = self._field_names
        if len(fields) != len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} fields"
                f" ({', '.join(names)}), not {len(fields)}"
            )
        for name, value in zip(names, fields):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class Counts(Record):
    """Finitely supported integer vector over hashable keys.

    The last field is the canonical form: a dict from keys to nonzero ints.
    A field before it is a rank that two values must share to be added.
    A subclass checks one key in _key, raising TypeError for a key of the
    wrong type, writes and reads key text in _text and _parse, and may set
    the class attributes below. JSON names each field by its slot. Counts
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
    # what from_json's error texts call the payload
    _json_name: str

    def _canonical(self, counts) -> dict:
        clean = {}
        for key, count in (counts or {}).items():
            key = self._key(key)
            if not is_int(count):
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

    def to_json(self) -> dict:
        """The rank fields by name, then the counts under the last field's name."""
        *rank, counts = self._field_names
        data = {name: getattr(self, name) for name in rank}
        data[counts] = {self._text(key): count for key, count in self._items()}
        return data

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json: every rank field is required, missing counts are zero."""
        data = read_object(data, cls._json_name, cls._field_names)
        *rank_names, counts = cls._field_names
        rank = [expect_int(data[name], f"rank {name}") for name in rank_names]
        return cls(*rank, cls._read_map(data.get(counts, {}), counts))

    @classmethod
    def _read_map(cls, data, what: str) -> dict:
        """Counts of a decoded JSON object, keys read by _parse."""
        return {
            key: expect_int(count, cls._count_text.format(cls._text(key)))
            for key, count in read_keys(data, what, cls._parse).items()
        }


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
