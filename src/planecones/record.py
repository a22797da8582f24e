"""Immutable value records with fixed slots, each with a trusted constructor.

``Record.__init__`` is the checked public constructor.  Code that builds a
record from values it has checked itself calls ``cls._trusted(*fields)``,
which ``Record`` makes for each subclass from one source, ``_source``,
compiled once per field count, as ``collections.namedtuple`` compiles its
``__new__``.  The source holds numbered names only: it allocates through
``_new`` and calls each slot's setter, held in a closure cell, past the
field-count check and the refusing ``__setattr__``.  Equality and hashing
read the fields generically and cost several times a tuple's, so the
caches on the report path key on integers, never on records.
"""

from functools import lru_cache
from operator import attrgetter

_new = object.__new__  # every trusted constructor allocates here, so a test can count records


def _source(count: int) -> str:
    """``make(cls, s0, ...)``, which returns ``trusted(v0, ...)`` for ``count`` slot setters."""
    setters = ", ".join(f"s{i}" for i in range(count))
    values = ", ".join(f"v{i}" for i in range(count))
    body = "".join(f"        s{i}(self, v{i})\n" for i in range(count))
    return (f"def make(cls, {setters}):\n"
            f"    def trusted({values}):\n"
            f"        self = _new(cls)\n"
            f"{body}"
            f"        return self\n"
            f"    return trusted\n")


@lru_cache(maxsize=16)  # bounded, as every store is; the package uses six field counts
def _maker(count: int):
    """``make`` of ``_source(count)``, run in this module's globals, so it reads ``_new`` here."""
    namespace = {}
    exec(_source(count), globals(), namespace)
    return namespace["make"]


class Record:
    """The fields named in a subclass's ``__slots__``, set positionally once.

    Records are equal, and hash, as the tuple of their fields; assignment
    raises ``AttributeError``, and a record pickles as its class and fields.
    A subclass has at least two fields, so ``_fields`` reads a tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        count = len(cls.__slots__)
        if count < 2:
            raise TypeError(f"{cls.__name__} has {count} fields; a record has at least 2")
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._fields = attrgetter(*cls.__slots__)
        trusted = _maker(count)(cls, *cls._setters)
        # named where it is found, so pickle refers to it as cls._trusted
        trusted.__module__, trusted.__qualname__ = cls.__module__, f"{cls.__qualname__}._trusted"
        cls._trusted = staticmethod(trusted)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} fields, "
                            f"got {len(values)}")
        for put, value in zip(self._setters, values):
            put(self, value)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields(self) == other._fields(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)
