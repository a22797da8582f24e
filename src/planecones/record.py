"""Immutable value records with fixed slots, built without generating code at import.

``Record.__init__`` is the checked public constructor.  Code that builds a
record from values it has checked itself uses a trusted constructor instead,
which sets each slot of ``object.__new__(cls)`` directly, past the field-count
check and the refusing ``__setattr__``: ``chern._lattice``,
``exceptional._slope`` and ``_dyadic``, and the ``cone._new_*`` functions
that build every record of a report, one slot setter (``cls._setters``) per
field.  Equality and hashing read the fields generically and cost several
times a tuple's, so the caches on the report path key on integers, never on
records.
"""

from operator import attrgetter


class Record:
    """The fields named in a subclass's ``__slots__``, at least two, set positionally once.

    Records are equal, and hash, as the tuple of their fields; assignment
    raises ``AttributeError``, and a record pickles as its class and fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._fields = attrgetter(*cls.__slots__)

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
