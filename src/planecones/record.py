"""Immutable value records with fixed slots, built without generating code at import.

``Record.__init__`` is the checked public constructor.  Code that builds a
record from values it has checked itself calls ``cls._trusted(*fields)``,
which ``Record`` makes for each subclass from one template per field count
(``_TRUSTED``): it allocates through ``_new`` and calls each slot's setter,
held in a closure cell, past the field-count check and the refusing
``__setattr__``.  Equality and hashing read the fields generically and cost
several times a tuple's, so the caches on the report path key on integers,
never on records.
"""

from operator import attrgetter

_new = object.__new__  # every trusted constructor allocates here, so a test can count records


def _trusted2(cls, s0, s1):
    def trusted(v0, v1):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        return self
    return trusted


def _trusted3(cls, s0, s1, s2):
    def trusted(v0, v1, v2):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        s2(self, v2)
        return self
    return trusted


def _trusted4(cls, s0, s1, s2, s3):
    def trusted(v0, v1, v2, v3):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        s2(self, v2)
        s3(self, v3)
        return self
    return trusted


def _trusted6(cls, s0, s1, s2, s3, s4, s5):
    def trusted(v0, v1, v2, v3, v4, v5):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        s2(self, v2)
        s3(self, v3)
        s4(self, v4)
        s5(self, v5)
        return self
    return trusted


def _trusted7(cls, s0, s1, s2, s3, s4, s5, s6):
    def trusted(v0, v1, v2, v3, v4, v5, v6):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        s2(self, v2)
        s3(self, v3)
        s4(self, v4)
        s5(self, v5)
        s6(self, v6)
        return self
    return trusted


def _trusted9(cls, s0, s1, s2, s3, s4, s5, s6, s7, s8):
    def trusted(v0, v1, v2, v3, v4, v5, v6, v7, v8):
        self = _new(cls)
        s0(self, v0)
        s1(self, v1)
        s2(self, v2)
        s3(self, v3)
        s4(self, v4)
        s5(self, v5)
        s6(self, v6)
        s7(self, v7)
        s8(self, v8)
        return self
    return trusted


_TRUSTED = {2: _trusted2, 3: _trusted3, 4: _trusted4, 6: _trusted6, 7: _trusted7, 9: _trusted9}


class Record:
    """The fields named in a subclass's ``__slots__``, set positionally once.

    Records are equal, and hash, as the tuple of their fields; assignment
    raises ``AttributeError``, and a record pickles as its class and fields.
    A subclass has 2, 3, 4, 6, 7 or 9 fields, the counts ``_TRUSTED`` unrolls.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._fields = attrgetter(*cls.__slots__)
        template = _TRUSTED.get(len(cls._setters))
        if template is None:
            raise TypeError(f"{cls.__name__} has {len(cls._setters)} fields, "
                            f"not one of {list(_TRUSTED)}")
        trusted = template(cls, *cls._setters)
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
