"""The shared part of the package's immutable value records."""

from operator import attrgetter


class Record:
    """Base of an immutable record whose fields are its __slots__.

    A subclass sets its fields in __init__ with object.__setattr__.  This
    base makes the fields read-only; makes two records equal when they have
    the same class and the same field values, read by one attrgetter built
    from each subclass's __slots__; and hashes a record as its field values.
    A subclass whose fields can hold a dict sets __hash__ = None.  It writes
    the repr as Class(field=value, ...), and supports copy, deepcopy and
    pickle through __reduce__, which rebuilds a record by calling its class
    on its field values.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
