"""The shared part of the package's immutable value records."""


class Record:
    """Base of an immutable record whose fields are its __slots__.

    A subclass sets its fields in __init__ with object.__setattr__ and
    defines its own __eq__ and __hash__ over the tuple of its fields, which
    keeps both as fast as a plain tuple comparison.  This base makes the
    fields read-only, writes the repr as Class(field=value, ...), and
    supports copy, deepcopy and pickle through __reduce__, which rebuilds a
    record by calling its class on its field values.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
