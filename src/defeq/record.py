"""Immutable value records.

Record is the base of the package's value types: the term and formula
nodes of folang and the small report and parameter records of the other
modules.  It gives them value equality, the hash of their field tuple, a
Name(field=value, ...) repr and no assignment, and imports nothing, so
that starting a command stays cheap.
"""

# Writes a field past Record.__setattr__; __init__ methods use it.
_set = object.__setattr__


class Record:
    """An immutable record whose fields are the names in its class's __slots__.

    Two records are equal when they have the same class and equal fields,
    in order, and a record hashes as the tuple of its fields.  The generic
    __init__ takes the fields positionally or by name, fills fields left
    out from the class's _defaults, and then calls the class's
    __post_init__, if it has one, to validate them.  A subclass may define
    its own __init__ that writes every field with _set.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)} by name")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        for name in fields:
            if name not in values:
                raise TypeError(f"{cls.__name__}() is missing field {name!r}")
            _set(self, name, values[name])
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its __init__
        return type(self), self._values()
