"""The base of frobq's small immutable value classes."""


class FrozenValue:
    """A value whose fields are its class's __slots__, in constructor order.

    The constructor binds its arguments to the fields, by position or by
    keyword, and is the only code that writes one: a subclass that checks or
    normalises its arguments ends in one super().__init__(...), and no
    subclass calls object.__setattr__.  Instances compare and hash by their
    field values, and only with instances of the same class.  The repr reads
    like a constructor call with keyword arguments.  Assignment and deletion
    raise dataclasses.FrozenInstanceError.  Pickling and copying go through
    the constructor.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes each of its fields "
                            f"({', '.join(names)}) exactly once")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        # imported here: dataclasses pulls in inspect, too costly at start-up
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
