"""The base of frobq's small immutable value classes."""


class FrozenValue:
    """A value whose fields are its class's __slots__, in constructor order.

    Instances compare and hash by their field values, and only with
    instances of the same class.  The repr reads like a constructor call
    with keyword arguments.  Assignment and deletion raise
    dataclasses.FrozenInstanceError, so a subclass's __init__ sets each
    field once with object.__setattr__.  Pickling and copying go through the
    constructor.
    """

    __slots__ = ()

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
