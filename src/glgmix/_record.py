"""Immutable record classes without generated code.

:func:`record` turns a class body of annotated fields into a frozen
value type, as ``dataclasses.dataclass(frozen=True)`` does, but attaches
its methods as closures instead of compiling them from source, so a
module of records loads without the ``dataclasses`` import and without
one ``exec`` per method.  The fields are the class's own annotations, in
order, and a field's default is the class attribute of the same name.
"""


def record(cls):
    """Give ``cls`` a constructor over its annotated fields, calling
    ``__post_init__`` when the class has one, and field-wise ``==``,
    ``hash`` and ``repr``; assigning or deleting an attribute raises
    AttributeError.  Positional arguments fill the fields in order.  A
    ``__post_init__`` that normalises a field sets it with
    ``object.__setattr__``.  Instances pickle and copy through their
    ``__dict__``.  ``cls`` derives from ``object`` alone and declares no
    ``__slots__``."""
    names = list(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    where = f"{cls.__qualname__}.__init__()"
    set_dict = cls.__dict__["__dict__"].__set__

    def bind(args, kwargs):
        # the field values of any call, in field order; a call that does
        # not match the fields raises TypeError, as Python's binding does
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        values.update(kwargs)
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required argument(s): "
                            + ", ".join(map(repr, missing)))
        return {name: values[name] if name in values else defaults[name] for name in names}

    # the library's own calls give every field by keyword in field order;
    # their keyword dict, new to each call, becomes the instance's
    # __dict__.  A record without __post_init__ gets an __init__ that
    # does not test for one on every call.
    if post_init is None:
        def __init__(self, *args, **kwargs):
            if args or [*kwargs] != names:
                kwargs = bind(args, kwargs)
            set_dict(self, kwargs)
    else:
        def __init__(self, *args, **kwargs):
            if args or [*kwargs] != names:
                kwargs = bind(args, kwargs)
            set_dict(self, kwargs)
            post_init(self)

    def field_values(self):
        return tuple([getattr(self, name) for name in names])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return field_values(self) == field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(field_values(self))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in names) + ")")

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = tuple(names)
    return cls
