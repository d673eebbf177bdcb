"""Every annotation in the package, and in the tests' oracles, resolves.

Each module starts with ``from __future__ import annotations``, so an
annotation is a string that nothing evaluates: a name deleted from a
module can stay behind in a signature unnoticed.  ``typing.get_type_hints``
evaluates every function's and method's annotations against its module.
"""

from __future__ import annotations

import importlib
import inspect
import typing
from functools import cached_property
from pathlib import Path

import magictrap
import oracles

MODULES = sorted(path.stem for path in Path(magictrap.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


def _functions(module):
    """(qualified name, function) of each function ``module`` defines, and
    of each method, classmethod, staticmethod and property of its classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class and static methods
                member = getattr(member, "fget", getattr(member, "func", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(inspect.unwrap(obj)):
            yield name, obj


def test_every_annotation_resolves():
    assert len(MODULES) == 12
    resolved = []
    modules = [importlib.import_module(f"magictrap.{m}") for m in MODULES]
    for module in [*modules, oracles]:
        for name, fn in _functions(module):
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                raise AssertionError(f"{module.__name__}.{name}: {exc}") from None
            resolved.append(name)
    assert len(resolved) > 250
