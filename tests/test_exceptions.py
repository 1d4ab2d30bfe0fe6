"""An exception class earns its place only where code catches it apart from
its base: every exception class a hyhlab module defines is named in some
``except`` clause of the package's source."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import hyhlab

PACKAGE = pathlib.Path(hyhlab.__file__).parent


def _defined_exceptions() -> set[str]:
    names = set()
    for info in pkgutil.iter_modules(hyhlab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"hyhlab.{info.name}")
        names |= {name for name, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException)
                  and cls.__module__ == module.__name__}
    return names


def _handler_names(node) -> set[str]:
    """The names an except clause's type expression catches; for a dotted
    name such as ``hyh.Refused``, its last attribute."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_handler_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _handlers():
    """(file name, except clause) for every handler in the package's source."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                yield path.name, node


def _caught_names() -> set[str]:
    return set().union(*(_handler_names(node.type) for _, node in _handlers()))


def test_every_exception_class_is_caught_somewhere():
    assert sorted(_defined_exceptions() - _caught_names()) == []


def test_no_handler_names_two_exception_classes_of_the_package():
    # two classes that one handler treats alike are one class
    defined = _defined_exceptions()
    shared = [(name, node.lineno) for name, node in _handlers()
              if len(_handler_names(node.type) & defined) > 1]
    assert shared == []
