"""The library keeps no name that only the tests read and takes no
parameter that only the tests set: every public module-level name that
``src/hyhlab`` defines is read by some file of the package, ``scripts/`` or
``bench/`` (as a name, an attribute or an import), and every defaulted
parameter of a package function is passed by some call in those files.
A fixture or helper that only the tests need lives under ``tests/``."""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyhlab"
READERS = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
           *(ROOT / "bench").glob("*.py")]

# the exceptions that ROADMAP aim 2 keeps on purpose
READ_ONLY_BY_TESTS = {
    # the reference that xor_keystream is tested against
    "hyh.keystream",
    # the honest applicant's path: no staged run has an honest applicant,
    # and without it the strict CA would refuse every applicant
    "attacks.make_possession_proof",
    # package metadata
    "__init__.__version__",
}
SET_ONLY_BY_TESTS = {
    "attacks.ca_issue(possession_proof=)",  # the honest applicant's path
}


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _targets(node) -> list[str]:
    """The names a module-level assignment binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for elt in node.elts for name in _targets(elt)]
    return []


def _defined_names() -> set[str]:
    """``module.name`` for every public name a package module binds at its
    top level by ``def``, ``class`` or assignment."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [name for target in node.targets for name in _targets(target)]
            elif isinstance(node, ast.AnnAssign):
                bound = _targets(node.target)
            else:
                bound = []
            names |= {f"{path.stem}.{name}" for name in bound if _is_public(name)}
    return names


def _read_names() -> set[str]:
    """Every identifier the readers load as a name or an attribute, or
    import; the last part of a dotted import."""
    names = set()
    for path in READERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _defaulted_parameters():
    """(``module.function(parameter=)``, function name, parameter name, its
    position in a call, or None for a keyword-only one) for every parameter
    with a default of every package function; a method's position counts
    from the first argument after ``self``."""
    for path in PACKAGE.glob("*.py"):
        tree = _tree(path)
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(fn) in methods else 0
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for param, position in params:
                yield f"{path.stem}.{fn.name}({param}=)", fn.name, param, position


def _calls() -> dict[str, list[ast.Call]]:
    """The readers' calls, by the called name or attribute."""
    calls = {}
    for path in READERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether call passes param, by keyword, at its position, or through a
    ``*`` or ``**`` unpacking that could hold it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred)
                                            for arg in call.args)


def _only_allowed(found: set[str], allowed: set[str]) -> tuple[list, list]:
    """What found holds beyond the allowance, and the allowed entries it no
    longer holds: both empty when the rule is kept."""
    return sorted(found - allowed), sorted(allowed - found)


def test_every_public_name_is_read_outside_the_tests():
    read = _read_names()
    unread = {name for name in _defined_names() if name.partition(".")[2] not in read}
    assert _only_allowed(unread, READ_ONLY_BY_TESTS) == ([], [])


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = _calls()
    unpassed = {key for key, fn, param, position in _defaulted_parameters()
                if not any(_passes(call, param, position) for call in calls.get(fn, []))}
    assert _only_allowed(unpassed, SET_ONLY_BY_TESTS) == ([], [])
