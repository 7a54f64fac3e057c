"""Every public name of the package, and every module-level function and
class of its modules, has a caller outside the tests, every dataclass field
a reader there, and every defaulted parameter a caller there that sets it.

A function that only tests call is kept "for the API" and drifts from the
code path that produces the numbers, so the package defines only what the
library itself, the demos or the benchmark use.  The scan reads names from
the syntax tree: a load of a name or an attribute counts as a use, and so
does a string that is exactly the name (a lookup by name, such as the
benchmark tracer's table of wrapped functions); the ``def`` or ``class``
statement that defines it does not.
"""

import ast
import inspect
from pathlib import Path

import sgdlab
from sgdlab.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _callers() -> list[Path]:
    files = [p for p in (ROOT / "src" / "sgdlab").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    files += [p for p in (ROOT / "bench").glob("*.py") if p.name != "test_bench.py"]
    return sorted(files)


def _used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _used_outside_the_tests() -> set[str]:
    files = _callers()
    assert any(p.parent.name == "demos" for p in files)
    assert any(p.parent.name == "bench" for p in files)
    return set().union(*(_used_names(p) for p in files))


def test_every_export_is_used_outside_the_tests():
    used = _used_outside_the_tests()
    exports = [
        name for name in sgdlab.__all__ if not inspect.ismodule(getattr(sgdlab, name))
    ]
    unused = sorted(set(exports) - used)
    assert not unused, f"exported but called only by tests: {unused}"


def test_every_module_level_definition_is_used_outside_the_tests():
    used = _used_outside_the_tests()
    unused = []
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"defined but called only by tests: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_outside_the_tests():
    """A field nothing reads is carried, built and documented for no one.
    ``NamedTuple`` fields are exempt: ``streams.lockstep`` unpacks a kernel
    by position."""
    used = _used_outside_the_tests()
    unread = []
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [
                    f"{path.stem}.{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in used
                ]
    assert not unread, f"dataclass fields read only by tests: {unread}"


#: Defaulted parameters that only tests set, each to check a property.
TEST_KNOBS = {
    # test_anneal.py::test_clopper_pearson_quantile_equals_the_beta_ppf
    "_binomial_ci.level",
    # test_sde.py::test_gradient_flow_matches_exponential_decay
    "flow_knots.substeps",
    # test_engine.py::test_minibatch_chain_exits_follow_run_sgd
    "run_sgd.rng",
}


def _defaulted_parameters() -> dict[str, list[tuple[int | None, str]]]:
    """Module-level function name -> its defaulted parameters, each as
    (position, name); a keyword-only parameter has no position."""
    params: dict[str, list[tuple[int | None, str]]] = {}
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            found += [
                (None, a.arg)
                for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            if found:
                params.setdefault(node.name, []).extend(found)
    return params


def _keywords_of(kw: ast.keyword) -> set[str | None]:
    """The names a keyword argument of a call passes; None stands for any."""
    if kw.arg is not None:
        return {kw.arg}
    call = kw.value
    if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "library_kwargs":
        keys = [a.value for a in call.args if isinstance(a, ast.Constant)]
        if len(keys) == len(call.args):
            return set(ExperimentConfig("", dict.fromkeys(keys)).library_kwargs(*keys))
    return {None}


def _set_parameters(params: dict[str, list[tuple[int | None, str]]]) -> set[str]:
    """``function.parameter`` for every parameter of ``params`` that some
    call of that name outside the tests passes, by keyword or by position.
    The CLI's ``**cfg.library_kwargs(<key names>)`` passes the names the
    helper gives those keys; any other ``*args`` or ``**kwargs`` counts as
    passing every parameter of its kind."""
    passed = set()
    for path in _callers():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in params:
                continue
            keywords = set().union(*(_keywords_of(kw) for kw in node.keywords))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            for pos, param in params[name]:
                by_position = pos is not None and (starred or pos < len(node.args))
                if by_position or param in keywords or None in keywords:
                    passed.add(f"{name}.{param}")
    return passed


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A default that no caller outside the tests overrides is a second
    place to set one value: it becomes a literal in the function, unless a
    test varies it to check a property (``TEST_KNOBS``)."""
    params = _defaulted_parameters()
    every = {f"{name}.{param}" for name, found in params.items() for _, param in found}
    passed = _set_parameters(params)
    stale = sorted((TEST_KNOBS - every) | (TEST_KNOBS & passed))
    assert not stale, f"TEST_KNOBS entries that are gone or set outside the tests: {stale}"
    unset = sorted(every - passed - TEST_KNOBS)
    assert not unset, f"defaulted parameters set only by tests: {unset}"


def _is_infinity(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "inf"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("math", "np", "numpy")
    )


def test_only_the_argument_checks_compare_against_infinity():
    """The range rules of the arguments ("positive and finite", "non-negative
    and finite") live in ``errors.py``; a comparison against ``math.inf``
    anywhere else is a copy of one of them, free to drift from it."""
    copies = []
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                _is_infinity(side) for side in (node.left, *node.comparators)
            ):
                copies.append(f"{path.name}:{node.lineno}")
    assert not copies, f"argument rules written outside errors.py: {copies}"


def _path_streams_calls(path: Path) -> list[str]:
    """``file:line`` of every call of ``path_streams`` in ``path``, by name
    or as an attribute."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "path_streams":
                calls.append(f"{path.name}:{node.lineno}")
    return calls


def test_only_the_engine_builds_streams():
    """``streams.lockstep`` builds each path's stream from its seed, label
    and index; a module that builds streams itself and hands them on is a
    second place to choose a path's stream and its group."""
    calls = []
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        if path.name != "streams.py":
            calls += _path_streams_calls(path)
    assert not calls, f"streams built outside streams.py: {calls}"


def test_the_block_length_is_one_constant():
    """``streams.BLOCK_STEPS`` is the one block length: every caller used
    1024, and a ``block`` parameter on a function is a second place to set
    it, which each function would have to check on its own.  Tests vary the
    constant."""
    found = []
    for path in sorted((ROOT / "src" / "sgdlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                if any(a.arg == "block" for a in args.posonlyargs + args.args + args.kwonlyargs):
                    found.append(f"{path.stem}.{node.name}:{node.lineno}")
    assert not found, f"functions that take a block length: {found}"
