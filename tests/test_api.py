"""Every public name of the package, and every module-level function and
class of its modules, has a caller outside the tests, and every dataclass
field a reader there.

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
