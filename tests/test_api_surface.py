"""Locks the supported public surface of :mod:`repro.api`.

The snapshot at ``tests/fixtures/api_surface.txt`` is the covenant: one
``name kind`` pair per line for every entry in ``repro.api.__all__``.
Adding to the surface means updating the snapshot in the same change
(deliberately); removing or re-typing a name fails this test until the
snapshot says so too.  Regenerate with::

    PYTHONPATH=src python tests/test_api_surface.py --regen
"""

import ast
import inspect
import sys
from pathlib import Path

import repro.api as api

SNAPSHOT = Path(__file__).parent / "fixtures" / "api_surface.txt"


def surface_lines() -> list[str]:
    """The current surface as sorted ``name kind`` lines."""
    lines = []
    for name in sorted(api.__all__):
        obj = getattr(api, name)
        if inspect.isclass(obj):
            kind = "class"
        elif inspect.isfunction(obj):
            kind = "function"
        else:
            kind = type(obj).__name__
        lines.append(f"{name} {kind}")
    return lines


def test_all_is_sorted_and_complete():
    assert list(api.__all__) == sorted(api.__all__), \
        "__all__ must stay sorted for diffable snapshots"
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing, f"__all__ names not importable: {missing}"


def test_star_import_exposes_exactly_all():
    namespace = {}
    exec("from repro.api import *", namespace)
    exported = {name for name in namespace if not name.startswith("_")}
    exported.discard("__builtins__")
    assert exported == set(api.__all__)


def test_surface_matches_snapshot():
    recorded = SNAPSHOT.read_text().splitlines()
    current = surface_lines()
    assert current == recorded, (
        "repro.api surface drifted from tests/fixtures/api_surface.txt.\n"
        "If the change is intentional, regenerate the snapshot:\n"
        "  PYTHONPATH=src python tests/test_api_surface.py --regen\n"
        f"added: {sorted(set(current) - set(recorded))}\n"
        f"removed: {sorted(set(recorded) - set(current))}")


def test_facade_has_no_unlisted_public_names():
    unlisted = [
        name for name in dir(api)
        if not name.startswith("_")
        and name not in api.__all__
        and not inspect.ismodule(getattr(api, name))
    ]
    assert not unlisted, f"public but not in __all__: {unlisted}"


def _body_after_docstring(tree: ast.Module) -> list[str]:
    """Each statement past the docstring, as a short comparable string."""
    body = tree.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    described = []
    for node in body:
        if isinstance(node, ast.ImportFrom):
            names = ", ".join(sorted(a.name for a in node.names))
            described.append(f"from {node.module} import {names}")
        elif isinstance(node, ast.Assign):
            described.append(
                " = ".join(ast.unparse(t) for t in node.targets) + " = ...")
        else:
            described.append(ast.unparse(node).split("\n")[0])
    return described


def test_api_is_the_only_facade():
    """repro.api is the one module that re-exports.  Every other package
    ``__init__`` holds its docstring and nothing else, so a name outside
    the facade has exactly one import path: the module that defines it."""
    package_root = Path(api.__file__).resolve().parent.parent
    allowed = {
        "__init__.py": ["__version__ = ..."],
        "workloads/__init__.py": [
            "from repro.workloads.catalog import "
            "SCALES, WORKLOAD_NAMES, build_workload"],
    }
    offenders = {}
    for init in sorted(package_root.rglob("__init__.py")):
        rel = init.relative_to(package_root).as_posix()
        if rel == "api/__init__.py":
            continue
        body = _body_after_docstring(ast.parse(init.read_text()))
        if body != allowed.get(rel, []):
            offenders[rel] = body
    assert not offenders, (
        "only repro.api may re-export; import names from their defining "
        f"module instead: {offenders}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        SNAPSHOT.write_text("\n".join(surface_lines()) + "\n")
        print(f"wrote {SNAPSHOT}")
    else:
        print("\n".join(surface_lines()))
