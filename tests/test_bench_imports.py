"""The package's bench-only imports match the tracer's rebinding table.

A name imported into a module only so that ``bench/spans.py`` can rebind
it there carries the marker below.  ``SITES`` and ``COUNTED`` are read
from the bench script's source with ``ast``, so the script is neither
imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import semichord

MARKER = "# noqa: F401  (rebound here by bench/spans.py)"
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE = Path(semichord.__file__).resolve().parent


def _rows(table: str) -> list[tuple[str, str, str]]:
    """The (module, name, layer) rows of ``table`` in ``bench/spans.py``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == table for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no {table} assignment in {SPANS}")


def _marked_imports():
    """(module, name, other uses) for each marked import in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if lines[alias.lineno - 1].endswith(MARKER):
                        name = alias.asname or alias.name
                        yield path.stem, name, used.count(name)


def test_every_marked_import_is_a_traced_site_and_otherwise_unused():
    sites = {(module, name) for module, name, _ in _rows("SITES")}
    marked = list(_marked_imports())
    assert marked, "no marked imports found; delete this test with the last one"
    for module, name, uses in marked:
        assert (module, name) in sites, f"{module}.{name} is marked but not in SITES"
        assert uses == 0, f"{module}.{name} is marked but used {uses} times in {module}"


@pytest.mark.parametrize(
    "module, name, layer",
    _rows("SITES") + _rows("COUNTED"),
    ids=lambda value: value,
)
def test_every_traced_row_names_an_attribute_from_its_layer(module, name, layer):
    # The tracer rebinds semichord.<module>.<name> and files its spans
    # under <layer>, so the name must be bound there and defined in <layer>.
    target = getattr(importlib.import_module(f"semichord.{module}"), name, None)
    assert target is not None, f"semichord.{module} has no {name}"
    assert target.__module__ == f"semichord.{layer}", f"{module}.{name} is not from {layer}"
