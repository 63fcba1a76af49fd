"""Every exception the package raises is a QswlabError, which the CLI maps to
its documented exit code (2 for usage or domain errors, 3 for numerical
failure), or a click.UsageError, which exits 2."""
import ast
import importlib
from pathlib import Path

import click
import pytest

import qswlab
from qswlab.exceptions import QswlabError

MODULES = sorted(Path(qswlab.__file__).parent.glob("*.py"))


def raised_classes(path: Path):
    """(line, source, class) for each `raise X` or `raise X(...)` in the
    module at path, with X looked up in the module's namespace; class is
    None when X is not a class there. A bare re-raise is skipped."""
    module = importlib.import_module(f"qswlab.{path.stem}")
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        source = ast.unparse(target)
        cls = module
        for name in source.split("."):
            cls = getattr(cls, name, None)
        yield node.lineno, source, cls if isinstance(cls, type) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_a_package_error(path):
    bad = [f"{path.name}:{line}: raise {source}"
           for line, source, cls in raised_classes(path)
           if cls is None or not issubclass(cls, (QswlabError, click.UsageError))]
    assert not bad, bad
