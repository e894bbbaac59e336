"""The package stays pure Python with no runtime dependencies.

numpy, scipy and hypothesis may well be installed next to it as dev-time
tools, so an import of one of them would pass every other test.  This guard
reads the import statements of each module instead of running them.
"""

import ast
import sys
from pathlib import Path

import modulicones

MODULES = sorted(Path(modulicones.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """``(line, top-level module)`` of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    assert len(MODULES) > 1
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in MODULES
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert foreign == []
