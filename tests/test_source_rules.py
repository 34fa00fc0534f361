"""Rules on the library source that the test suite enforces."""

import ast
from pathlib import Path

import commgrowth


def test_no_assert_in_library():
    # python -O strips assert statements, so a runtime check of the
    # library must raise explicitly
    sources = sorted(Path(commgrowth.__file__).parent.glob("*.py"))
    assert {"cli.py", "commgraph.py", "root_systems.py"} <= {p.name for p in sources}
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
