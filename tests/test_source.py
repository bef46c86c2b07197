"""Source hygiene of the package: no module imports a name it never uses
(``__init__`` is left out, because its imports are the public API), and
every Python example in the README runs.
"""

import ast
import re
from pathlib import Path

import spindeq

PACKAGE = Path(spindeq.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_readme_python_block_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) >= 3
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
