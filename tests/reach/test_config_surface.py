"""The configuration surface: the one environment variable the package reads.

Every choice a caller makes is an argument.  The only value read from the
environment is ``REPRO_CACHE_DIR``, the store's deployment path, and it is
read in one function.  An environment read anywhere else under
``src/repro`` — ``os.environ``, ``os.getenv``, or either imported from
``os`` — fails here.
"""

import ast
import inspect
from pathlib import Path

from repro.service import cache

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _environment_accesses(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualname, source) of every environment access in one module."""
    found = []

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, SCOPES):
                inner = (
                    child.name if qualname == "<module>"
                    else f"{qualname}.{child.name}"
                )
            names = ()
            if isinstance(child, ast.Attribute):
                names = (child.attr,)
            elif isinstance(child, ast.Name):
                names = (child.id,)
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                names = tuple(alias.name for alias in child.names)
            if ENVIRONMENT.intersection(names):
                found.append((inner, ast.unparse(child)))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_the_cache_directory_is_the_only_environment_read():
    accesses = [
        (str(path.relative_to(PACKAGE.parent)), qualname, source)
        for path in sorted(PACKAGE.rglob("*.py"))
        for qualname, source in _environment_accesses(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert accesses == [
        ("repro/service/cache.py", "resolve_cache_directory", "os.environ")
    ]
    assert cache.REPRO_CACHE_DIR_ENV == "REPRO_CACHE_DIR"
    assert "os.environ.get(REPRO_CACHE_DIR_ENV" in inspect.getsource(
        cache.resolve_cache_directory
    )


def test_the_walk_sees_every_form_of_read():
    source = (
        "import os\n"
        "from os import getenv\n"
        "def f():\n"
        "    return os.environ['A'], os.getenv('B'), getenv('C')\n"
    )
    assert _environment_accesses(ast.parse(source)) == [
        ("<module>", "from os import getenv"),
        ("f", "os.environ"),
        ("f", "os.getenv"),
        ("f", "getenv"),
    ]
