"""The import layers: the compiler and the simulator import nothing above
them.

``repro.ir``, ``dialects``, ``transforms``, ``frontends``, ``backend``,
``csl`` and ``wse`` are the layers a stencil program passes through on its
way to a simulated run; ``repro.service`` (stores, queue, CLI) and
``repro.eval`` (the paper's figures and the cycle model behind them) are
built on top of them.  An import of either from a lower layer — at module
level or inside a function, absolute or relative — fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
LOWER = ("ir", "dialects", "transforms", "frontends", "backend", "csl", "wse")
UPPER = ("repro.service", "repro.eval")


def _imported(tree: ast.Module, package: str) -> list[str]:
    """Every module name a source file of ``package`` imports (``from a
    import b`` names both ``a`` and ``a.b``; relative imports are resolved
    against ``package``)."""
    parts = package.split(".")
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def _upward(tree: ast.Module, package: str) -> list[str]:
    return sorted({
        name
        for name in _imported(tree, package)
        for upper in UPPER
        if name == upper or name.startswith(upper + ".")
    })


def test_no_lower_layer_imports_the_service_or_the_evaluation():
    found = [
        (str(path.relative_to(PACKAGE.parent)), name)
        for layer in LOWER
        for path in sorted((PACKAGE / layer).rglob("*.py"))
        for name in _upward(
            ast.parse(path.read_text(encoding="utf-8")),
            ".".join(path.parent.relative_to(PACKAGE.parent).parts),
        )
    ]
    assert found == []


def test_every_lower_layer_is_a_package():
    assert all((PACKAGE / layer / "__init__.py").is_file() for layer in LOWER)


def test_the_walk_sees_every_form_of_import():
    source = (
        "import repro.service.cache\n"
        "from repro.eval import report\n"
        "from repro import service\n"
        "from ..eval.perf_model import estimate_performance\n"
        "from . import codegen\n"
        "def f():\n"
        "    from repro.service.kernels import KernelSourceStore\n"
    )
    assert _upward(ast.parse(source), "repro.wse") == [
        "repro.eval",
        "repro.eval.perf_model",
        "repro.eval.perf_model.estimate_performance",
        "repro.eval.report",
        "repro.service",
        "repro.service.cache",
        "repro.service.kernels",
        "repro.service.kernels.KernelSourceStore",
    ]
