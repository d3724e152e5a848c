"""A ratchet against unreached IR: every operation a dialect module defines
is named by some other module of the package — a pass, the printer, the
interpreter, the planner, the code generator or the CSL front door.

An op that only its own dialect module and the tests mention is dead weight
the goldens cannot vouch for; delete it, or land it with its first user.
Module-private names (a leading underscore) are shared bases of the public
ops, which are checked in their place.
"""

import importlib
import inspect
import re
from pathlib import Path

import repro
from repro.ir.operation import Operation

PACKAGE = Path(repro.__file__).parent
DIALECTS = PACKAGE / "dialects"


def _ops_defined_in(path: Path) -> list[str]:
    module = importlib.import_module(f"repro.dialects.{path.stem}")
    return [
        name
        for name, value in vars(module).items()
        if inspect.isclass(value)
        and issubclass(value, Operation)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def test_every_dialect_op_is_named_outside_its_own_module():
    sources = {
        path: path.read_text(encoding="utf-8") for path in PACKAGE.rglob("*.py")
    }
    unreached = []
    for path in sorted(DIALECTS.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in _ops_defined_in(path):
            word = re.compile(rf"\b{name}\b")
            if not any(
                word.search(text) for other, text in sources.items() if other != path
            ):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"ops no other module names: {unreached}"
