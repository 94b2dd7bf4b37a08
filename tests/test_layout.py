"""The package exports what the program runs, and the paper's checks.

Every name that `wreathkit/__init__.py` imports from a submodule must be used
by `src/` outside `__init__` or by `bench/` (a call, an import, or a
`module:Qual.name` target that the bench's tracer wraps), or be one of the
paper checks below, which only the tests run.  So API that only tests call
cannot come back into `src/` unnoticed.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wreathkit"

PAPER_CHECKS = {
    "build_layered_presentation",
    "build_slow_gamma",
    "census_from_blocks",
    "matrix_unit_generation_check",
    "nilpotent_host_embedding_check",
    "unipotent_inverse",
    "unit_row_projection",
}


def names_used(path):
    """The identifiers a file reads or imports, and the parts of every
    `module:Qual.name` string in it."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+:[\w.]+", node.value):
                used.update(re.split(r"[:.]", node.value))
    return used


def test_every_export_is_run_by_the_program_or_is_a_paper_check():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path.name != "__init__.py":
            used |= names_used(path)
    assert PAPER_CHECKS <= exported
    assert sorted(exported - used - PAPER_CHECKS) == []
