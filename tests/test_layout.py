"""The package exports what the program runs, and the paper's checks; the
tests start an interpreter only where the process boundary is what they test.

Every name that `wreathkit/__init__.py` imports from a submodule must be used
by `src/` outside `__init__` or by `bench/` (a call, an import, or a
`module:Qual.name` target that the bench's tracer wraps), or be one of the
paper checks below, which only the tests run.  So API that only tests call
cannot come back into `src/` unnoticed.

Every other CLI test runs `cli.main` in process through `helpers.run_main`,
so the functions of `tests/` that name `subprocess` or `sys.executable` are
exactly the ones in `PROCESS_TESTS`.
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

PROCESS_TESTS = {
    "test_acceptance.py::test_criterion_growth_exactness",  # byte-stable across hash seeds
    "test_io_cli.py::test_cli_byte_stable",  # byte-stable across hash seeds
    "test_io_cli.py::test_cli_process_boundary",  # exit 0, 1, 2 and a usage error
    "test_io_cli.py::test_python_dash_m_package_runs_the_cli",
    "test_io_cli.py::test_cli_import_leaves_mpmath_out",
    "test_io_cli.py::test_cli_sandwich_leaves_mpmath_out",
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


def starts_a_process(node):
    """Whether the code under node names `subprocess` or `sys.executable`
    (`import subprocess` alone does not; `from subprocess import ...` does)."""
    return any(
        (isinstance(n, ast.Name) and n.id == "subprocess")
        or (isinstance(n, ast.Attribute) and n.attr == "executable"
            and isinstance(n.value, ast.Name) and n.value.id == "sys")
        or (isinstance(n, ast.ImportFrom) and n.module == "subprocess")
        for n in ast.walk(node)
    )


def test_only_the_process_tests_start_an_interpreter():
    found = {
        f"{path.name}::{getattr(node, 'name', 'module level')}"
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if starts_a_process(node)
    }
    assert sorted(found) == sorted(PROCESS_TESTS)
