"""Every def in the library is run by a caller, or is listed here with why not.

The callers are the README (its console session, each command also with
`--json`, which the README says every command accepts, and its Library
blocks, run in order in one namespace), the three demos and the CLI's
error paths.  They run under `sys.setprofile`, and the functions entered
are compared with the defs that `ast` finds in `src/z4lcd/*.py`.  A def that no caller reaches is dead code
or a second spelling of something the callers already run; it must either
go or be listed in ALLOWED_UNREACHED with its reason.
"""

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

import z4lcd
from z4lcd import cli

from test_readme import SESSION, _blocks

PACKAGE = Path(z4lcd.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

ALLOWED_UNREACHED = {
    "cli._WholeWrites.write": "runs only when stdout is an unbuffered file; the callers capture "
                              "stdout in-process (tests/test_cli.py runs it in a subprocess)",
    "codes.spec_to_wire": "called by the verify sweep for a mismatch only, which correct code never has",
    "cyclotomic.mult_order_of_2": "patched by name in the benchmark tracer",
    "z4poly.Z4Poly.divmod_monic": "patched by name in the benchmark tracer",
}


def defined_functions():
    """{(path, first line): dotted name} for each non-dunder def of the package.

    The first line is that of the first decorator, as in `co_firstlineno`.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, path, f"{name}.")

    for source in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(source.read_text()), str(source), f"{source.stem}.")
    return found


def clear_package_caches():
    """Empty every cache of the package: a value an earlier test cached hides its build."""
    for name, module in list(sys.modules.items()):
        if name == "z4lcd" or name.startswith("z4lcd."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_callers():
    """Run every caller with output captured; return (path, first line) of each code entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    clear_package_caches()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in SESSION:
                assert cli.main(argv) == 0
                assert cli.main(argv + ["--json"]) == 0
            exec("".join(_blocks("Library", "python")), {})
            for demo in sorted(DEMOS.glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            assert cli.main(["hull", "7", "--f="]) == cli.EXIT_USAGE
            missing = str(Path(__file__).resolve().parent / "no-such-config.json")
            assert cli.main(["verify", "3", "--config", missing]) == cli.EXIT_USAGE
    finally:
        sys.setprofile(previous)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}


def test_unreached_defs_are_exactly_the_allowlist():
    defined = defined_functions()
    reached = run_callers()
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == set(ALLOWED_UNREACHED)
