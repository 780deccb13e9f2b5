"""Each demo prints the same bytes as when its digest was taken.

The demos run in-process, as tests/test_reach.py runs them; a demo with no
digest here fails, so a new demo is pinned when it lands.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "factorization_tour": "539fe63a5ff661ea5a919b99a13e0c3e07cbee4a8b2d7499c5e67bef9056068c",
    "hull_walkthrough": "47a3a1ffd4add9655451fc5ea422e19920234a2d7bf7f9218618e76a509707d0",
    "lcd_catalog_tour": "46d7534f47fe9e97af884f7b57a171e815a29981c0eb1bb3abc48494d9dcf9dc",
}


@pytest.mark.parametrize("name", sorted(demo.stem for demo in DEMOS.glob("*.py")))
def test_stdout_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256.get(name)
