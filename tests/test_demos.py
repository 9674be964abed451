"""Each demo script runs to completion."""

from pathlib import Path

import pytest

from fixtures import run_python

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = run_python(str(ROOT / "demos" / demo))
    assert done.returncode == 0, done.stderr
