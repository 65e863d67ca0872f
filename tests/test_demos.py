import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # the warning policy of pyproject's filterwarnings, applied to the demo's own process
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                          str(script)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
