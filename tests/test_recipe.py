"""The 19-file toy-world recipe (tests/recipe.py) against its sha256 manifest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

RECIPE = Path(__file__).with_name("recipe.py")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_recipe_outputs_match_manifest(threads):
    # a child process: OPENBLAS_NUM_THREADS only takes effect before numpy loads
    proc = subprocess.run([sys.executable, str(RECIPE), "--check"], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert proc.returncode == 0 and "19 of 19 files match" in proc.stdout, (
        f"tests/recipe.py --check at {threads} BLAS threads exited {proc.returncode}:\n"
        f"{proc.stdout}{proc.stderr}")
