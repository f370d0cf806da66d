"""The benchmark's tracer patches names in poseprior's modules from outside.

If a refactor drops or moves one of those names, installing the tracer
fails; this test makes that show up in the unit suite.
"""

import importlib.util
from pathlib import Path

import poseprior
import poseprior.cli  # noqa: F401  (imports every module the tracer patches)

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_modules():
    tracing = load_tracing()
    before = tracing.module_state(poseprior)
    tracer = tracing.Tracer()
    try:
        tracer.install(poseprior)
        assert tracing.module_state(poseprior) != before
    finally:
        tracer.uninstall()
    assert tracing.module_state(poseprior) == before
