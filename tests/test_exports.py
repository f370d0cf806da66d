"""Every name a module lists in ``__all__`` exists, so ``from module import *`` works."""

import importlib
import pkgutil

import pytest

import poseprior

MODULES = sorted(info.name for info in pkgutil.iter_modules(poseprior.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"poseprior.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_names_exist():
    assert [n for n in poseprior.__all__ if not hasattr(poseprior, n)] == []
