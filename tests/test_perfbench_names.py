"""The benchmark tracer wraps crackfill functions by name from outside the
package; every name it wraps must still exist, or ``--trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from crackfill import cli
from crackfill import io as cfio

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for name, (modname, attr, _) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_every_traced_writer_is_in_io(tracing):
    for attr in tracing.IO_WRITERS:
        assert callable(getattr(cfio, attr, None)), attr


def test_the_pool_the_tracer_wraps_is_the_cli_pool():
    assert isinstance(cli.ProcessPoolExecutor, type)

