"""Every function that the benchmark's in-process tracer patches exists.

``perfbench/tracer.py`` names its targets as (layer, module, attribute)
triples and patches them from outside the package.  A rename inside the
package must fail here, not in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,module,attr", _tracer().TARGETS)
def test_traced_name_resolves(layer, module, attr):
    owner = importlib.import_module(f"hydrobrackets.{module}")
    if "." in attr:  # the tracer patches the method in the class dict
        cls, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_is_zero_verdict_has_the_name_the_tracer_reads():
    from hydrobrackets.expr import Expr, is_zero

    assert is_zero(Expr.var("u1")).name == "NONZERO"
    assert is_zero(Expr.const(0)).name == "ZERO"
