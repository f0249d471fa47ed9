"""The traced benchmark run (``benchmarks/tracer.py``) swaps wrappers onto
the module attributes listed in its ``TARGETS`` and unpacks what
``build_field`` returns.  These checks read that table without changing it,
so that tidying away a name the tracer patches fails here rather than as an
``AttributeError`` in ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from suslov.algebra import ConstraintSet
from suslov.cases import CaseKind, CaseSpec, build_field
from suslov.model import LinearPotential, MassTensor, ZeroPotential

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves():
    missing = [
        f"suslov.{module}.{attr}"
        for module, attr, _, _ in tracer_targets()
        if not callable(getattr(importlib.import_module(f"suslov.{module}"),
                                attr, None))
    ]
    assert not missing, f"names the tracer wraps are gone: {missing}"


@pytest.mark.parametrize(
    "spec",
    [
        CaseSpec(CaseKind.KHARLAMOVA_ND, 4, MassTensor(diag=[1.0, 2.0, 3.0, 1.5]),
                 LinearPotential([1.0, 0.7, -0.4, 0.0])),
        CaseSpec(CaseKind.SUSLOV_FREE, 3, MassTensor(diag=[1.0, 2.0, 3.0]),
                 ZeroPotential(), constraint_axis=np.array([1.0, 1.0, 1.0])),
    ],
    ids=["reduced", "vector3d"],
)
def test_build_field_returns_field_and_constraints(spec):
    result = build_field(spec)
    assert isinstance(result, tuple) and len(result) == 2
    field, constraints = result
    assert callable(field)
    assert isinstance(constraints, ConstraintSet)
