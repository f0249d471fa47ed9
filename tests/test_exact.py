"""Exact checks of the field kernels on sympy symbols.

``model._reduced_rates`` and ``model._field_3d`` are elementwise
arithmetic, so they run unchanged on symbols, and so do the integrals of
``cases.first_integrals`` and ``model._energy`` on object arrays.  The
divergences and Lie derivatives they give simplify to exact zeros, with no
tolerance, or, for the free 3D case on a non-eigenvector axis, to a
nonzero rational function: the paper's measure statements, proved rather
than sampled.  Where the spec data enter as floats, they are exactly
representable, and the kernels get the same values as ``sympy.Rational``.
"""

import numpy as np
import pytest
import sympy as sp

from suslov.algebra import layout, packed_to_vector
from suslov.cases import CaseKind, CaseSpec, first_integrals
from suslov.model import (
    DGJPotential,
    LinearPotential,
    MassTensor,
    QuadraticPotential,
    _energy,
    _field_3d,
    _reduced_rates,
)

DIMS = [3, 4, 5]


def exact(expr):
    """``expr`` with each float replaced by the rational it holds exactly."""
    expr = sp.sympify(expr)
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


def exact_list(values):
    return [exact(v) for v in values]


def divergence(rates, chart):
    return sp.simplify(sum(sp.diff(r, x) for r, x in zip(rates, chart)))


def lie_derivative(f, rates, chart):
    """``d/dt f`` along the field ``rates`` in the coordinates ``chart``."""
    f = exact(f)
    return sp.simplify(sum(sp.diff(f, x) * r for r, x in zip(rates, chart)))


def object_mats(packed, n):
    """The skew matrix of a packed vector of symbols, in the layout of
    ``algebra.unpack_mats`` (which takes floats only)."""
    lay = layout(n)
    mat = np.zeros(n * n, dtype=object)
    mat[lay.upper] = packed
    mat[lay.lower] = [-x for x in packed]
    return mat.reshape(n, n)


def reduced_chart(n):
    """The reduced chart's symbols ``W_i = Omega_in`` (i < n) and ``G_i``,
    and its packed point: ``W`` in the column slots, zeros in the so(n-1)
    block, then ``Gamma``."""
    lay = layout(n)
    w, g = sp.symbols(f"W1:{n}"), sp.symbols(f"G1:{n + 1}")
    y = np.zeros(lay.k + n, dtype=object)
    y[lay.column] = w
    y[lay.k:] = g
    return w, g, y


def reduced_rates(inertia, potential, w, g):
    """The reduced kernel's rates on the chart ``(W, Gamma)``, with the pair
    sums and the potential's own gradient as rationals."""
    pair = exact_list((inertia.diag[:-1] + inertia.diag[-1]).tolist())
    col_dot, g_dot = _reduced_rates(list(w), list(g),
                                    exact_list(potential._point_gradient(g)), pair)
    return col_dot + g_dot


@pytest.mark.parametrize("family", ["linear", "quadratic"])
@pytest.mark.parametrize("n", DIMS)
def test_reduced_divergence_is_zero(n, family):
    # symbolic I and B: the measure dOmega_in dGamma is invariant for both
    # potential families, whatever the moments
    w, g = sp.symbols(f"W1:{n}"), sp.symbols(f"G1:{n + 1}")
    moments = sp.symbols(f"I1:{n + 1}", positive=True)
    b = sp.symbols(f"B1:{n + 1}")
    if family == "linear":
        v = sum(bi * gi for bi, gi in zip(b, g))
    else:
        v = sum(bi * gi**2 for bi, gi in zip(b, g)) / 2
    pair = [moments[i] + moments[-1] for i in range(n - 1)]
    col_dot, g_dot = _reduced_rates(list(w), list(g), [sp.diff(v, gi) for gi in g], pair)
    assert divergence(col_dot + g_dot, w + g) == 0


# exactly representable data: each (I_i + I_n) / B_i of Kharlamova's F_ij
# is a float with no rounding
INERTIA = {3: [1.0, 2.0, 3.0], 4: [1.0, 2.0, 1.5, 3.0], 5: [1.0, 2.0, 1.5, 0.5, 3.0]}
KHARLAMOVA_B = {3: [2.0, -0.5, 0.0], 4: [2.0, -0.5, 4.0, 0.0],
                5: [2.0, -0.5, 4.0, 0.25, 0.0]}


def case_spec(kind, n):
    if kind is CaseKind.KHARLAMOVA_ND:
        return CaseSpec(kind, n, MassTensor(diag=INERTIA[n]),
                        LinearPotential(KHARLAMOVA_B[n]))
    return CaseSpec(kind, n, MassTensor(diag=[1.5] * (n - 1) + [2.5]),
                    LinearPotential([0.0] * (n - 1) + [-0.75]))


@pytest.mark.parametrize("kind, prefix", [(CaseKind.KHARLAMOVA_ND, "F"),
                                          (CaseKind.LAGRANGE_ND, "L")],
                         ids=["kharlamova", "lagrange"])
@pytest.mark.parametrize("n", DIMS)
def test_reduced_field_keeps_each_case_integral(n, kind, prefix):
    spec = case_spec(kind, n)
    integrals = {label: fn for label, fn in first_integrals(spec).items()
                 if label != "energy"}
    assert sorted(integrals) == [f"{prefix}_{i + 1}_{j + 1}" for i in range(n - 1)
                                 for j in range(i + 1, n - 1)]
    w, g, y = reduced_chart(n)
    rates = reduced_rates(spec.inertia, spec.potential, w, g)
    for label, fn in integrals.items():
        assert lie_derivative(fn(y), rates, w + g) == 0, label


@pytest.mark.parametrize("family", [LinearPotential, QuadraticPotential])
@pytest.mark.parametrize("n", DIMS)
def test_reduced_field_keeps_the_energy(n, family):
    # every B_i nonzero, B_n too: each term of the kernel enters the balance
    inertia = MassTensor(diag=INERTIA[n])
    potential = family([0.5, -2.0, 1.25, 3.0, -0.75][:n])
    w, g, y = reduced_chart(n)
    k = layout(n).k
    e = _energy(object_mats(y[:k], n), y[k:], inertia, potential)
    assert lie_derivative(e, reduced_rates(inertia, potential, w, g), w + g) == 0


# the 3D constraint axes, exact: the eigenvector e3 and (1, 1, 1) / sqrt(3)
AXES = {"e3": (0, 0, 1), "diagonal": (1 / sp.sqrt(3),) * 3}


def plane_chart(a):
    """Symbols ``(w1, w2)`` and the admissible ``w``, with ``w3`` solved from
    ``<a, w> = 0`` (``a3 != 0``).  The chart is linear, so a divergence in
    it equals the one in any linear chart of the plane, such as the
    orthonormal one of ``model.packed_suslov3d_field``."""
    w1, w2 = sp.symbols("w1 w2", real=True)
    return (w1, w2), (w1, w2, -(a[0] * w1 + a[1] * w2) / a[2])


def field_3d(w, g, d, j, a, eps):
    den = sum(ai * (ai / ji) for ai, ji in zip(a, j))  # <a, J^-1 a>
    return _field_3d(w, g, d, j, a, den, eps)


@pytest.mark.parametrize("axis", AXES)
def test_free_3d_divergence(axis):
    # free motion: zero for the eigenvector axis; for (1, 1, 1) / sqrt(3), a
    # rational function of J and w that is nonzero unless the moments are
    # equal (then every axis is an eigenvector)
    a = AXES[axis]
    j = sp.symbols("J1:4", positive=True)
    (w1, w2), w = plane_chart(a)
    g = sp.symbols("G1:4", real=True)
    w_dot, g_dot = field_3d(w, g, (0, 0, 0), j, a, 0.0)
    div = divergence([w_dot[0], w_dot[1], *g_dot], (w1, w2, *g))
    if axis == "e3":
        assert div == 0
    else:
        assert div != 0 and div.is_rational_function(*j, w1, w2)
        assert div.subs({ji: 2 for ji in j}) == 0


@pytest.mark.parametrize("axis", AXES)
def test_3d_field_keeps_the_constraint_and_the_energy(axis):
    # V = <B, Gamma> and a symbolic gyroscopic eps: the reaction keeps
    # <a, w> = 0, and neither it nor the gyroscopic torque does work
    a = AXES[axis]
    inertia, potential = MassTensor(diag=[1.0, 2.0, 1.5]), LinearPotential([0.5, -2.0, 1.25])
    i1, i2, i3 = inertia.diag.tolist()
    j = exact_list([i2 + i3, i1 + i3, i1 + i2])
    (w1, w2), w = plane_chart(a)
    g = sp.symbols("G1:4", real=True)
    eps = sp.Symbol("eps")
    w_dot, g_dot = field_3d(w, g, exact_list(potential._point_gradient(g)), j, a, eps)
    assert sp.simplify(sum(ai * wi for ai, wi in zip(a, w_dot))) == 0
    packed = packed_to_vector(np.array(w, dtype=object))
    e = _energy(object_mats(packed, 3), np.array(g, dtype=object), inertia, potential)
    assert lie_derivative(e, [w_dot[0], w_dot[1], *g_dot], (w1, w2, *g)) == 0


@pytest.mark.parametrize("n", DIMS)
def test_reduced_field_keeps_each_clebsch_integral(n):
    # dyadic data: every pair sum I_i + I_n and gap B_i - B_n is exact
    spec = CaseSpec(CaseKind.CLEBSCH_TISSERAND_ND, n, MassTensor(diag=INERTIA[n]),
                    QuadraticPotential([5.0, 4.5, 3.25, 2.5, 1.0][-n:]))
    integrals = {label: fn for label, fn in first_integrals(spec).items()
                 if label != "energy"}
    assert sorted(integrals) == [f"F_{i + 1}" for i in range(n - 1)]
    w, g, y = reduced_chart(n)
    rates = reduced_rates(spec.inertia, spec.potential, w, g)
    for label, fn in integrals.items():
        # F(y)[..., i] of a point is a 0-d object array, which sp.diff rejects
        assert lie_derivative(fn(y).item(), rates, w + g) == 0, label


def dgj_fixture():
    # polynomials with dyadic coefficients, on floats, arrays and symbols
    return DGJPotential(
        lambda x, y: x * y + 0.5 * x * x, lambda x, y: (y + x, x),
        lambda x, y: x * x * x - 0.25 * y, lambda x, y: (3.0 * x * x, -0.25),
    )


# moments whose J = (I2 + I3, I1 + I3, I1 + I2) are powers of two, so the
# kernel's quotients and the integrals' coefficients are exact
CASES_3D = {
    "lagrange_momentum": (CaseKind.LAGRANGE_3D, [0.5, 0.5, 1.5],
                          LinearPotential([0.0, 0.0, -0.75])),
    "kharlamova_momentum": (CaseKind.KHARLAMOVA_3D, [1.5, 0.5, 0.5],
                            LinearPotential([0.5, -2.0, 0.0])),
    "clebsch_quadratic": (CaseKind.CLEBSCH_TISSERAND_3D, [1.5, 0.5, 0.5],
                          QuadraticPotential([0.25, 0.5, 0.5])),
    "dgj_integral": (CaseKind.DGJ_3D, [1.5, 0.5, 0.5], None),
}


@pytest.mark.parametrize("label", CASES_3D)
def test_3d_field_keeps_each_case_integral(label):
    kind, moments, potential = CASES_3D[label]
    spec = CaseSpec(kind, 3, MassTensor(diag=moments), potential or dgj_fixture())
    fn = first_integrals(spec)[label]
    a = AXES["e3"]
    (w1, w2), w = plane_chart(a)
    g = sp.symbols("G1:4", real=True)
    w_dot, g_dot = field_3d(w, g, exact_list(spec.potential._point_gradient(g)),
                            exact_list(spec.j_diag.tolist()), a, 0.0)
    # the packed point of w = (-X_23, X_13, -X_12): X_12 = -w3 = 0 on e3
    y = np.array([0, w2, -w1, *g], dtype=object)
    assert lie_derivative(fn(y), [w_dot[0], w_dot[1], *g_dot], (w1, w2, *g)) == 0
