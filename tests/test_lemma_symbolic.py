"""Symbolic audit of the tilted-set scalar chain.

The ring-generic layer of lemma_lab (_tilted_forms, _jet_rows,
w1_norm_identity) is plain arithmetic, so it runs on sympy symbols as it is:
these tests prove the relations of the chain instead of sampling them.
"""
import pytest

sympy = pytest.importorskip("sympy")

from hyperlab.lemma_lab import _MAPPING_KEYS, _jet_rows, _tilted_forms, w1_norm_identity  # noqa: E402

a, b, c, k3, w = sympy.symbols("alpha beta c k3 w", nonzero=True)


def test_relation_rows_vanish_on_the_pinned_forms_but_the_dichotomy():
    forms = _tilted_forms(a, b, c, k3)
    values = {key: value for key, value in forms.items() if key in _MAPPING_KEYS}
    rows = _jet_rows({**values, "alpha": a, "beta": b, "c": c, "kappa3": k3})
    assert len(rows) == 18
    dichotomy = rows.pop("k3-dichotomy")
    assert sympy.simplify(dichotomy - (b / a) * (c - 4 * a ** 2 - 2 * b ** 2) * k3) == 0
    assert {name: sympy.simplify(row) for name, row in rows.items()} == dict.fromkeys(rows, 0)


def test_xi_derivative_of_the_dichotomy_factor():
    # c is constant, so xi(factor) = d/dalpha(factor) xi(alpha) + d/dbeta(factor) xi(beta)
    forms = _tilted_forms(a, b, c, k3)
    factor = forms["factor"]
    xi_factor = (sympy.diff(factor, a) * forms["dalpha_xi"]
                 + sympy.diff(factor, b) * forms["dbeta_xi"])
    assert sympy.expand(sympy.diff(factor, a) + 8 * a) == 0
    assert sympy.expand(sympy.diff(factor, b) + 4 * b) == 0
    assert sympy.simplify(xi_factor + 16 * a * b * k3 * (2 * a ** 2 + b ** 2) / c) == 0
    assert sympy.expand(forms["sum_sq"] - (2 * a ** 2 + b ** 2)) == 0


def test_discriminant_of_the_norm_obligation():
    # f(alpha^2) = 16 alpha^2 |W1|^2 + 3 c^2 + 48 alpha^2 beta^2 by the norm identity,
    # so f must stay positive wherever W1 is a real field
    f = sympy.expand(w1_norm_identity(c, a, b, 0) + 3 * c ** 2 + 48 * a ** 2 * b ** 2)
    f = f.subs(a ** 4, w ** 2).subs(a ** 2, w)
    assert sympy.expand(f - (64 * w ** 2 + 60 * c * w + 12 * c * b ** 2)) == 0
    disc = sympy.discriminant(f, w)
    assert sympy.expand(disc - _tilted_forms(a, b, c)["discriminant"]) == 0
    assert sympy.factor(disc) == 48 * c * (75 * c - 64 * b ** 2)
