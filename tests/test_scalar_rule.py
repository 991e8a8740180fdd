"""One rule for an outside scalar: checks.finite at every entry point that takes one, and
its integer twin, checks.integer, at every entry point that takes a count or a seed.

Each entry point below reads every scalar it is given through checks.finite, so a
hostile value is refused with the entry point's own ValueError subclass and a
one-line message that names the argument, never with a bare TypeError or
OverflowError, and never echoing the digits of a huge int.  Where a scalar is
bounded (c of a model and of a context, a jet's alpha, beta and c) a value past
SCALAR_MAX is refused as well.  A bool, a value that is not an integer and one below the
argument's floor is refused the same way where an integer is due.
"""
import math

import numpy as np
import pytest

from hyperlab import (
    CatalogError,
    CurvatureContext,
    JetError,
    LocalJet,
    ModelSpec,
    StructuralError,
    alpha_zero_commutator_norm,
    canonical_structure,
    consistent_jet,
    contradiction_certificate,
    instantiate,
    jet_from_mapping,
    random_context,
    random_gram,
    random_hopf_context,
    random_structure,
    riccati_shape_evolution,
)
from hyperlab.checks import SCALAR_MAX, finite, integer
from hyperlab.lemma_lab import _MAPPING_KEYS, _slot

# (id, value, the message that refuses it, {} standing for the argument's name)
HOSTILE = [
    ("bool", True, "{} must be a number, got True"),
    ("int-1e400", 10 ** 400, "{} is an int too large for a float"),
    ("str", "abc", "{} must be a number, got 'abc'"),
    ("list", [1.0], "{} must be a number, got [1.0]"),
    ("nan", math.nan, "{} must be finite, got nan"),
    ("-inf", -math.inf, "{} must be finite, got -inf"),
]
# past the bound, with the sign an otherwise valid value has
OVER = [("2e50", 2e50, "{} = 2e+50 exceeds 1e+50 in magnitude"),
        ("1e300", 1e300, "{} = 1e+300 exceeds 1e+50 in magnitude")]
NEGATIVE_OVER = [(f"-{i}", -v, m.replace(" = ", " = -")) for i, v, m in OVER]
TILTED = {"alpha": 2.0, "beta": 0.5, "c": 4.0}
RICCATI = {"kappa": 1.0, "r": 1.0, "r0": 0.01, "lambda0": 1.0, "step": 1e-3}


def _riccati(name, value):
    a = {**RICCATI, name: value}
    return riccati_shape_evolution(a["kappa"], a["r"], (a["r0"], a["lambda0"]), step=a["step"])


def _jet(key, value):
    """LocalJet with the field that the mapping key names set to value."""
    kwargs = {**TILTED, "d_alpha": {}, "d_beta": {}}
    entries, name = _slot(kwargs, key)
    entries[name] = value
    return LocalJet(**kwargs)


def _context(name, value):
    return CurvatureContext(canonical_structure(3), np.diag([1.0, 1.0, 2.0, 2.0, 1.0]), value)


def _certificate(name, value):
    return contradiction_certificate(**{**TILTED, "w1_norm_sq": 0.0, name: value})


# entry point -> (its error class, call(name, value), [(argument, values past the bound)])
ENTRY_POINTS = {
    "ModelSpec": (CatalogError, lambda name, value: (
        ModelSpec("CH", 3, "A0", c=value) if name == "c"
        else ModelSpec("CP", 3, "A1", radius=value)), [("c", NEGATIVE_OVER), ("radius", [])]),
    "riccati_shape_evolution": (ValueError, _riccati, [(name, []) for name in RICCATI]),
    "CurvatureContext": (StructuralError, _context, [("c", OVER + NEGATIVE_OVER)]),
    "LocalJet": (JetError, _jet, [(key, OVER if key in TILTED else [])
                                  for key in _MAPPING_KEYS]),
    "jet_from_mapping": (JetError, lambda key, value: jet_from_mapping({**TILTED, key: value}),
                         [(key, OVER if key in TILTED else []) for key in _MAPPING_KEYS]),
    "consistent_jet": (JetError, lambda name, value: consistent_jet(**{**TILTED, name: value}),
                       [(name, OVER if name in TILTED else [])
                        for name in (*TILTED, "kappa3")]),
    "contradiction_certificate": (JetError, _certificate,
                                  [(name, OVER if name in TILTED else [])
                                   for name in (*TILTED, "w1_norm_sq")]),
}
CASES = [pytest.param(entry, name, value, message, id=f"{entry}-{name}-{value_id}")
         for entry, (_, _, arguments) in ENTRY_POINTS.items()
         for name, over in arguments
         for value_id, value, message in HOSTILE + over]


def test_the_table_covers_every_scalar_of_every_entry_point():
    # ModelSpec 2, the oracle 5, the context 1, LocalJet and jet_from_mapping 20 each,
    # consistent_jet and the certificate 4 each
    assert [len(arguments) for _, _, arguments in ENTRY_POINTS.values()] == [2, 5, 1, 20, 20, 4, 4]
    assert SCALAR_MAX == 1e50


@pytest.mark.parametrize("entry, name, value, message", CASES)
def test_a_hostile_scalar_is_refused_by_name(entry, name, value, message):
    error, call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as caught:
        call(name, value)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(name)  # one line, no digits of 10**400


@pytest.mark.parametrize("value, message", [case[1:] for case in HOSTILE],
                         ids=[case[0] for case in HOSTILE])
def test_the_flat_tilt_norm_reads_c_through_the_context_and_beta_by_the_rule(value, message):
    for name, error, call in (("c", StructuralError, lambda v: alpha_zero_commutator_norm(v, 1.0)),
                              ("beta", JetError, lambda v: alpha_zero_commutator_norm(4.0, v))):
        with pytest.raises(ValueError) as caught:
            call(value)
        assert type(caught.value) is error
        assert str(caught.value) == message.format(name)


@pytest.mark.parametrize("value, number", [(3, 3.0), ("-2.5", -2.5), (np.float64(0.25), 0.25),
                                           (-1e50, -1e50), (np.int64(7), 7.0)])
def test_finite_reads_any_real_number_as_a_float(value, number):
    got = finite("x", value, ValueError, SCALAR_MAX)
    assert type(got) is float and got == number


SPEC = ModelSpec("CP", 3, "A1", radius=0.5)
HOSTILE_INTEGERS = [True, False, 3.0, 2.5, "3", None]


def _rng():
    return np.random.default_rng(0)


# entry point -> (its error class, the argument, its floor, call(value) returning what the
# value selects); no huge n here: the library builders have no cap (the CLI's is MAX_VERIFY_N)
INTEGER_ENTRY_POINTS = {
    "ModelSpec-n": (CatalogError, "n", 2, lambda v: ModelSpec("CP", v, "A1", radius=0.5).n),
    "ModelSpec-k": (CatalogError, "k", 0, lambda v: ModelSpec("CP", 5, "A2", radius=0.5, k=v).k),
    "canonical_structure": (StructuralError, "n", 2, lambda v: canonical_structure(v).n),
    "random_structure": (StructuralError, "n", 2, lambda v: random_structure(v, _rng()).n),
    "random_context": (StructuralError, "n", 2, lambda v: random_context(v, _rng()).acs.n),
    "random_hopf_context": (StructuralError, "n", 2,
                            lambda v: random_hopf_context(v, _rng()).acs.n),
    "random_gram": (StructuralError, "dim", 1, lambda v: len(random_gram(v, _rng()))),
    "instantiate": (CatalogError, "seed", 0,
                    lambda v: instantiate(SPEC, seed=v).ctx.shape_operator.tobytes()),
}
# None is ModelSpec's "no k", which only a family that requires a k refuses
INTEGER_CASES = [pytest.param(entry, value, id=f"{entry}-{value!r}")
                 for entry, (_, _, low, _) in INTEGER_ENTRY_POINTS.items()
                 for value in HOSTILE_INTEGERS + [low - 1]
                 if (entry, value) != ("ModelSpec-k", None)]


@pytest.mark.parametrize("entry, value", INTEGER_CASES)
def test_a_hostile_integer_is_refused_by_name(entry, value):
    error, name, low, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as caught:
        call(value)
    assert type(caught.value) is error
    assert str(caught.value) == f"{name} must be an integer >= {low}, got {value!r}"


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_a_numpy_integer_is_read_as_an_int(entry):
    got, want = (INTEGER_ENTRY_POINTS[entry][3](v) for v in (np.int64(3), 3))
    assert got == want and type(got) is type(want)


def test_integer_names_the_range_of_a_capped_flag():
    got = integer("--n", np.int64(240), ValueError, 2, 240)
    assert type(got) is int and got == 240
    for value in (1, 241, True, "3"):
        with pytest.raises(ValueError) as caught:
            integer("--n", value, ValueError, 2, 240)
        assert str(caught.value) == f"--n must be in [2, 240], got {value!r}"
