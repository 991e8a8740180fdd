"""The public records: immutable tuples whose validating constructors still refuse bad input.

No record is a dataclass: a cold `python -m hyperlab` process would pay for
the code generation.  Each record refuses field assignment and equals a
record rebuilt from its own fields; the validating ones refuse invalid input
from the constructor and from _replace alike.
"""
import math

import numpy as np
import pytest

from hyperlab import (
    FAMILY_TABLE,
    AlmostContactStructure,
    CatalogError,
    Classification,
    ConditionReport,
    ContradictionCertificate,
    CurvatureContext,
    FamilyEntry,
    HopfDecomposition,
    JetError,
    LocalJet,
    ModelInstance,
    ModelSpec,
    SpectralEntry,
    SpectralTable,
    StructuralError,
    TheoremVerdict,
    canonical_structure,
    classify,
    consistent_jet,
    contradiction_certificate,
    decompose_A_xi,
    instantiate,
    principal_curvatures,
    theorem_pipeline,
)

SPEC = ModelSpec("CP", 3, "A2", radius=0.8, k=1)


def _ctx():
    return instantiate(SPEC).ctx


NAN_MATRIX = np.full((5, 5), math.nan)
NAN_A = np.diag([1.0, math.nan, 1.0, 1.0, 1.0])

# record -> (an instance, [(invalid fields the constructor must refuse, the error, its message)])
RECORDS = {
    ConditionReport: (lambda: ConditionReport("phi-l-commute", "ker-eta", 0.0, 1e-9, {"mu": 1.0}),
                      [({"residual": math.nan}, ValueError, "residual is nan")]),
    AlmostContactStructure: (lambda: canonical_structure(3), [
        ({"phi": np.eye(4)}, StructuralError, r"phi must have shape \(5, 5\)"),
        ({"phi": NAN_MATRIX}, StructuralError, "phi must be finite"),
        ({"gram": NAN_MATRIX}, StructuralError, "gram must be finite")]),
    CurvatureContext: (_ctx, [
        ({"c": 0.0}, StructuralError, "c must be nonzero"),
        ({"c": math.nan}, StructuralError, "c must be finite, got nan"),
        ({"c": math.inf}, StructuralError, "c must be finite, got inf"),
        ({"shape_operator": NAN_A}, StructuralError, "shape_operator must be finite")]),
    ModelSpec: (lambda: SPEC, [
        ({"k": True}, CatalogError, "k must be an integer >= 0, got True"),
        ({"c": math.nan}, CatalogError, "c must be finite, got nan"),
        ({"c": -math.inf, "ambient": "CH"}, CatalogError, "c must be finite, got -inf")]),
    LocalJet: (lambda: consistent_jet(1.0, 0.5, 4.0),
               [({"beta": -0.5}, JetError, "beta must be positive")]),
    HopfDecomposition: (lambda: decompose_A_xi(_ctx()), []),
    Classification: (lambda: classify(_ctx()), []),
    TheoremVerdict: (lambda: theorem_pipeline(_ctx()), []),
    FamilyEntry: (lambda: FAMILY_TABLE["CH", "B"], []),
    SpectralEntry: (lambda: principal_curvatures(SPEC).entries[0], []),
    SpectralTable: (lambda: principal_curvatures(SPEC), []),
    ModelInstance: (lambda: instantiate(SPEC), []),
    ContradictionCertificate: (lambda: contradiction_certificate(4.0, 1.0, 0.5), []),
}


def _equal(a, b) -> bool:
    """Record equality, arrays compared by value (their == is elementwise)."""
    if hasattr(a, "_fields"):
        return type(a) is type(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_every_public_record_is_immutable_and_rebuilds_from_its_fields(record):
    make, refusals = RECORDS[record]
    rec = make()
    assert type(rec) is record
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.not_a_field = 0
    fields = rec._asdict()
    assert _equal(record(**fields), rec)
    assert _equal(rec._replace(), rec)
    if not refusals:  # a plain record still needs every field without a default
        with pytest.raises(TypeError):
            record(**{key: fields[key] for key in rec._fields[1:]})
    for bad, error, message in refusals:
        with pytest.raises(error, match=message):
            record(**{**fields, **bad})
        with pytest.raises(error, match=message):
            rec._replace(**bad)
