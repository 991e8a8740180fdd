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


# record -> (an instance, invalid fields the constructor must refuse, the error, its message)
RECORDS = {
    ConditionReport: (lambda: ConditionReport("phi-l-commute", "ker-eta", 0.0, 1e-9, {"mu": 1.0}),
                      {"residual": math.nan}, ValueError, "residual is nan"),
    AlmostContactStructure: (lambda: canonical_structure(3), {"phi": np.eye(4)},
                             StructuralError, r"phi must have shape \(5, 5\)"),
    CurvatureContext: (_ctx, {"c": 0.0}, StructuralError, "c must be nonzero"),
    ModelSpec: (lambda: SPEC, {"k": True}, CatalogError, "does not take k = True"),
    LocalJet: (lambda: consistent_jet(1.0, 0.5, 4.0), {"beta": -0.5}, JetError,
               "beta must be positive"),
    HopfDecomposition: (lambda: decompose_A_xi(_ctx()), None, None, None),
    Classification: (lambda: classify(_ctx()), None, None, None),
    TheoremVerdict: (lambda: theorem_pipeline(_ctx()), None, None, None),
    FamilyEntry: (lambda: FAMILY_TABLE["CH", "B"], None, None, None),
    SpectralEntry: (lambda: principal_curvatures(SPEC).entries[0], None, None, None),
    SpectralTable: (lambda: principal_curvatures(SPEC), None, None, None),
    ModelInstance: (lambda: instantiate(SPEC), None, None, None),
    ContradictionCertificate: (lambda: contradiction_certificate(4.0, 1.0, 0.5), None, None,
                               None),
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
    make, bad, error, message = RECORDS[record]
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
    if bad is None:  # a plain record still needs every field without a default
        with pytest.raises(TypeError):
            record(**{key: fields[key] for key in rec._fields[1:]})
        return
    with pytest.raises(error, match=message):
        record(**{**fields, **bad})
    with pytest.raises(error, match=message):
        rec._replace(**bad)
