"""Deterministic JSON encoding for the library's value types.

Field elements encode as their integer representation, Laurent polynomials
as sorted [degree, int] pairs, matrices as nested 2x2 lists, extended Weyl
elements as component-index lists, weight labels as {"diffs", "twist"}.
dumps always sorts keys so output is byte-stable for fixed input.
"""

import json

from .fields import FieldElement
from .laurent import Laurent
from .matrices import Mat2
from .weights import ExtendedWeylElt, SerreWeightLabel, index_of


def _terms(terms):
    return sorted(terms.items())


def _encode(obj):
    # json.dumps calls this for every value it cannot encode itself
    if isinstance(obj, FieldElement):
        return obj.n
    if isinstance(obj, Laurent):
        return _terms(obj.terms)
    if isinstance(obj, Mat2):
        return [[_terms(obj.t11), _terms(obj.t12)], [_terms(obj.t21), _terms(obj.t22)]]
    if isinstance(obj, ExtendedWeylElt):
        return index_of(obj)
    if isinstance(obj, SerreWeightLabel):
        return {"diffs": obj.diffs, "twist": obj.twist}
    raise TypeError("cannot serialize %r" % (type(obj),))


def dumps(obj):
    return json.dumps(obj, default=_encode, sort_keys=True, indent=2) + "\n"
