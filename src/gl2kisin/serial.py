"""Deterministic JSON encoding for the library's value types.

Field elements encode as their integer representation, Laurent polynomials
as sorted [degree, int] pairs, matrices as nested 2x2 lists, weight labels as
{"diffs", "twist"}; admissible elements are index tuples, so lists.

The report bytes are those of json.dumps(obj, default=_encode,
sort_keys=True, indent=2) plus a trailing newline: dict keys sorted, a
2-space indent, "," at line ends, empty containers as [] and {}, strings
with ASCII escapes, tuples as lists.  dumps writes them in one recursive
pass, because with an indent the json module runs its pure-Python encoder,
joining every 2^16 or so pieces into one string to keep its memory small.
Keys must be strings; a float, a set or any other unknown value raises
TypeError.
"""

from json.encoder import encode_basestring_ascii as _string

from .fields import FieldElement
from .laurent import Laurent
from .matrices import Mat2
from .weights import SerreWeightLabel


def _terms(terms):
    return sorted(terms.items())


def _encode(obj):
    # the JSON form of every value that is not a str, int, bool, None,
    # list, tuple or dict
    if isinstance(obj, FieldElement):
        return obj.n
    if isinstance(obj, Laurent):
        return _terms(obj.terms)
    if isinstance(obj, Mat2):
        return [[_terms(obj.t11), _terms(obj.t12)], [_terms(obj.t21), _terms(obj.t22)]]
    if isinstance(obj, SerreWeightLabel):
        return {"diffs": obj.diffs, "twist": obj.twist}
    raise TypeError("cannot serialize %r" % (type(obj),))


def _write(obj, out, nl, chunks):
    # out: the pieces since the last chunk; nl: a newline plus the indent of
    # obj's line; chunks: the joined chunks before them.  Plain ints are the
    # commonest value, so they are tested first; a bool fails that test and
    # is written by its own branch below.
    if type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner, chunks)
            sep = "," + inner
            if len(out) > 2**16:
                chunks.append("".join(out))
                out.clear()
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("keys must be str, got %r" % (key,))
            out.append(sep + _string(key) + ": ")
            _write(obj[key], out, inner, chunks)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        _write(_encode(obj), out, nl, chunks)


def dumps(obj):
    out, chunks = [], []
    _write(obj, out, "\n", chunks)
    out.append("\n")
    chunks.append("".join(out))
    return "".join(chunks)
