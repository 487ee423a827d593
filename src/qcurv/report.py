"""Structured verification records shared by every module and the CLI.

A report captures one check: what went in, the expected value with its
provenance, what came out, the tolerance, and pass/fail.  Reports carry
no timing, so identical configurations produce byte-identical files.

``dump_report`` writes exactly what ``json.dumps(jsonable(doc), indent=2,
sort_keys=True, allow_nan=False)`` would, in one walk that appends text
pieces to a single list joined once at the end.  A dict or list whose
values are all plain str, int, float, bool or None (and whose keys are all
plain str) is written whole by the stdlib C encoder, given ``json.dumps``'
own item separator at that depth, ",\n" plus the indent.  With no nested
container inside, that separator is the only place indentation enters, and
the C encoder is the one ``json.dumps`` itself runs, so key order, escapes
and number text are the same bytes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

SCHEMA = "qcurv-report/1"


def jsonable(value: Any) -> Any:
    """Map exact and numpy values onto plain JSON types, deterministically."""
    if value is None or type(value) in (str, int, float, bool):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


_ESC = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


@functools.cache
def _flat_encoder(inner: str):
    """The C-encoder ``encode`` of a container of scalars whose items sit
    at indent ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": "), sort_keys=True,
                            allow_nan=False).encode


def _encode(value: Any, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``value`` as ``json.dumps(jsonable(value),
    indent=2, sort_keys=True, allow_nan=False)`` prints it, nested at indent
    ``pad``, in one pass that maps and writes."""
    t = type(value)
    if t is str:
        out.append(_ESC(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif t is int:
        out.append(int.__repr__(value))
    elif t is float:
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        if t is dict and _SCALARS.issuperset(map(type, value.values())) \
                and _STR.issuperset(map(type, value)):
            text = _flat_encoder(inner)(value)
            out.append("{\n" + inner + text[1:-1] + "\n" + pad + "}")
            return
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for k, v in sorted({str(k): v for k, v in value.items()}.items()):
            out.append(_ESC(k) + ": ")
            _encode(v, inner, out)
            out.append(sep)
        out[-1] = "\n" + pad + "}"  # the last separator closes the dict
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if t is list and _SCALARS.issuperset(map(type, value)):
            text = _flat_encoder(inner)(value)
            out.append("[\n" + inner + text[1:-1] + "\n" + pad + "]")
            return
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for v in value:
            _encode(v, inner, out)
            out.append(sep)
        out[-1] = "\n" + pad + "]"  # the last separator closes the list
    else:
        mapped = jsonable(value)
        if mapped is not value:
            _encode(mapped, pad, out)
        # what jsonable passes through unchanged, json writes by its base type
        elif isinstance(value, str):
            out.append(_ESC(value))
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, float):
            out.append(_float_text(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class VerificationReport:
    check_id: str
    inputs: dict
    expected: Any
    provenance: str
    computed: Any
    tolerance: Any  # float, or the string "exact"
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "inputs": jsonable(self.inputs),
            "expected": jsonable(self.expected),
            "provenance": self.provenance,
            "computed": jsonable(self.computed),
            "tolerance": jsonable(self.tolerance),
            "pass": self.passed,
        }


def exact_check(check_id, inputs, expected, provenance, computed) -> VerificationReport:
    return VerificationReport(
        check_id=check_id,
        inputs=inputs,
        expected=expected,
        provenance=provenance,
        computed=computed,
        tolerance="exact",
        passed=(computed == expected),
    )


def close_check(check_id, inputs, expected, provenance, computed, rtol) -> VerificationReport:
    expected_f = float(expected)
    computed_f = float(computed)
    scale = max(abs(expected_f), 1e-300)
    passed = abs(computed_f - expected_f) <= rtol * scale
    return VerificationReport(
        check_id=check_id,
        inputs=inputs,
        expected=expected,
        provenance=provenance,
        computed=computed,
        tolerance=rtol,
        passed=passed,
    )


def abs_check(
    check_id, inputs, expected, provenance, computed, atol, deviation=None
) -> VerificationReport:
    """Pass when ``deviation``, by default |computed - expected|, is at most
    ``atol``.  A check against a bound states ``expected`` as text ("drift
    <= 1e-6") and passes the non-negative drift, or the signed overshoot
    past a one-sided bound, as ``deviation``."""
    if deviation is None:
        deviation = abs(float(computed) - float(expected))
    return VerificationReport(
        check_id=check_id,
        inputs=inputs,
        expected=expected,
        provenance=provenance,
        computed=computed,
        tolerance=atol,
        passed=deviation <= atol,
    )


def dump_report(payload: dict, path: str | None = None) -> str:
    """Serialize a report envelope with sorted keys; optionally write it.

    A non-finite float raises ValueError: strict JSON has no token for it.
    """
    doc = {"schema": SCHEMA}
    doc.update(payload)
    out: list[str] = []
    _encode(doc, "", out)
    out.append("\n")
    text = "".join(out)
    if path:
        write_report(text, path)
    return text


def write_report(text: str, path: str) -> None:
    """Write report text through a temp file and rename, so partial output
    never lands at ``path``."""
    import os
    import tempfile

    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
