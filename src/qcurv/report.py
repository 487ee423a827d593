"""Structured verification records shared by every module and the CLI.

A report captures one check: what went in, the expected value with its
provenance, what came out, the tolerance, and pass/fail.  Reports carry
no timing, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

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


def _encode(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(jsonable(value), indent=2, sort_keys=True,
    allow_nan=False)`` prints it, nested at indent ``pad``, in one pass that
    maps and writes; a list of strings, or a dict of them, is joined in
    one call."""
    t = type(value)
    if t is str:
        return _ESC(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if t is int:
        return int.__repr__(value)
    if t is float:
        return _float_text(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = sorted({str(k): v for k, v in value.items()}.items())
        try:  # the escaper refuses anything but strings
            body = (",\n" + inner).join([_ESC(k) + ": " + _ESC(v) for k, v in items])
        except TypeError:
            body = (",\n" + inner).join([_ESC(k) + ": " + _encode(v, inner) for k, v in items])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        try:
            body = (",\n" + inner).join(map(_ESC, value))
        except TypeError:
            body = (",\n" + inner).join([_encode(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    mapped = jsonable(value)
    if mapped is not value:
        return _encode(mapped, pad)
    # what jsonable passes through unchanged, json writes by its base type
    if isinstance(value, str):
        return _ESC(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
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
    Writing goes through a temp file and rename so partial output never
    lands at the target path.
    """
    doc = {"schema": SCHEMA}
    doc.update(payload)
    text = _encode(doc, "") + "\n"
    if path:
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
    return text
