"""Structured verification records shared by every module and the CLI.

A report captures one check: what went in beyond the run's ``config``
(``{}`` for a check that reads only the run's options), the expected value
with its provenance, what came out, the tolerance, and pass/fail.  The
config is the one place a report states an option.  Reports carry no
timing, so identical configurations produce byte-identical files.

``dump_report`` writes a report as one line of compact JSON with sorted
keys, through the stdlib C encoder; ``python -m json.tool`` pretty-prints
it.  A payload is plain JSON data and Fractions; the encoder's
``default`` hook writes a Fraction as "p/q" text and refuses any other
leaf with TypeError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

SCHEMA = "qcurv-report/2"


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
            "inputs": self.inputs,
            "expected": self.expected,
            "provenance": self.provenance,
            "computed": self.computed,
            "tolerance": self.tolerance,
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


def _json_leaf(value: Any) -> Any:
    """The JSON form of a value the encoder has no type for."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_report(payload: dict, path: str | None = None) -> str:
    """Serialize a report envelope with sorted keys; optionally write it.

    A non-finite float raises ValueError: strict JSON has no token for it.
    """
    doc = {"schema": SCHEMA}
    doc.update(payload)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_json_leaf) + "\n"
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
