"""The one text parser of rationals: flag values and ``--params`` pairs."""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text!r} (expected p/q or integer)") from exc


def parse_hbar(text: str) -> Fraction:
    """A ``--hbar`` value: a rational that is not zero."""
    hbar = parse_rational(text)
    if hbar == 0:
        raise UsageError("hbar must be nonzero")
    return hbar


def parse_params(text: str) -> dict:
    """Parse ``b=-1/3,c=-1/5`` style parameter lists into {key: Fraction}.

    A pair without ``=``, a repeated key or a malformed rational is a usage
    error; which keys a task reads is the task's own rule (``cli.Task.keys``).
    """
    ps = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise UsageError(f"expected key=value, got {item!r}")
        if key in ps:
            raise UsageError(f"{key} is given twice")
        ps[key] = parse_rational(value)
    return ps
