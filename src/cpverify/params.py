"""The key=value parser behind ``--params``."""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .families import TABLE

# hbar, kappa and t, and every family's radial and multi-particle keys
RATIONAL_KEYS = ("hbar", "kappa", *dict.fromkeys(k for fam in TABLE for k in fam.radial_keys + fam.cp_keys), "t")
INT_KEYS = ("N", "m")


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
    """Parse ``b=-1/3,c=-1/5`` style parameter lists into a dict.

    Rejects unknown and repeated keys and hbar = 0 (the quantization
    parameter never vanishes in any verified identity).
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
        if key in INT_KEYS:
            try:
                ps[key] = int(value)
            except ValueError as exc:
                raise UsageError(f"{key} must be an integer, got {value!r}") from exc
        elif key in RATIONAL_KEYS:
            ps[key] = parse_hbar(value) if key == "hbar" else parse_rational(value)
        elif key == "family":
            ps[key] = value.strip()
        else:
            raise UsageError(f"unknown parameter key {key!r}")
    return ps
