"""Parameter records and the key=value parser used by the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError

RATIONAL_KEYS = ("hbar", "kappa", "th", "th0", "th1", "th2", "tht", "k2", "a", "b", "c", "d", "t")
INT_KEYS = ("N", "m")


@dataclass
class ParamSet:
    """Full parameter record; unused fields stay None."""

    family: str | None = None
    N: int | None = None
    m: int | None = None
    hbar: Fraction | None = None
    kappa: Fraction | None = None
    th: Fraction | None = None
    th0: Fraction | None = None
    th1: Fraction | None = None
    th2: Fraction | None = None
    tht: Fraction | None = None
    k2: Fraction | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    c: Fraction | None = None
    d: Fraction | None = None
    t: Fraction | None = None

    def family_kwargs(self) -> dict:
        return {k: getattr(self, k) for k in ("a", "b", "c", "d") if getattr(self, k) is not None}

    def theta_kwargs(self) -> dict:
        return {k: getattr(self, k) for k in ("th", "th0", "th1", "th2", "tht", "k2") if getattr(self, k) is not None}


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


def parse_params(text: str) -> ParamSet:
    """Parse ``b=-1/3,c=-1/5`` style parameter lists into a ParamSet.

    Rejects unknown keys and hbar = 0 (the quantization parameter never
    vanishes in any verified identity).
    """
    ps = ParamSet()
    if not text:
        return ps
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise UsageError(f"expected key=value, got {item!r}")
        if key in INT_KEYS:
            try:
                setattr(ps, key, int(value))
            except ValueError as exc:
                raise UsageError(f"{key} must be an integer, got {value!r}") from exc
        elif key in RATIONAL_KEYS:
            setattr(ps, key, parse_hbar(value) if key == "hbar" else parse_rational(value))
        elif key == "family":
            ps.family = value.strip()
        else:
            raise UsageError(f"unknown parameter key {key!r}")
    return ps
