"""Power products as exponent tuples, one entry per ring variable."""

from __future__ import annotations

from operator import le, mul, sub


def tdiv(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """s / t; caller guarantees divisibility."""
    return tuple(map(sub, s, t))


def tdivides(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """True when the power product s divides t."""
    return all(map(le, s, t))


def tlcm(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, s, t))


def tdeg(t: tuple[int, ...]) -> int:
    return sum(t)


def tcoprime(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    return not any(map(mul, s, t))


def is_one(t: tuple[int, ...]) -> bool:
    return not any(t)


def term_str(t: tuple[int, ...], varnames) -> str:
    parts = []
    for name, e in zip(varnames, t):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
