"""Shared fixtures and the acceptance summary printed at the end of a run."""

from padic_hua.matrix import PadicMatrix

_CRITERION_LINES = {}


def record_criterion(number: int, description: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"[criterion {number}] {status}: {description}"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def matmul(a, b):
    """Product of two residue matrices at the smaller window; the shifts
    add.  The library never multiplies matrices, so only tests need it."""
    if a.p != b.p or a.n != b.n:
        raise ValueError("incompatible matrices")
    digits = min(a.digits, b.digits)
    modulus = a.p**digits
    units = tuple(
        tuple(sum(arow[k] * b.units[k][j] for k in range(a.n)) % modulus
              for j in range(a.n))
        for arow in a.units)
    return PadicMatrix(a.p, a.n, a.shift + b.shift, digits, units)
