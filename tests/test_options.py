"""Every parameter with a default of a top-level function of padic_hua is
set by some call outside the tests: in the package, in scripts/ or in
perfbench/.  A value that no such caller sets is a module constant, not an
option that only tests reach.

Calls are matched by the bare name of the function called (f(...) or
x.f(...)).  A call sets a parameter by keyword, by position, or possibly
through a starred argument (*args sets any positional parameter, **kwargs
any parameter)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "padic_hua").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))

_SUITE = "suite_runs passes it in the keyword arguments run_suite splats"
# Options set only through calls the scan cannot follow, with the reason.
ALLOWED = {
    "run_corners_consistency.pool": _SUITE,
    "run_ergodic_convergence.pool": _SUITE,
    "run_ergodic_decomposition.pool": _SUITE,
    "run_nu_limit.pool": _SUITE,
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _options():
    """{function name: [(parameter, position or None for keyword-only)]}
    over the parameters with a default of each top-level function."""
    options = {}
    for path in PACKAGE:
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            options[node.name] = [
                (arg.arg, i) for i, arg in enumerate(positional)
                if i >= first] + [
                (arg.arg, None) for arg, default in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                if default is not None]
    return options


def _sets(call, name, position) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        position < len(call.args)
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def _unset():
    """The options, as function.parameter, that no call outside the tests
    sets."""
    options = _options()
    unset = {f"{func}.{name}" for func, params in options.items()
             for name, _ in params}
    for path in CALLERS:
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            func = getattr(call.func, "id", getattr(call.func, "attr", None))
            for name, position in options.get(func, ()):
                if _sets(call, name, position):
                    unset.discard(f"{func}.{name}")
    return unset


def test_every_option_is_set_outside_the_tests():
    assert sorted(_unset() - set(ALLOWED)) == []


def test_every_allowed_option_is_still_unset():
    # An entry whose option is gone, or is now set by a call, is stale.
    assert sorted(set(ALLOWED) - _unset()) == []
