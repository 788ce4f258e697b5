import importlib
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TRACER = runpy.run_path(str(SCRIPT))


def test_every_traced_name_resolves_as_install_looks_it_up():
    for modname, attrs in TRACER["TRACED"].items():
        module = importlib.import_module(f"padic_hua.{modname}")
        for attr in attrs:
            *owner, func_name = attr.split(".")
            if owner:
                assert func_name in vars(getattr(module, owner[0])), attr
            else:
                assert callable(getattr(module, func_name)), attr
