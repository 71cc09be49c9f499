"""README's code and names: every ```python block runs, and every backticked
dotted name of a `norden` module that README cites resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import norden

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = [m.name for m in pkgutil.iter_modules(norden.__path__)]
# `module.name` or `module.name.attr` inside a backticked span, not as part of
# a longer word or a path (`tests/test_suite.py`); a call's arguments are cut
_DOTTED = re.compile(rf"(?<![\w/.])(norden|{'|'.join(MODULES)})((?:\.\w+)+)")


def _cited_names() -> list[tuple[str, list[str]]]:
    cited = []
    for span in re.findall(r"`([^`\n]+)`", README):
        for module, attrs in _DOTTED.findall(span):
            parts = attrs[1:].split(".")
            if parts != ["py"]:  # a file name such as `search.py`
                cited.append((module, parts))
    return cited


def test_every_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_every_cited_module_name_resolves():
    cited = _cited_names()
    assert len(cited) > 20  # the module map cites its kernels
    for module, parts in cited:
        name = "norden" if module == "norden" else f"norden.{module}"
        value = importlib.import_module(name)
        for part in parts:
            assert hasattr(value, part), f"{module}.{'.'.join(parts)}"
            value = getattr(value, part)
