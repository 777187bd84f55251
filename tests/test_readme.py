"""README: the quick-start example runs as printed and the API it names exists."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import subseqstats
from subseqstats.presets import PRESETS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """Text from the line holding ``title`` up to the next heading."""
    start = README.index(title)
    end = README.find("\n#", start)
    return README[start:] if end < 0 else README[start:end]


def test_quick_start_prints_its_documented_output():
    code, output = re.findall(r"```(?:python)?\n(.*?)```", section("## Library quick start"), re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert out.getvalue() == output


def test_entry_points_exist():
    modules = [subseqstats] + [
        importlib.import_module(f"subseqstats.{info.name}")
        for info in pkgutil.iter_modules(subseqstats.__path__)
    ]
    text = section("Key library entry points:")
    # a backticked name, optionally followed by its argument list
    names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", text)
    assert len(names) >= 20
    missing = [n for n in names if not any(callable(getattr(m, n, None)) for m in modules)]
    assert missing == []


def test_preset_table_lists_every_preset():
    rows = re.findall(r"^\| `(\w+)` +\|", section("### preset"), re.M)
    assert set(rows) == set(PRESETS)
