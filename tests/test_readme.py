"""README.md states names and values; each must hold for the package as it is."""

import importlib
import pathlib
import pkgutil
import re
from fractions import Fraction

import pytest

import loglegram
from loglegram import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _code_block(heading: str, fence: str) -> list:
    """The lines of the first code block opened by ``fence`` under ``heading``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(fence, text.index(heading))
    return text[start : text.index("```", start + 3)].splitlines()


def test_every_upper_case_name_resolves():
    # a constant removed from the package must leave the README too
    modules = [loglegram] + [
        importlib.import_module(f"loglegram.{info.name}")
        for info in pkgutil.iter_modules(loglegram.__path__)
    ]
    names = set(re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`", README.read_text(encoding="utf-8")))
    assert "MAX_ORDER" in names
    missing = [name for name in sorted(names) if not any(hasattr(m, name) for m in modules)]
    assert missing == []


# (the call as written in the Library block, its stated value, that value)
LIBRARY = [
    ("lg.entry(2, 1)", "Fraction(1, 4)", Fraction(1, 4)),
    ("lg.entry(2, 2)", "Fraction(-41, 150)", Fraction(-41, 150)),
    ("lg.gram_float(2).entries[2, 2]", "-0.2733333333333333", -0.2733333333333333),
    ("lg.bilinear_log_form([1, 1], [1, 1], lg.gram_exact(1))", "Fraction(-4, 9)", Fraction(-4, 9)),
    ("lg.log_expansion_coeffs(2)", "[-1, 3/2, -5/6]", [-1, Fraction(3, 2), Fraction(-5, 6)]),
    ("lg.expansion_l2_error(8).l2_error", "exactly 1/9", 1 / 9),
]


@pytest.mark.parametrize("call, stated, value", LIBRARY)
def test_library_block_values_hold(call, stated, value):
    lines = [line for line in _code_block("## Library", "```python") if line.startswith(call + " ")]
    assert len(lines) == 1, call
    assert lines[0].split("#", 1)[1].strip().startswith(stated)
    result = eval(call, {"lg": loglegram})
    assert result == value
    assert type(result) is type(value) or isinstance(value, float)


# (the arguments as written in the CLI block, the stdout its comment states,
# with lines joined by " / ")
CLI = [
    ("entry 2 1 --exact", "1/4"),
    ("gram 1 --exact --format csv", "-1/1,1/2 / 1/2,-4/9"),
    ("verify --max-order 20 --oracle exact", "231/231 pairs exact"),
]


@pytest.mark.parametrize("args, stated", CLI)
def test_cli_block_outputs_hold(args, stated, capsys):
    block = _code_block("## CLI", "```sh")
    lines = [line for line in block if line.startswith(f"loglegram {args} ")]
    assert len(lines) == 1, args
    assert lines[0].split("#", 1)[1].strip() == stated
    assert cli.main(args.split()) == 0
    captured = capsys.readouterr()
    assert (" / ".join(captured.out.splitlines()), captured.err) == (stated, "")
