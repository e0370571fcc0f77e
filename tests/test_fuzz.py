"""Every config the command line accepts ends in exit 0 or in one line per
issue.

Each draw is a preset, a command and one to three keys of presets.SETTINGS,
each drawn from its default and converter or from values that broke runs
before (0, -1, 1e-300, 5e-324, 1e300, 1.7e308, nan, inf, broken recipes).
The run goes through the contract table's harness on a grid of at most
CELLS cells per axis and CELLS steps, with at most MAX_ITERS optimizer
iterations and one verify level.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_cli_contract import cli_run
from tumorctrl import verify
from tumorctrl.cli import _FAILURES
from tumorctrl.presets import (_POTENTIALS, _RECIPE_ARITY, PRESET_SETTINGS,
                               SETTINGS, _str_key, preset_names)
from tumorctrl.runner import COMMANDS
from tumorctrl.sparsity import SparsityMode

SPECIAL = ("0", "-1", "1e-300", "5e-324", "1e300", "1.7e308", "nan", "inf")
BROKEN_RECIPES = ("", "constant", "cosine 0", "pulse 0 0.6 0", "random",
                  "bogus 1", "values 1 2", "constant x")
CELLS = 8
MAX_ITERS = 50
# the largest value an integer key may draw
INT_CAPS = {"n": CELLS, "n_steps": CELLS, "max_iters": MAX_ITERS, "dim": 2}
CHOICES = {"potential": sorted(_POTENTIALS),
           "mode": [m.value for m in SparsityMode]}


def _number(scale):
    """A float near scale (1 for 0): times a power of ten, either sign."""
    return st.builds(lambda e, sign: repr(sign * (scale or 1.0) * 10.0 ** e),
                     st.integers(-3, 3), st.sampled_from((1.0, -1.0)))


def _recipe():
    arg = st.sampled_from(SPECIAL + ("0.5", "-0.3", "0.9"))
    return st.sampled_from(sorted(_RECIPE_ARITY) + ["values"]).flatmap(
        lambda kind: st.lists(arg, min_size=_RECIPE_ARITY.get(kind, CELLS),
                              max_size=_RECIPE_ARITY.get(kind, CELLS))
        .map(lambda args: " ".join([kind, *args])))


def _value(name, default, conv):
    """The config text strategy of one setting."""
    special = st.sampled_from(SPECIAL)
    if conv is _str_key:  # a field recipe
        return st.one_of(st.sampled_from(BROKEN_RECIPES), _recipe())
    if name in CHOICES:
        return st.sampled_from(CHOICES[name] + ["banana"])
    if isinstance(default, tuple):
        return st.lists(_value(name, default[0], conv), min_size=1,
                        max_size=2).map(" ".join)
    if isinstance(default, int):
        cap = INT_CAPS.get(name, 2 * default)
        return st.one_of(special, st.integers(1, cap).map(str))
    return st.one_of(special, _number(default))


@st.composite
def configs(draw):
    """(command, config text) on a small grid."""
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(preset_names()))
    dim = PRESET_SETTINGS[name].get("dim", 1)
    values = {"n": " ".join([str(CELLS)] * dim), "n_steps": str(CELLS),
              "max_iters": str(MAX_ITERS)}
    for key in draw(st.lists(st.sampled_from(sorted(SETTINGS)), min_size=1,
                             max_size=3, unique=True)):
        _, _, default, conv = SETTINGS[key]
        values[key] = draw(_value(key, default, conv))
    text = f"[run]\npreset = {name}\n"
    for key, value in values.items():
        section, option, _, _ = SETTINGS[key]
        text += f"[{section}]\n{option} = {value}\n"
    return command, text


@given(configs())
def test_every_config_ends_in_one_line_per_issue(case):
    command, text = case
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(verify, "REFINEMENT_LEVELS", 1)
        code, lines, left = cli_run(command, text, Path(tmp))
    if code == 0:
        assert (lines, left) == ([], True)
    elif code == 1 and lines == [_FAILURES.get(command)]:
        assert left  # a failed check keeps its artifacts
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("solver error: ")
        assert not left
    else:
        assert code == 2 and lines and not left
        assert all(line.startswith("config error: ") for line in lines)
