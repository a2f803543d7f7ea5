"""Report logic of ``tools/callcensus.py`` on canned recordings.

Nothing is traced here: the census's verdicts are pure functions of a
source file and the set of recorded lines (a line run is recorded as its
number, a code object entered as its negated first line).
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import callcensus  # noqa: E402

SOURCE = '''\
def used(flag):
    """A docstring is not a statement."""
    total = 1
    if flag:
        total += 1
        total *= 2
    return total


def never(x):
    def inner():
        return x
    return inner


class Thing:
    def __init__(self):
        self.value = 0

    @property
    def value_twice(self):
        return 2 * self.value
'''


def test_an_unrecorded_definition_is_reported_and_a_recorded_one_not():
    recorded = {-1, 3, 4, 7}
    dead, __ = callcensus.census(SOURCE, recorded)
    # ``never`` counts its closure; ``__init__`` is a dunder.
    assert dead == [("never", 10, 4), ("Thing.value_twice", 20, 3)]


def test_a_decorated_definition_is_entered_at_its_decorator_line():
    dead, __ = callcensus.census(SOURCE, {-1, 3, 4, 7, -20, 22})
    assert [row[0] for row in dead] == ["never"]


def test_an_unrun_branch_shows_as_one_block():
    __, blocks = callcensus.census(SOURCE, {-1, 3, 4, 7})
    assert blocks == [("used", 5, 6)]


def test_docstrings_are_not_blocks():
    __, blocks = callcensus.census(SOURCE, {-1, 3, 4, 5, 6, 7})
    assert blocks == []


def test_a_closure_is_reported_on_its_own_once_its_parent_ran():
    dead, blocks = callcensus.census(SOURCE, {-1, 3, 4, 5, 6, 7, -10, 11, 13,
                                              -20, 22})
    assert dead == [("never.<locals>.inner", 11, 2)]
    assert blocks == []


def test_unrun_handlers_and_else_branches_are_blocks():
    source = ("def f(x):\n"
              "    try:\n"
              "        y = int(x)\n"
              "    except ValueError:\n"
              "        y = 0\n"
              "    if y:\n"
              "        return y\n"
              "    else:\n"
              "        return -1\n")
    __, blocks = callcensus.census(source, {-1, 2, 3, 6, 7})
    assert blocks == [("f", 5, 5), ("f", 9, 9)]
