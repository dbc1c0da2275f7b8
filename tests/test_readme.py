"""The library examples in README.md run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted == 5
    assert result.failed == 0
