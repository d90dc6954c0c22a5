"""Tests for ``tools/code_lines.py``: what counts as a code line."""

import textwrap

import pytest

from tools.code_lines import count_code_lines, main

# Every line is tagged ``code`` when it must count; untagged lines are
# blank, comments or docstrings.
_FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # code

# a comment line


class Thing:  # code
    """Class docstring."""

    limit = 3  # code

    def method(self, x):  # code
        """Method docstring
        spanning lines.
        """
        # comment inside a body
        text = """not a docstring:
counts on every line it spans,
this one too"""  # code
        return (  # code
            x  # code
            + self.limit  # code
        )  # code


async def fetch():  # code
    """Async docstring."""
    return os.sep  # code


def bare():  # code
    pass  # code
'''


def test_fixture_counts_only_code_lines():
    # The non-docstring string's first two lines count on top of the tags.
    expected = _FIXTURE.count("# code") + 2
    assert count_code_lines(_FIXTURE) == expected == 15


def test_a_docstring_that_is_not_first_is_code():
    source = textwrap.dedent('''\
        def f():
            x = 1
            """Not a docstring: it does not come first."""
            return x
    ''')
    assert count_code_lines(source) == 4


def test_cli_totals_files_and_directories(tmp_path, capsys):
    package = tmp_path / "pkg" / "sub"
    package.mkdir(parents=True)
    (package / "a.py").write_text(_FIXTURE)
    (package / "notes.txt").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == "16\n"


def test_cli_rejects_a_path_that_is_not_python(tmp_path):
    (tmp_path / "notes.txt").write_text("x = 1\n")
    with pytest.raises(SystemExit):
        main([str(tmp_path / "notes.txt")])
