import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skip_docstrings_and_comments(tmp_path):
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""
        import math  # a comment

        # a comment line


        class A:
            """Class docstring."""

            def f(self):
                """Function docstring."""
                text = """a string
                that is code"""
                return (math.pi
                        + len(text))
        ''')
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, def, the two lines of the string and the two of the return
    assert code_lines.code_lines(path) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[:3] == [f"{'a.py':24s}{1:6d}", f"{'b.py':24s}{2:6d}",
                         f"{'total':24s}{3:6d}"]
