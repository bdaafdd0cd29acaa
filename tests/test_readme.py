"""The README's library quick start and its built-generator example run as
written and print the values their comments give, within the consistency
tolerance 0.02 + 0.05 |truth|."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_as_written():
    code = quick_start()
    expected = [float(v) for v in re.findall(r"# ~([0-9.]+)", code)]
    assert expected == [0.2231, 1.0397]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line.split()[0]) for line in out.getvalue().splitlines()]
    assert len(printed) == len(expected)
    for got, truth in zip(printed, expected):
        assert abs(got - truth) <= 0.02 + 0.05 * abs(truth)


def test_built_generator_example_runs_as_written():
    section = README.read_text().split("### A generator built from its derivative", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [float(v) for v in re.findall(r"# ~([0-9.]+)", code)]
    assert expected == [0.3863, 1.7183, 0.0411]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line.split()[0]) for line in out.getvalue().splitlines()]
    assert len(printed) == len(expected)
    for got, truth in zip(printed, expected):
        assert abs(got - truth) <= 0.02 + 0.05 * abs(truth)
