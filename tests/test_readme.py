"""The README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The Python block under the README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    code = library_example()
    # "print(...)  # 0.81968... None": one expected token per printed value,
    # "..." marking a prefix
    expected = [line.split("#", 1)[1].split() for line in code.splitlines()
                if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(expected) == 2 and len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w.endswith("..."):
                assert g.startswith(w[:-3]), (g, w)
            else:
                assert g == w
