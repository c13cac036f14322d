import pytest

from repro.analysis.report import render_bars, render_series, render_table


def test_table_alignment_and_rows():
    text = render_table(
        ["name", "value"], [("alpha", 1.5), ("b", 20)], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_table_row_width_mismatch_raises():
    with pytest.raises(ValueError, match="cells"):
        render_table(["a", "b"], [(1,)])


def test_bars_scale_to_max():
    text = render_bars({"x": 10.0, "y": 5.0})
    x_line, y_line = text.splitlines()
    assert x_line.count("#") == 50
    assert y_line.count("#") == 25


def test_bars_empty_raises():
    with pytest.raises(ValueError):
        render_bars({})


def test_series_downsamples():
    x = list(range(1000))
    y = [float(i) for i in x]
    text = render_series(x, y)
    assert len(text.splitlines()) <= 44


def test_series_length_mismatch():
    with pytest.raises(ValueError):
        render_series([1, 2], [1.0])
