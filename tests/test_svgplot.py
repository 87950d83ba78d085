import math
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import polyline_reference
from tdcae.errors import NumericError
from tdcae.svgplot import line_plot


def polylines(path) -> list[str]:
    return re.findall(r'points="([^"]*)"', path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("series, threshold, expected", [
    # Series of unequal length, under a threshold above the data.
    ([[0.0, 1.0, 2.0, 3.0], [1.5, 1.5]], 5.0,
     ["64.00,268.82 357.33,224.09 650.67,179.36 944.00,134.64",
      "64.00,201.73 357.33,201.73"]),
    # A constant series: its range is widened by one.
    ([[2.0, 2.0, 2.0]], None, ["64.00,268.82 504.00,268.82 944.00,268.82"]),
    # A constant beyond 2**53, where a widening by one is absorbed: widened
    # by one ulp instead, and the 5% pad is absorbed below it.
    ([[1e16, 1e16, 1e16]], None, ["64.00,280.00 504.00,280.00 944.00,280.00"]),
    # The largest float, widened downwards.
    ([[sys.float_info.max] * 2], None, ["64.00,34.00 944.00,34.00"]),
])
def test_polyline_points(tmp_path, series, threshold, expected):
    path = tmp_path / "p.svg"
    line_plot(path, [(f"s{k}", np.array(y)) for k, y in enumerate(series)], threshold=threshold)
    assert polylines(path) == expected
    assert polyline_reference(series, threshold) == expected


@pytest.mark.parametrize("series, threshold", [
    ([np.linspace(-3.0, 7.0, 50), np.sin(np.arange(17.0))], None),
    ([np.full(9, -4.25)], None),
    ([np.arange(20.0) ** 2, np.array([0.5])], -100.0),
    ([np.array([1e-9, 3e-9, 2e-9]), np.array([])], 1e-6),
])
def test_polylines_match_the_scalar_oracle(tmp_path, series, threshold):
    path = tmp_path / "p.svg"
    line_plot(path, [(f"s{k}", y) for k, y in enumerate(series)], threshold=threshold)
    assert polylines(path) == polyline_reference(series, threshold)


@pytest.mark.parametrize("series, threshold", [
    # Finite values more than the largest float apart, in the data or
    # through the threshold.
    ([[-1e308, 1e308]], None),
    ([[0.0, 1e308]], -1e308),
    ([[1.0, math.nan]], None),
    ([[1.0, 2.0]], math.inf),
    ([[1.0, 2.0]], math.nan),
])
def test_no_finite_y_range_is_an_error(tmp_path, series, threshold):
    path = tmp_path / "p.svg"
    with pytest.raises(NumericError, match="no finite y range"):
        line_plot(path, [(f"s{k}", np.array(y)) for k, y in enumerate(series)],
                  threshold=threshold)
    assert not path.exists()
    with pytest.raises(NumericError):
        polyline_reference(series, threshold)


def test_text_is_escaped_and_parses(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, [("a<b", np.arange(3.0)), ("c&d -> z1", np.ones(3)),
                     ("L\x01T1\x1f", np.zeros(3)), ("\x00\ufffe\uffff\t\u00e9", np.zeros(3))],
              title="<&>\x08", y_label="y&\x0b", x_label="x<\x0c")
    texts = {t.text for t in ET.parse(path).getroot() if t.tag.endswith("text")}
    # Characters XML forbids become U+FFFD; tab and the rest are kept.
    assert {"<&>\ufffd", "y&\ufffd", "x<\ufffd", "a<b", "c&d -> z1", "L\ufffdT1\ufffd",
            "\ufffd\ufffd\ufffd\t\u00e9"} <= texts
    # > needs no escape, so a label with it keeps its bytes.
    assert "c&amp;d -> z1</text>" in path.read_text(encoding="utf-8")
