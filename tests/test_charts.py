import numpy as np
import pytest

from riskchoice.charts import svg_line_chart
from riskchoice.errors import InputError


@pytest.mark.parametrize(
    "points",
    [[[0.0, 1.0]], [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], [0.0, 1.0, 2.0], np.zeros((0, 2))],
    ids=["one_point", "three_columns", "flat_list", "empty"],
)
def test_points_must_be_an_n_by_2_array(points):
    with pytest.raises(InputError, match=r"^points must be an \(n, 2\) array with n >= 2$"):
        svg_line_chart(points, "t", "x", "y")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_points_must_be_finite(bad):
    with pytest.raises(InputError, match="^points must be finite$"):
        svg_line_chart([[0.0, 1.0], [1.0, bad]], "t", "x", "y")


def test_flat_ranges_are_widened_by_one():
    # both axes span [v, v + 1]: every point sits at the left and bottom edges
    svg = svg_line_chart([[2.0, 5.0], [2.0, 5.0]], "t", "x", "y")
    assert 'points="56,276 56,276"' in svg
    for label in (">2<", ">3<", ">5<", ">6<"):
        assert label in svg
