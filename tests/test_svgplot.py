"""Chart bytes: each chart is pinned by the SHA-256 of its SVG text."""

import hashlib

import pytest

from rankprune import svgplot

RANK_TITLE = dict(title="Average delta-rank vs sparsity", xlabel="sparsity", ylabel="average delta-rank")
LAMBDA_TITLE = dict(title="Rank and accuracy vs rank-loss weight", xlabel="lambda")

CHARTS = {
    "one series": (
        lambda: svgplot.line_chart([("run", [0.5, 0.7, 0.9, 0.99], [24.0, 21.5, 17.25, 9.0])], **RANK_TITLE),
        "93b26f3f1da70447eb1b01e0f977e7720c8fc30b519b6dbc0d8a410f67e4c104",
    ),
    "two series": (
        lambda: svgplot.line_chart(
            [("baseline", [0.5, 0.9], [20.0, 12.0]), ("regularized", [0.5, 0.7, 0.9], [21.0, 19.5, 15.0])],
            **RANK_TITLE,
        ),
        "4e8fc585bfd44d2b742a791b9968fc4a5e52c87685c9dd2852863f1441344189",
    ),
    "one lambda": (
        lambda: svgplot.dual_axis_chart(["0.1"], "average delta-rank", [12.0], "eval accuracy", [0.9], **LAMBDA_TITLE),
        "6fdaf2d197c6b65d9b369e9b5b6b2326b57aec8a16a270c73c28cc2509e48300",
    ),
    "four lambdas": (
        lambda: svgplot.dual_axis_chart(
            ["0.0", "0.01", "0.1", "1.0"], "average delta-rank", [10.0, 10.5, 12.0, 11.5],
            "eval accuracy", [0.9, 0.92, 0.91, 0.85], **LAMBDA_TITLE,
        ),
        "bf9b1209b2c4d73df9eb0f9bbc83179d815663a92edaaae0767b079ce6819a5d",
    ),
}


@pytest.mark.parametrize("name", CHARTS)
def test_chart_bytes_pinned(name):
    draw, want = CHARTS[name]
    assert hashlib.sha256(draw().encode("utf-8")).hexdigest() == want


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.line_chart([("run", [], [])], **RANK_TITLE)
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.dual_axis_chart([], "r", [], "a", [], **LAMBDA_TITLE)
