from xml.etree import ElementTree

import pytest

from annealplan.costs import CostBasis
from annealplan.manifest import UtilityPoint
from annealplan.metrics import MetricKind, UtilityDelta
from annealplan.scaling import ScalingFit
from annealplan.svg import render_fit_svg

SVG = "{http://www.w3.org/2000/svg}"
BASIS = CostBasis.CURATION_PLUS_ANNEALING


def fits_and_points(n_fits):
    fits, points = [], []
    for i in range(n_fits):
        source = f"src{i:02d}"
        fits.append(ScalingFit(source, 0.01 * i, 0.001, 2, 0.0, (1e18, 1e22), BASIS))
        for steps, compute in ((1, 1e18), (2, 1e22)):
            delta = UtilityDelta(value=0.01 * i, metric=MetricKind.BRIER, source_id=source)
            points.append(UtilityPoint(source, steps, compute, 1e8, delta, BASIS))
    return fits, points


@pytest.mark.parametrize("n_fits", [27, 40])
def test_canvas_holds_every_legend_line(n_fits):
    fits, points = fits_and_points(n_fits)
    root = ElementTree.fromstring(render_fit_svg(points, fits))
    height = root.get("height")
    assert root.get("viewBox") == f"0 0 720 {height}"
    assert root.find(f"{SVG}rect").get("height") == height
    texts = {el.text: float(el.get("y")) for el in root.iter(f"{SVG}text")}
    labels = [texts[fit.source_id] for fit in fits]
    assert max(labels) + 16 <= float(height)
    # The plot and its axis titles keep their place on the 480-px canvas.
    assert texts["compute (FLOPs, log scale)"] == 468
    assert root.find(f"{SVG}rect[@x]").get("height") == "400"
    if n_fits <= 27:
        assert height == "480"


def line_styles(svg):
    """Each fitted-line segment's (stroke, stroke-dasharray), in drawing order."""
    root = ElementTree.fromstring(svg)
    return [(el.get("stroke"), el.get("stroke-dasharray")) for el in root.iter(f"{SVG}polyline")]


# The points span 1e18 to 1e22; the plot pads that by 0.2 decades a side.
@pytest.mark.parametrize(
    "compute_range, dashes",
    [
        ((1e10, 1e30), [None]),
        ((1e10, 1e20), [None, "3,4"]),
        ((1e20, 1e30), ["3,4", None]),
        ((1e19, 1e21), ["3,4", None, "3,4"]),
        ((1e25, 1e26), ["3,4"]),
        ((1e10, 1e12), ["3,4"]),
    ],
    ids=["past-both", "past-low", "past-high", "inside", "wholly-above", "wholly-below"],
)
def test_fit_line_is_dotted_only_outside_its_range(compute_range, dashes):
    fits, points = fits_and_points(1)
    fit = ScalingFit("src00", 0.0, 0.001, 2, 0.0, compute_range, BASIS)
    svg = render_fit_svg(points, [fit])
    assert [dash for _, dash in line_styles(svg)] == dashes
    assert svg.count("stroke-dasharray") == dashes.count("3,4")
    # The segments join end to end.
    root = ElementTree.fromstring(svg)
    segments = [el.get("points").split() for el in root.iter(f"{SVG}polyline")]
    for before, after in zip(segments, segments[1:]):
        assert before[-1] == after[0]
    # Every segment stays within the plot's frame, x = 70 to 560.
    assert all(70 <= float(xy.split(",")[0]) <= 560 for segment in segments for xy in segment)


def test_rank_flip_plot_dots_both_ends_of_every_fit(tmp_path):
    from annealplan.cli import main
    from annealplan.simulate import generate_manifest, scenario_rank_flip

    manifest = tmp_path / "flip.json"
    manifest.write_bytes(generate_manifest(scenario_rank_flip(7)))
    out_svg = tmp_path / "flip.svg"
    code = main(["fit", "--manifest", str(manifest), "--basis", "total",
                 "--svg", str(out_svg), "--out", str(tmp_path / "flip.csv")])
    assert code == 0
    styles = line_styles(out_svg.read_text(encoding="utf-8"))
    # The padded plot reaches past every point, so each fit is dotted at both ends.
    assert [dash for _, dash in styles] == ["3,4", None, "3,4"] * 2
    assert len({stroke for stroke, _ in styles}) == 2
