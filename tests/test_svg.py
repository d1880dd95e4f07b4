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
