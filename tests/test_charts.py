import xml.dom.minidom

import pytest

from memlens.charts import line_chart

# The default 640 x 420 chart plots x over [62, 622] and y over [374, 34].


@pytest.mark.parametrize("series, log_y, points", [
    ([("a", [0, 1, 2], [0.0, 5.0, 10.0])], False,
     "62.0,374.0 342.0,204.0 622.0,34.0"),
    # A single point and a flat series widen the empty range by one.
    ([("one", [3.0], [2.0])], False, "62.0,374.0"),
    ([("flat", [1, 2, 3], [0.5, 0.5, 0.5])], False,
     "62.0,374.0 342.0,374.0 622.0,374.0"),
    # On a log scale a zero is drawn one decade below the smallest
    # positive value, and decades are evenly spaced.
    ([("d", [1, 2, 3], [1.0, 0.1, 0.0])], True,
     "62.0,34.0 342.0,204.0 622.0,374.0"),
    # Beyond 2^53, where adding one is lost, the range reaches out to zero.
    ([("far", [1, 2], [1e16, 1e16])], False, "62.0,34.0 622.0,34.0"),
    ([("below", [1, 2], [-1e300, -1e300])], False, "62.0,374.0 622.0,374.0"),
    # A flat series spans the decade below it where the decade above overflows.
    ([("top", [1, 2], [1.7e308, 1.7e308])], True, "62.0,34.0 622.0,34.0"),
])
def test_line_chart_maps_data_ranges_onto_the_plot_area(series, log_y, points):
    svg = line_chart(series, log_y=log_y)
    assert f'<polyline points="{points}"' in svg


def test_line_chart_escapes_its_texts():
    svg = line_chart([("a<b & c>", [0, 1], [0.0, 1.0])], title="t & u",
                     x_label="<x>", y_label="y&")
    doc = xml.dom.minidom.parseString(svg)
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert {"a<b & c>", "t & u", "<x>", "y&"} <= set(texts)


def test_line_chart_shows_characters_xml_forbids_as_replacements():
    # Every C0 control but tab, newline and carriage return becomes U+FFFD;
    # an XML parser reads a lone carriage return as a newline.
    label = "".join(map(chr, range(0x20))) + "\x7f\u0085é"
    svg = line_chart([(label, [0, 1], [0.0, 1.0])], title=label)
    doc = xml.dom.minidom.parseString(svg)
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    shown = "".join(c if c in "\t\n\r" or c >= " " else "\ufffd" for c in label)
    assert texts.count(shown.replace("\r", "\n")) == 2


@pytest.mark.parametrize("ys", [[5e-324, 0.0], [1e-322, 0.0], [5e-324, 1.0]])
def test_log_charts_of_subnormal_values_render(ys):
    # The floor a decade below 1e-322 and the tick 10^-324 underflow to
    # zero; both stop at the smallest subnormal, whose log10 is finite.
    svg = line_chart([("tiny", [1, 2], ys)], log_y=True)
    doc = xml.dom.minidom.parseString(svg)
    points = doc.getElementsByTagName("polyline")[0].getAttribute("points")
    ys_drawn = [float(point.split(",")[1]) for point in points.split()]
    assert all(34.0 <= y <= 374.0 for y in ys_drawn)
