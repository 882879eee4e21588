"""SVG chart, text table, CSV, and report file bundle."""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET

import pytest

from errlens import Condition, ConditionStats, RegionReport
from errlens import report as report_module
from errlens.report import (
    render_error_plot,
    render_text_table,
    write_report_csv,
    write_report_files,
)


def region(text_feature: str = "f0", low: float = 1.5, coverage: int = 10,
           errors: int = 5, support: int = 3) -> ConditionStats:
    return ConditionStats(
        condition=Condition(feature=text_feature, low=low),
        support=support,
        support_fraction=0.5,
        coverage=coverage,
        errors_in_region=errors,
        error_rate=errors / coverage,
    )


def report_with(regions: tuple[ConditionStats, ...]) -> RegionReport:
    return RegionReport(
        split="test", n_total=40, n_misclassified=8, baseline_error_rate=0.2,
        regions=regions, config={"seed": 0},
    )


BAR = re.compile(r'<rect class="bar"[^>]*width="([0-9.]+)"')
BASELINE = re.compile(r'<line class="baseline"')


def test_chart_draws_one_bar_per_region_plus_the_baseline() -> None:
    svg = render_error_plot(report_with(
        (region(), region("f1"), region("f2"))
    ))
    assert len(BAR.findall(svg)) == 3
    assert len(BASELINE.findall(svg)) == 1


def test_chart_with_no_regions_still_has_axes_and_baseline() -> None:
    svg = render_error_plot(report_with(()))
    assert len(BAR.findall(svg)) == 0
    assert len(BASELINE.findall(svg)) == 1
    assert svg.count('<line class="axis"') == 2


def test_a_total_failure_bar_spans_the_full_chart_width() -> None:
    svg = render_error_plot(report_with(
        (region(coverage=10, errors=10),)
    ))
    width = float(BAR.search(svg).group(1))
    assert abs(width - (report_module._WIDTH - 2 * report_module._MARGIN)) <= 0.5


def test_chart_truncates_to_the_configured_region_limit() -> None:
    regions = tuple(region(f"f{i}") for i in range(25))
    svg = render_error_plot(report_with(regions))
    assert len(BAR.findall(svg)) == 20


def test_chart_is_standalone_well_formed_svg() -> None:
    svg = render_error_plot(report_with((region(),)))
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    assert "href" not in svg  # no external resources


def test_chart_escapes_markup_in_category_labels() -> None:
    hostile = ConditionStats(
        condition=Condition(feature="c", category="a<b&c"),
        support=1, support_fraction=1.0, coverage=2, errors_in_region=1,
        error_rate=0.5,
    )
    svg = render_error_plot(report_with((hostile,)))
    assert "a<b&c" not in svg
    assert "a&lt;b&amp;c" in svg
    ET.fromstring(svg)


def test_error_rates_display_with_three_decimals() -> None:
    third = region(coverage=3, errors=1)
    svg = render_error_plot(report_with((third,)))
    table = render_text_table(report_with((third,)))
    assert "0.333" in svg
    assert "0.333" in table


def test_text_table_is_a_header_plus_one_line_per_region() -> None:
    one = render_text_table(report_with((region(),)))
    assert len(one.splitlines()) == 2
    empty = render_text_table(report_with(()))
    assert empty.splitlines() == ["condition  support  coverage  errors  error_rate"]


def test_text_table_columns_align_and_carry_the_counts() -> None:
    text = render_text_table(report_with((region(coverage=10, errors=5,
                                                 support=3),)))
    assert text == (
        "condition  support  coverage  errors  error_rate\n"
        "f0 > 1.5         3        10       5       0.500\n"
    )


def test_csv_report_is_byte_stable(tmp_path) -> None:
    path = str(tmp_path / "r.csv")
    write_report_csv(report_with((region(),)), path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == (
            "condition,support,coverage,errors,error_rate\n"
            "f0 > 1.5,3,10,5,0.500\n"
        )


def test_report_bundle_writes_four_files_byte_identically(tmp_path) -> None:
    report = report_with((region(), region("f1", coverage=20, errors=4)))
    paths = write_report_files(report, str(tmp_path))
    assert sorted(paths) == ["csv", "json", "svg", "table"]
    first = {}
    for kind, p in paths.items():
        with open(p, "rb") as fh:
            first[kind] = fh.read()
    paths_again = write_report_files(report, str(tmp_path))
    assert paths_again == paths
    for kind, p in paths.items():
        with open(p, "rb") as fh:
            assert fh.read() == first[kind]


@pytest.mark.parametrize("split, names", [
    ("all", ["report.csv", "report.json", "report.svg", "table.txt"]),
    ("test", ["report_test.csv", "report_test.json", "report_test.svg", "table_test.txt"]),
])
def test_report_files_are_named_from_the_split(tmp_path, split, names) -> None:
    report = RegionReport(split=split, n_total=40, n_misclassified=8,
                          baseline_error_rate=0.2, regions=(region(),), config={})
    paths = write_report_files(report, str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths.values()) == names
    assert sorted(os.listdir(tmp_path)) == names
