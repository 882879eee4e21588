"""Report artifacts: canonical JSON, CSV, a dependency-free SVG chart, and a
fixed-width text table.

The SVG is assembled as plain SVG 1.1 markup -- one ``rect.bar`` per region,
a dashed ``line.baseline`` at the split's baseline error rate -- with all
coordinates formatted to fixed decimals so identical reports always render
byte-identical files.  Error rates are displayed with three decimals
(Python's round-half-to-even formatting) everywhere a human reads them;
the JSON keeps full precision.
"""

from __future__ import annotations

import csv
import os

from .regions import RegionReport
from .serialize import canonical_json, write_text


# Geometry and colours of the error-rate chart, and the most regions it draws.
_WIDTH = 900
_HEIGHT = 480
_MARGIN = 48
_FONT_SIZE = 12
_BAR_COLOR = "#4a90d9"
_BASELINE_COLOR = "#c0392b"
_AXIS_COLOR = "#333333"
_MAX_REGIONS = 20
# what ``html.escape(text, quote=False)`` replaces, for text between SVG tags
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _num(x: float) -> str:
    return f"{x:.2f}"


def render_error_plot(report: RegionReport) -> str:
    """SVG chart of per-region error rates, worst regions on top.

    Bars span ``error_rate * chart width``; the dashed vertical line marks
    the baseline error rate.  At most _MAX_REGIONS regions are drawn.  An
    empty report still renders the axes and baseline.
    """
    regions = report.regions[:_MAX_REGIONS]
    left = top = _MARGIN
    chart_w = _WIDTH - 2 * _MARGIN
    chart_h = _HEIGHT - 2 * _MARGIN
    bottom = top + chart_h
    fs = _FONT_SIZE

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<text x="{_num(left)}" y="{_num(top - fs)}" '
        f'font-size="{fs + 2}" fill="{_AXIS_COLOR}">'
        f'{report.split.translate(_ESCAPE)} split: region error rates '
        f'(baseline {report.baseline_error_rate:.3f}, '
        f'{report.n_misclassified}/{report.n_total} misclassified)</text>',
    ]

    # axes and x ticks
    parts.append(
        f'<line class="axis" x1="{_num(left)}" y1="{_num(top)}" '
        f'x2="{_num(left)}" y2="{_num(bottom)}" stroke="{_AXIS_COLOR}"/>'
    )
    parts.append(
        f'<line class="axis" x1="{_num(left)}" y1="{_num(bottom)}" '
        f'x2="{_num(left + chart_w)}" y2="{_num(bottom)}" '
        f'stroke="{_AXIS_COLOR}"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + tick * chart_w
        parts.append(
            f'<line class="tick" x1="{_num(x)}" y1="{_num(bottom)}" '
            f'x2="{_num(x)}" y2="{_num(bottom + 4)}" stroke="{_AXIS_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_num(x)}" y="{_num(bottom + 4 + fs)}" '
            f'font-size="{fs}" text-anchor="middle" '
            f'fill="{_AXIS_COLOR}">{tick:.2f}</text>'
        )

    if regions:
        row_h = chart_h / len(regions)
        bar_h = min(0.45 * row_h, 18.0)
        for i, region in enumerate(regions):
            y_row = top + i * row_h
            label = (f"{region.condition.text}  "
                     f"(rate {region.error_rate:.3f}, "
                     f"n={region.coverage})")
            parts.append(
                f'<text x="{_num(left + 4)}" y="{_num(y_row + fs)}" '
                f'font-size="{fs}" fill="{_AXIS_COLOR}">'
                f'{label.translate(_ESCAPE)}</text>'
            )
            parts.append(
                f'<rect class="bar" x="{_num(left)}" '
                f'y="{_num(y_row + row_h - bar_h - 2)}" '
                f'width="{_num(region.error_rate * chart_w)}" '
                f'height="{_num(bar_h)}" fill="{_BAR_COLOR}"/>'
            )

    x_base = left + report.baseline_error_rate * chart_w
    parts.append(
        f'<line class="baseline" x1="{_num(x_base)}" y1="{_num(top)}" '
        f'x2="{_num(x_base)}" y2="{_num(bottom)}" '
        f'stroke="{_BASELINE_COLOR}" stroke-dasharray="4 3"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_COLUMNS = ("condition", "support", "coverage", "errors", "error_rate")


def _table_rows(report: RegionReport) -> list[tuple[str, ...]]:
    return [
        (r.condition.text, str(r.support), str(r.coverage),
         str(r.errors_in_region), f"{r.error_rate:.3f}")
        for r in report.regions
    ]


def render_text_table(report: RegionReport) -> str:
    """Fixed-width table of the report's regions: a header line, then one
    line per region."""
    rows = _table_rows(report)
    widths = [
        max(len(_COLUMNS[c]), *(len(row[c]) for row in rows), 1)
        if rows else len(_COLUMNS[c])
        for c in range(len(_COLUMNS))
    ]

    def line(cells: tuple[str, ...]) -> str:
        return "  ".join(
            cells[c].ljust(widths[c]) if c == 0 else cells[c].rjust(widths[c])
            for c in range(len(cells))
        ).rstrip()

    out = [line(_COLUMNS)]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def write_report_csv(report: RegionReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(_table_rows(report))


def write_report_files(report: RegionReport, out_dir: str) -> dict[str, str]:
    """Write ``report.json/.csv/.svg`` and ``table.txt`` for the split
    ``"all"``, and ``report_<split>.*`` and ``table_<split>.txt`` for any
    other split.

    Returns the written paths keyed by artifact kind.  Writing the same
    report twice produces byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    suffix = "" if report.split == "all" else f"_{report.split}"
    paths = {kind: os.path.join(out_dir, f"report{suffix}.{kind}")
             for kind in ("json", "csv", "svg")}
    paths["table"] = os.path.join(out_dir, f"table{suffix}.txt")
    write_text(paths["json"], canonical_json(report.to_json_obj()))
    write_report_csv(report, paths["csv"])
    write_text(paths["svg"], render_error_plot(report))
    write_text(paths["table"], render_text_table(report))
    return paths
