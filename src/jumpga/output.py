"""Deterministic artifact writers: CSV series, JSON summaries, self-contained SVG plots.

Formatting is pinned so reruns with identical inputs produce byte-identical
files: floats at 9 significant digits with '.' as decimal separator, '\\n'
line endings, sorted JSON keys, and SVG built from fixed-precision strings
with no external assets.  A job that writes several series passes its CSV and
SVG writes one :class:`TextCache`, so each frequency text and x label is
formatted once per job; row times are formatted as they are written, and what
the cache holds changes no byte.
"""

from __future__ import annotations

import json
from math import copysign


def format_value(v) -> str:
    """Stable text form: floats at 9 significant digits, bools lowercase."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".9g")
    if v is None:
        return ""
    return str(v)


def _quoted(s: str) -> str:
    """``s`` as csv.writer's QUOTE_MINIMAL rule with a '\\n' line terminator
    writes it: in double quotes, inner quotes doubled, when it holds a comma,
    a double quote or a newline."""
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


class TextCache:
    """The number texts that one job's writers share.

    A ``figure1`` job writes a CSV and an SVG per replicate, and its series
    share frequency values and, when censored at one cap, their x span.
    Passed to every writer of the job, one cache formats each frequency text
    and x label once per job; row times are formatted as they are written, so
    the cache keeps no text per CSV row.  It holds only texts that its writers
    would format again, so no output byte depends on it.  Make one per job and
    drop it with the job: nothing formatted is kept from one job to the next.
    """

    def __init__(self) -> None:
        # Exact floats only, and zeros by sign, so values that compare equal
        # but format apart (1/True/1.0, 0.0/-0.0) never share an entry.
        self.floats: dict[float, str] = {}
        self.zeros = {1.0: format_value(0.0), -1.0: format_value(-0.0)}
        self.labels: dict[int, list[str]] = {}  # per x span, the x text of t at index t


def write_series_csv(rows, path, header, *, cache: TextCache | None = None) -> None:
    """Write one table; every cell reads as :func:`format_value` gives it.

    A cell that is a tuple fills one column per item.  A row whose first cell
    is a ``range`` stands for one line per item of the range, each line that
    item followed by the row's other cells, so a stretch of lines that differ
    only in their first column is one row: ``DistanceSeriesRun.runs`` is
    written as it is held, the shared cells of a stretch are formatted once,
    and the items of the range are formatted as they are written.  Each
    distinct float is formatted once per ``cache``: a job that writes several
    tables passes them one :class:`TextCache`, and the default is a fresh
    one.  Other text is quoted as csv.writer quotes it
    (:func:`_quoted`), and a row of one empty field is written as ``""``.
    """
    if cache is None:
        cache = TextCache()
    memo, zeros = cache.floats, cache.zeros
    get = memo.get

    def cell(v) -> str:
        t = type(v)
        if t is float:
            s = get(v) if v else zeros[copysign(1.0, v)]
            if s is None:
                s = memo[v] = format_value(v)
            return s
        if t is int:
            return str(v)
        return _quoted(format_value(v))

    def texts(cells) -> list[str]:
        return [cell(x) for v in cells for x in (v if type(v) is tuple else (v,))]

    def line(fields: list[str]) -> str:
        text = ",".join(fields)
        if not text and fields:
            text = '""'
        return text + "\n"

    def lines():
        for row in rows:
            if row and type(row[0]) is range:
                r = row[0]
                if r:
                    tail = ",".join(["", *texts(row[1:])]) + "\n"
                    yield tail.join(map(str, r)) + tail
            else:
                yield line(texts(row))

    with open(path, "w", newline="") as f:
        f.write(line([_quoted(h) for h in header]))
        f.writelines(lines())


def write_json(obj, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True))
        f.write("\n")


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
    "#aec7e8",
)

_W, _H = 880, 520
_ML, _MR, _MT, _MB = 64, 150, 28, 46


def _fmt(x: float) -> str:
    return format(x, ".2f")


def render_svg(rows, path, distances, title: str = "", *, cache: TextCache | None = None) -> None:
    """Plot distance-frequency series as one self-contained SVG.

    ``rows`` is a sequence of stretches ``(iterations, frequencies)``, as
    ``DistanceSeriesRun.runs`` holds them: each item of the range
    ``iterations`` is one point, and every point of a stretch has the
    stretch's frequencies, one per entry of ``distances``, in [0, 1].  Output
    bytes are a pure function of the inputs.  Each point's x text is formatted
    once per ``cache`` and x span; a job that draws several series passes them
    one :class:`TextCache`, and the default is a fresh one.
    """
    if cache is None:
        cache = TextCache()
    runs = [(times, freqs) for times, freqs in rows if times]
    if not runs:
        raise ValueError("nothing to plot: empty series")
    x_max = max(times[-1] for times, _ in runs)
    span = x_max if x_max > 0 else 1
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(t: float) -> float:
        return _ML + plot_w * (t / span)

    def sy(f: float) -> float:
        return _MT + plot_h * (1.0 - f)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<g stroke="#333" stroke-width="1" fill="none">'
        f'<path d="M {_fmt(_ML)} {_fmt(_MT)} V {_fmt(_MT + plot_h)} H {_fmt(_ML + plot_w)}"/></g>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(_ML + plot_w / 2)}" y="18" font-family="monospace" '
            f'font-size="13" text-anchor="middle">{title}</text>'
        )
    # y ticks at 0, 0.25, .., 1; x ticks at 5 even positions
    for i in range(5):
        f = i / 4
        y = sy(f)
        parts.append(
            f'<line x1="{_fmt(_ML - 4)}" y1="{_fmt(y)}" x2="{_fmt(_ML)}" y2="{_fmt(y)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 8)}" y="{_fmt(y + 4)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{format(f, ".2f")}</text>'
        )
    for i in range(5):
        t = span * i / 4
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MT + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_MT + plot_h + 4)}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_MT + plot_h + 18)}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{format(t, ".6g")}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_ML + plot_w / 2)}" y="{_fmt(_H - 8)}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">iteration</text>'
    )
    # x is formatted once per point and span.  The span's texts hold the x of
    # each t at index t, formatted in one "%" up to x_max when that formats no
    # more texts than the series has points (as when its stretches tile 0 ..
    # x_max at step 1); a stretch at step 1 that they cover reads a slice, and
    # any other is formatted as it is drawn.  Each distinct y is formatted once
    # per series (equal frequencies give equal sy(f)), and "%.2f" rounds
    # exactly as _fmt does.  The points of a stretch share their y, so one join
    # writes them all.
    texts = cache.labels.setdefault(span, [])
    if len(texts) <= x_max < len(texts) + sum(len(t) for t, _ in runs):
        missing = range(len(texts), x_max + 1)
        texts += ("%.2f " * len(missing) % tuple([_ML + plot_w * (t / span) for t in missing])).split()
    done = len(texts)
    xs = [
        texts[t.start : t.stop]
        if t.step == 1 and 0 <= t.start and t.stop <= done
        else ["%.2f" % sx(x) for x in t]
        for t, _ in runs
    ]
    for ci, d in enumerate(distances):
        color = _PALETTE[ci % len(_PALETTE)]
        fs = [freqs[ci] for _, freqs in runs]
        ys = {f: ",%.2f" % sy(f) for f in set(fs)}
        pts = [(ys[f] + " ").join(x) + ys[f] for x, f in zip(xs, fs)]
        if len(xs) == 1 and len(xs[0]) == 1:
            cx, cy = pts[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 16 + 18 * ci
        lx = _ML + plot_w + 12
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-family="monospace" '
            f'font-size="12">distance {d}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as f:
        f.write("\n".join(parts))
        f.write("\n")
