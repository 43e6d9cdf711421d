"""ASCII plotting for figure outputs.

The benchmark harness renders its series numerically; these helpers add a
terminal-friendly visual rendering so Figure 8's density plot and the
sweep figures read like the paper's plots without any plotting
dependency.
"""

from __future__ import annotations

_GLYPHS = " .:-=+*#%@"


def ascii_density(series: dict[str, list[tuple[float, float]]],
                  width: int | None = None,
                  x_label: str = "delay (ns)") -> str:
    """Render density series as one intensity row per benchmark.

    Each series' densities are normalised to its own peak, so every row
    shows the *shape* of its distribution (the paper's Figure 8 point)
    regardless of absolute scale.
    """
    if not series:
        return "(no data)"
    lines = []
    name_width = max(len(name) for name in series) + 2
    for name, points in series.items():
        if not points or all(d == 0 for _x, d in points):
            lines.append(f"{name:<{name_width}}(no samples)")
            continue
        peak = max(d for _x, d in points)
        row = "".join(
            _GLYPHS[min(int(d / peak * (len(_GLYPHS) - 1) + 0.5),
                        len(_GLYPHS) - 1)]
            for _x, d in points
        )
        lines.append(f"{name:<{name_width}}|{row}|")
    xs = [x for _n, pts in series.items() for x, _d in pts]
    if xs:
        lines.append(f"{'':<{name_width}} {x_label}: "
                     f"{min(xs):.0f} .. {max(xs):.0f}")
    return "\n".join(lines)

