"""Per-feed implementation-loss estimation and correction.

Losses of cables, connectors and feed lines are estimated as the mean
dB difference between simulated and measured power gains inside a
per-feed main-beam window, then applied to the measured complex
patterns as a magnitude factor. Phase is left untouched: the
exhaustive quantized-phase search downstream absorbs phase offsets.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimationError, ParseError
from .grid import Direction
from .ioutil import parse_floats, table_rows, write_csv
from .pattern import ElementPatternSet

DEFAULT_WINDOW_HALFWIDTH_DEG = 60.0

# power gains below this are pattern nulls; dB differences there are
# numerically unstable and excluded from the window mean
DEFAULT_FLOOR_DB = -60.0


@dataclass(frozen=True)
class BeamWindow:
    """Rectangular (theta, phi) chart window around a boresight."""

    center: Direction
    half_width_deg: float = DEFAULT_WINDOW_HALFWIDTH_DEG

    def __post_init__(self):
        if not (0.0 < self.half_width_deg <= 90.0):
            raise ValueError(
                f"window half-width must be in (0, 90], got {self.half_width_deg}"
            )

    def mask(self, grid) -> np.ndarray:
        dtheta = np.abs(grid.theta_deg - self.center.theta_deg)
        dphi = np.abs(grid.phi_deg - self.center.phi_deg)
        dphi = np.minimum(dphi, 360.0 - dphi)
        return (dtheta <= self.half_width_deg) & (dphi <= self.half_width_deg)


@dataclass(frozen=True)
class PortLossTable:
    """Per-feed magnitude corrections in dB, with their window widths."""

    feeds: tuple
    loss_db: dict = field(compare=False)
    window_halfwidth_deg: dict = field(compare=False)

    def __post_init__(self):
        feeds = tuple(self.feeds)
        for feed in feeds:
            loss = self.loss_db[feed]
            if not math.isfinite(loss):
                raise ValueError(f"loss for feed {feed} is not finite: {loss}")
        object.__setattr__(self, "feeds", feeds)

    def loss(self, feed) -> float:
        if feed not in self.loss_db:
            raise KeyError(f"feed {feed!r} not in loss table")
        return self.loss_db[feed]


def estimate_losses(
    simulated: ElementPatternSet,
    measured: ElementPatternSet,
    windows: dict,
    floor_db=DEFAULT_FLOOR_DB,
    linear_mean=False,
) -> PortLossTable:
    """Per-feed mean main-beam dB difference, simulated minus measured.

    windows maps feed label to BeamWindow. Directions where either
    power gain sits below floor_db are excluded. linear_mean switches
    to the ratio of window-mean linear powers instead of the mean of
    dB differences (default off, the literal reading of the method).
    """
    if not simulated.grid.same_directions(measured.grid):
        raise ValueError("simulated and measured sets must share a grid")
    if set(simulated.feeds) != set(measured.feeds):
        raise ValueError("simulated and measured sets must share feed labels")
    floor_lin = 10.0 ** (floor_db / 10.0)

    losses = {}
    halfwidths = {}
    for feed in simulated.feeds:
        if feed not in windows:
            raise KeyError(f"no beam window configured for feed {feed!r}")
        window = windows[feed]
        p_sim = simulated.power_gain(feed)
        p_meas = measured.power_gain(feed)
        mask = window.mask(simulated.grid) & (p_sim > floor_lin) & (p_meas > floor_lin)
        if not np.any(mask):
            raise EstimationError(
                f"no usable directions in the beam window for feed {feed}"
            )
        if linear_mean:
            loss = 10.0 * math.log10(p_sim[mask].mean() / p_meas[mask].mean())
        else:
            diff = 10.0 * (np.log10(p_sim[mask]) - np.log10(p_meas[mask]))
            loss = float(diff.mean())
        losses[feed] = loss
        halfwidths[feed] = window.half_width_deg
    return PortLossTable(tuple(simulated.feeds), losses, halfwidths)


def apply_losses(measured: ElementPatternSet, table: PortLossTable) -> ElementPatternSet:
    """Scale each feed's complex samples by 10^(loss/20).

    Polarization ratios and phases are unchanged; every power gain of
    feed f moves up by exactly loss_f dB.
    """
    factors = np.array(
        [10.0 ** (table.loss(feed) / 20.0) for feed in measured.feeds]
    )
    gains = measured.gains * factors[:, np.newaxis, np.newaxis]
    return replace(measured, gains=gains)


LOSS_CSV_HEADER = ["feed", "loss_db", "window_halfwidth_deg"]


def save_loss_csv(table: PortLossTable, path) -> None:
    feeds = table.feeds
    losses = [table.loss_db[feed] for feed in feeds]
    halfwidths = [table.window_halfwidth_deg[feed] for feed in feeds]
    write_csv(path, LOSS_CSV_HEADER, [feeds, losses, halfwidths])


def load_loss_csv(path) -> PortLossTable:
    losses, halfwidths = {}, {}
    for row, cells in table_rows(path, LOSS_CSV_HEADER):
        feed = cells[0].strip()
        if not feed or feed in losses:
            raise ParseError(
                f"missing or repeated feed label {feed!r}", path=path, row=row
            )
        losses[feed], halfwidths[feed] = parse_floats(cells[1:], path, row)
    if not losses:
        raise ParseError("no entries", path=path)
    try:
        return PortLossTable(tuple(losses), losses, halfwidths)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc
