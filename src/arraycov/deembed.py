"""Per-feed implementation-loss estimation and correction.

Losses of cables, connectors and feed lines are estimated as the mean
dB difference between simulated and measured power gains inside a
per-feed main-beam window, then applied to the measured complex
patterns as a magnitude factor. Phase is left untouched: the
exhaustive quantized-phase search downstream absorbs phase offsets.
"""

import math

import numpy as np

from .ioutil import ParseError, parse_floats, table_rows, write_csv
from .pattern import ElementPatternSet

DEFAULT_WINDOW_HALFWIDTH_DEG = 60.0

# power gains below this are pattern nulls; dB differences there are
# numerically unstable and excluded from the window mean
DEFAULT_FLOOR_DB = -60.0


class BeamWindow:
    """Rectangular (theta, phi) chart window around a boresight."""

    __slots__ = ("center", "half_width_deg")

    def __init__(self, center, half_width_deg=DEFAULT_WINDOW_HALFWIDTH_DEG):
        if not (0.0 < half_width_deg <= 90.0):
            raise ValueError(f"window half-width must be in (0, 90], got {half_width_deg}")
        self.center, self.half_width_deg = center, half_width_deg

    def mask(self, grid) -> np.ndarray:
        dtheta = np.abs(grid.theta_deg - self.center.theta_deg)
        dphi = np.abs(grid.phi_deg - self.center.phi_deg)
        dphi = np.minimum(dphi, 360.0 - dphi)
        return (dtheta <= self.half_width_deg) & (dphi <= self.half_width_deg)


class PortLossTable:
    """Per-feed magnitude corrections in dB, with their window widths."""

    __slots__ = ("feeds", "loss_db", "window_halfwidth_deg")

    def __init__(self, feeds, loss_db, window_halfwidth_deg):
        feeds = tuple(feeds)
        # the finite values load_loss_csv reads back from save_loss_csv
        for feed in feeds:
            for what, values in (("loss", loss_db), ("window half-width", window_halfwidth_deg)):
                value = values.get(feed)
                if value is None or not math.isfinite(value):
                    raise ValueError(f"{what} for feed {feed} is missing or not finite: {value}")
        self.feeds, self.loss_db, self.window_halfwidth_deg = feeds, loss_db, window_halfwidth_deg

    def loss(self, feed) -> float:
        if feed not in self.loss_db:
            raise KeyError(f"feed {feed!r} not in loss table")
        return self.loss_db[feed]


def estimate_losses(
    simulated: ElementPatternSet,
    measured: ElementPatternSet,
    windows: dict,
    floor_db=DEFAULT_FLOOR_DB,
) -> PortLossTable:
    """Per-feed mean main-beam dB difference, simulated minus measured.

    windows maps feed label to BeamWindow. Directions where either
    power gain sits below floor_db are excluded. The loss is the mean
    of the per-direction dB differences, the literal reading of the
    method.
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
            raise ArithmeticError(
                f"no usable directions in the beam window for feed {feed}"
            )
        diff = 10.0 * (np.log10(p_sim[mask]) - np.log10(p_meas[mask]))
        losses[feed] = float(diff.mean())
        halfwidths[feed] = window.half_width_deg
    return PortLossTable(tuple(simulated.feeds), losses, halfwidths)


def apply_losses(measured: ElementPatternSet, table: PortLossTable) -> ElementPatternSet:
    """Scale each feed's complex samples by 10^(loss/20).

    Polarization ratios and phases are unchanged; every power gain of
    feed f moves up by exactly loss_f dB.
    """
    copy = ElementPatternSet(measured.grid, measured.feeds, measured.gains.copy())
    return apply_losses_in_place(copy, table)


def apply_losses_in_place(measured: ElementPatternSet, table: PortLossTable) -> ElementPatternSet:
    """apply_losses for a caller that holds the only reference to measured:
    its gains are scaled where they are, so no second copy is alive, and
    measured must not be used afterwards. Every factor is computed before
    the first write, so a KeyError, for a feed the table lacks, leaves
    the gains as they were."""
    factors = [10.0 ** (table.loss(feed) / 20.0) for feed in measured.feeds]
    gains = measured.gains
    gains.flags.writeable = True
    np.multiply(gains, np.array(factors)[:, np.newaxis, np.newaxis], out=gains)
    return ElementPatternSet(measured.grid, measured.feeds, gains)


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
        losses[feed], halfwidths[feed] = parse_floats(cells[1:], path, row, finite=True)
    if not losses:
        raise ParseError("no entries", path=path)
    return PortLossTable(tuple(losses), losses, halfwidths)
