import math

import numpy as np
import pytest

from arraycov.deembed import (
    BeamWindow,
    PortLossTable,
    apply_losses,
    estimate_losses,
    load_loss_csv,
    save_loss_csv,
)
from arraycov.errors import EstimationError, ParseError
from arraycov.grid import Direction, make_regular_grid
from arraycov.pattern import ElementPatternSet

# published per-port loss estimates used as synthetic ground truth
PORT_LOSSES_DB = {
    "1V": 10.7,
    "2H": 10.4,
    "3V": 10.3,
    "4H": 11.0,
    "5V": 12.4,
    "6H": 12.1,
    "7V": 13.1,
    "8H": 14.4,
}


def smooth_set(feeds, seed=0, theta_step=10.0, phi_step=30.0):
    grid = make_regular_grid(theta_step, phi_step)
    rng = np.random.default_rng(seed)
    shape = (len(feeds), len(grid), 2)
    # well away from the -60 dB floor
    gains = (1.5 + rng.uniform(size=shape)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, size=shape)
    )
    return ElementPatternSet(grid, tuple(feeds), gains)


def attenuate(pattern_set, losses_db):
    factors = np.array(
        [10.0 ** (-losses_db[f] / 20.0) for f in pattern_set.feeds]
    )
    return ElementPatternSet(
        pattern_set.grid,
        pattern_set.feeds,
        pattern_set.gains * factors[:, None, None],
    )


def boresight_windows(feeds, center=Direction(90.0, 0.0), half_width=60.0):
    return {f: BeamWindow(center, half_width) for f in feeds}


def test_recovers_published_port_losses():
    feeds = tuple(PORT_LOSSES_DB)
    simulated = smooth_set(feeds, seed=1)
    measured = attenuate(simulated, PORT_LOSSES_DB)
    table = estimate_losses(simulated, measured, boresight_windows(feeds))
    for feed in feeds:
        assert abs(table.loss(feed) - PORT_LOSSES_DB[feed]) < 1e-9


def test_identical_sets_give_zero():
    feeds = ("1V", "2H")
    simulated = smooth_set(feeds, seed=2)
    table = estimate_losses(simulated, simulated, boresight_windows(feeds))
    for feed in feeds:
        assert abs(table.loss(feed)) < 1e-12


def test_estimate_then_apply_round_trip():
    feeds = tuple(PORT_LOSSES_DB)
    simulated = smooth_set(feeds, seed=3)
    measured = attenuate(simulated, PORT_LOSSES_DB)
    table = estimate_losses(simulated, measured, boresight_windows(feeds))
    restored = apply_losses(measured, table)
    for feed in feeds:
        db_sim = 10 * np.log10(simulated.power_gain(feed))
        db_res = 10 * np.log10(restored.power_gain(feed))
        assert np.abs(db_sim - db_res).max() < 1e-9


def test_common_offset_invariance():
    feeds = ("1V", "2H")
    simulated = smooth_set(feeds, seed=4)
    measured = attenuate(simulated, {"1V": 3.0, "2H": 5.0})
    windows = boresight_windows(feeds)
    base = estimate_losses(simulated, measured, windows)
    scale = 10.0 ** (7.5 / 20.0)
    shifted = estimate_losses(
        ElementPatternSet(simulated.grid, feeds, simulated.gains * scale),
        ElementPatternSet(measured.grid, feeds, measured.gains * scale),
        windows,
    )
    for feed in feeds:
        assert shifted.loss(feed) == pytest.approx(base.loss(feed), abs=1e-12)


def test_apply_preserves_phase_and_polarization_ratio():
    feeds = ("1V",)
    measured = smooth_set(feeds, seed=5)
    table = PortLossTable(feeds, {"1V": 20.0}, {"1V": 60.0})
    restored = apply_losses(measured, table)
    np.testing.assert_allclose(
        np.angle(restored.gains), np.angle(measured.gains), rtol=0, atol=1e-15
    )
    ratio_before = np.abs(measured.gains[0, :, 0]) / np.abs(measured.gains[0, :, 1])
    ratio_after = np.abs(restored.gains[0, :, 0]) / np.abs(restored.gains[0, :, 1])
    np.testing.assert_allclose(ratio_after, ratio_before, rtol=1e-12)
    db_up = 10 * np.log10(restored.power_gain("1V") / measured.power_gain("1V"))
    np.testing.assert_allclose(db_up, 20.0, atol=1e-9)


def test_zero_loss_is_identity():
    feeds = ("1V",)
    measured = smooth_set(feeds, seed=6)
    table = PortLossTable(feeds, {"1V": 0.0}, {"1V": 60.0})
    restored = apply_losses(measured, table)
    np.testing.assert_array_equal(restored.gains, measured.gains)


def test_floor_excludes_nulls():
    feeds = ("1V",)
    simulated = smooth_set(feeds, seed=7)
    # zero out some in-window directions in both sets; they must not
    # poison the mean
    gains = np.array(simulated.gains)
    gains[0, 5:10, :] = 0.0
    simulated = ElementPatternSet(simulated.grid, feeds, gains)
    measured = attenuate(simulated, {"1V": 10.7})
    table = estimate_losses(simulated, measured, boresight_windows(feeds))
    assert abs(table.loss("1V") - 10.7) < 1e-9


def test_empty_window_raises():
    feeds = ("1V",)
    simulated = smooth_set(feeds, seed=8)
    measured = ElementPatternSet(
        simulated.grid, feeds, np.zeros_like(simulated.gains)
    )
    with pytest.raises(EstimationError):
        estimate_losses(simulated, measured, boresight_windows(feeds))


def test_window_mask_wraps_phi():
    grid = make_regular_grid(30.0, 30.0)
    window = BeamWindow(Direction(90.0, 350.0), 20.0)
    mask = window.mask(grid)
    sel = set(zip(grid.theta_deg[mask].tolist(), grid.phi_deg[mask].tolist()))
    assert (90.0, 0.0) in sel
    assert (90.0, 330.0) in sel
    assert (90.0, 30.0) not in sel


def test_window_validation():
    with pytest.raises(ValueError):
        BeamWindow(Direction(90.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        BeamWindow(Direction(90.0, 0.0), 91.0)
    assert BeamWindow(Direction(0.0, 0.0)).half_width_deg == 60.0


def test_mismatched_inputs_rejected():
    simulated = smooth_set(("1V",), seed=9)
    other_grid = smooth_set(("1V",), seed=9, theta_step=30.0, phi_step=90.0)
    with pytest.raises(ValueError, match="grid"):
        estimate_losses(simulated, other_grid, boresight_windows(("1V",)))
    renamed = ElementPatternSet(simulated.grid, ("2H",), simulated.gains)
    with pytest.raises(ValueError, match="feed"):
        estimate_losses(simulated, renamed, boresight_windows(("1V",)))


def test_missing_window_raises():
    simulated = smooth_set(("1V", "2H"), seed=10)
    with pytest.raises(KeyError):
        estimate_losses(simulated, simulated, boresight_windows(("1V",)))


def test_missing_feed_in_table_raises():
    measured = smooth_set(("1V", "2H"), seed=11)
    table = PortLossTable(("1V",), {"1V": 1.0}, {"1V": 60.0})
    with pytest.raises(KeyError):
        apply_losses(measured, table)


def test_linear_mean_switch():
    feeds = ("1V",)
    simulated = smooth_set(feeds, seed=12)
    measured = attenuate(simulated, {"1V": 10.7})
    windows = boresight_windows(feeds)
    # constant offset: both definitions agree
    a = estimate_losses(simulated, measured, windows, linear_mean=False)
    b = estimate_losses(simulated, measured, windows, linear_mean=True)
    assert a.loss("1V") == pytest.approx(b.loss("1V"), abs=1e-9)
    # non-constant difference: they may not
    rng = np.random.default_rng(13)
    bumpy = ElementPatternSet(
        measured.grid,
        feeds,
        measured.gains * (1.0 + 0.4 * rng.uniform(size=measured.gains.shape)),
    )
    a = estimate_losses(simulated, bumpy, windows, linear_mean=False)
    b = estimate_losses(simulated, bumpy, windows, linear_mean=True)
    assert a.loss("1V") != pytest.approx(b.loss("1V"), abs=1e-6)


def test_loss_csv_round_trip(tmp_path):
    feeds = tuple(PORT_LOSSES_DB)
    table = PortLossTable(
        feeds, dict(PORT_LOSSES_DB), {f: 60.0 for f in feeds}
    )
    path = tmp_path / "losses.csv"
    save_loss_csv(table, path)
    loaded = load_loss_csv(path)
    assert loaded.feeds == feeds
    for feed in feeds:
        assert loaded.loss(feed) == table.loss(feed)
        assert loaded.window_halfwidth_deg[feed] == 60.0


def test_loss_csv_errors(tmp_path):
    path = tmp_path / "losses.csv"
    path.write_text("feed,loss\n")
    with pytest.raises(ParseError):
        load_loss_csv(path)
    path.write_text("feed,loss_db,window_halfwidth_deg\n1V,abc,60\n")
    with pytest.raises(ParseError) as err:
        load_loss_csv(path)
    assert err.value.row == 2
    path.write_text("feed,loss_db,window_halfwidth_deg\n")
    with pytest.raises(ParseError):
        load_loss_csv(path)
    path.write_text("feed,loss_db,window_halfwidth_deg\n1V,1.0,60\n1V,2.0,60\n")
    with pytest.raises(ParseError):
        load_loss_csv(path)
    path.write_text("feed,loss_db,window_halfwidth_deg\n1V,inf,60\n")
    with pytest.raises(ParseError, match="not finite") as err:
        load_loss_csv(path)
    assert err.value.path == path


def test_table_validation():
    with pytest.raises(ValueError):
        PortLossTable(("1V",), {"1V": math.inf}, {"1V": 60.0})
    table = PortLossTable(("1V",), {"1V": 1.5}, {"1V": 60.0})
    with pytest.raises(KeyError):
        table.loss("9V")
