import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurobeam.arraygeom import (
    ArraySpec,
    ground_truth_map,
    steering_set,
    uca_positions,
    zone_of_angle,
)

# 2*pi*1000*0.05/343, evaluated by hand and frozen.
HAND_PHASE = 0.9159162255363829


def test_uca_closed_form_m4():
    pos = uca_positions(4, 0.05)
    expected = np.array(
        [[0.05, 0, 0], [0, 0.05, 0], [-0.05, 0, 0], [0, -0.05, 0]]
    )
    assert np.allclose(pos, expected, atol=1e-15)


def test_uca_centroid_is_origin():
    for m in (3, 4, 6, 9):
        assert np.allclose(uca_positions(m, 0.07).mean(axis=0), 0.0, atol=1e-15)


def test_uca_hexagon_side_equals_radius():
    pos = uca_positions(6, 0.05)
    sides = np.linalg.norm(pos - np.roll(pos, -1, axis=0), axis=1)
    assert np.allclose(sides, 0.05)


# Zone n of this grid is centered at azimuth n - 1 degrees.
WHOLE_DEGREES = 360


def test_steering_zero_frequency_is_ones():
    array = ArraySpec(mics=6, radius_m=0.05)
    assert np.allclose(steering_set(array, WHOLE_DEGREES, [0.0])[73, 0], np.ones(6))


def test_steering_mic_at_origin_is_unity():
    array = ArraySpec(mics=2, positions=((0.0, 0.0, 0.0), (0.1, 0.0, 0.0)))
    a = steering_set(array, WHOLE_DEGREES, [100.0, 1000.0, 7999.0])[30]  # [F x M]
    assert np.allclose(a[:, 0], 1.0, rtol=0.0, atol=1e-12)


def test_steering_hand_phase():
    array = ArraySpec(mics=2, positions=((0.05, 0.0, 0.0), (-0.05, 0.0, 0.0)))
    a = steering_set(array, WHOLE_DEGREES, [1000.0])[0, 0]
    assert np.angle(a[0]) == pytest.approx(HAND_PHASE, abs=1e-12)


def test_steering_unit_modulus(rng):
    array = ArraySpec(mics=5, positions=tuple(map(tuple, rng.uniform(-0.1, 0.1, size=(5, 3)))))
    a = steering_set(array, WHOLE_DEGREES, rng.uniform(0, 8000, size=20))
    assert np.abs(np.abs(a) - 1.0).max() < 1e-12


def test_steering_conjugate_symmetry_in_frequency():
    array = ArraySpec(mics=6, radius_m=0.05)
    f = np.array([125.0, 1000.0, 3000.0])
    a = steering_set(array, WHOLE_DEGREES, np.concatenate([-f, f]))[40]
    assert np.allclose(a[:3], np.conj(a[3:]))


def test_steering_sign_convention_delay_and_sum():
    # A plane wave built with the propagation model y = S * a(theta) must
    # produce its peak steered-response at theta.
    array = ArraySpec(mics=6, radius_m=0.1)
    freqs = np.linspace(100, 7900, 60)
    steering = steering_set(array, 12, freqs)
    theta_true = 60.0  # center of zone 3
    y = steering[2]  # [F x M] plane-wave snapshots, unit source
    scores = np.abs(np.einsum("fm,nfm->nf", np.conj(y), steering)).mean(axis=1)
    assert np.argmax(scores) + 1 == zone_of_angle(theta_true, 12)


def test_steering_set_shape_and_modulus():
    s = steering_set(ArraySpec(), 12, np.arange(0, 8000, 500.0))
    assert s.shape == (12, 16, 4)
    assert np.abs(np.abs(s) - 1.0).max() < 1e-12


def test_zone_boundaries_n12():
    assert zone_of_angle(0.0, 12) == 1
    assert zone_of_angle(180.0, 12) == 7
    assert zone_of_angle(15.0, 12) == 1
    assert zone_of_angle(15.0001, 12) == 2
    assert zone_of_angle(-15.0, 12) == 12


def test_zone_wraparound_periodicity():
    thetas = np.arange(-180.0, 540.0, 0.25)  # exactly representable steps
    z = zone_of_angle(thetas, 12)
    z_shifted = zone_of_angle(thetas - 360.0, 12)
    assert np.array_equal(z, z_shifted)


def test_zone_partition_dense_sweep():
    for n in (12, 36):
        thetas = np.arange(-180.0, 540.0, 0.25)
        z = zone_of_angle(thetas, n)
        assert z.min() >= 1 and z.max() <= n


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-1e6, 1e6, allow_nan=False), n=st.sampled_from([2, 5, 12, 36]))
def test_zone_total_function(theta, n):
    z = zone_of_angle(theta, n)
    assert 1 <= z <= n


def test_ground_truth_map_inactive_is_zero():
    z = ground_truth_map(np.full(5, np.nan), 12)
    assert z.shape == (5, 12)
    assert np.all(z == 0)


def test_ground_truth_map_row_sums(rng):
    track = rng.uniform(0, 360, size=20)
    track[::3] = np.nan
    z = ground_truth_map(track, 12)
    assert set(np.unique(z.sum(axis=1))) <= {0.0, 1.0}


def test_ground_truth_map_azimuth_90_zone_4():
    z = ground_truth_map(np.full(7, 90.0), 12)
    assert np.all(z[:, 3] == 1.0)
    assert z.sum() == 7


def test_geometry_validation():
    with pytest.raises(ValueError, match="at least 2 microphones"):
        ArraySpec(mics=1).mic_positions
    with pytest.raises(ValueError, match="array.positions: microphones 0 and 2 coincide"):
        ArraySpec(mics=3, positions=((0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.0, 0.0, 1e-9)))


def test_mic_positions_are_the_explicit_positions_else_the_uca():
    assert np.array_equal(ArraySpec(mics=6, radius_m=0.07).mic_positions, uca_positions(6, 0.07))
    pos = ((0.05, 0.0, 0.0), (-0.05, 0.0, 0.0), (0.0, 0.05, 0.0))
    spec = ArraySpec(mics=3, radius_m=0.07, positions=pos)
    assert spec.mic_positions.dtype == np.float64
    assert np.array_equal(spec.mic_positions, np.array(pos))
