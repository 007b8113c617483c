import math

import numpy as np
import pytest

from orbitforge.orbits import (
    Camera,
    CameraPose,
    DynamicOrbitParams,
    Orbit,
    adaptive_distance,
    camera_matrix,
    camera_position,
    dynamic_orbit,
    load_orbit,
    pose_embedding,
    save_orbit,
    sine_elevation_orbit,
    static_orbit,
    subsample_orbit,
)


class TestStaticOrbit:
    def test_four_frame_azimuths(self):
        orb = static_orbit(4, 0.0)
        np.testing.assert_allclose(orb.azimuths, [0.0, 90.0, 180.0, 270.0])

    def test_84_frame_step(self):
        orb = static_orbit(84, 10.0)
        deltas = np.diff(np.unwrap(np.radians(orb.azimuths)))
        np.testing.assert_allclose(np.degrees(deltas), 360.0 / 84)

    def test_constant_elevation(self):
        orb = static_orbit(21, 17.5)
        np.testing.assert_array_equal(orb.elevations, 17.5)

    def test_exact_deltas(self):
        for k in (3, 8, 21):
            orb = static_orbit(k, 5.0, start_azimuth_deg=30.0)
            az = orb.azimuths
            deltas = np.mod(np.roll(az, -1) - az, 360.0)
            np.testing.assert_allclose(deltas, 360.0 / k, atol=1e-12)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            static_orbit(1, 0.0)


class TestDynamicOrbit:
    def test_zero_amplitude_matches_static(self):
        params = DynamicOrbitParams(
            amplitude_range_deg=(0.0, 0.0), azimuth_noise_std_deg=0.0
        )
        rng = np.random.default_rng(0)
        orb = dynamic_orbit(rng, 12, CameraPose(10.0, 0.0), params)
        ref = static_orbit(12, 10.0)
        np.testing.assert_allclose(orb.elevations, ref.elevations, atol=1e-12)
        np.testing.assert_allclose(orb.azimuths, ref.azimuths, atol=1e-12)

    def test_reproducible_bitwise(self):
        a = dynamic_orbit(np.random.default_rng(42), 21, CameraPose(15.0, 0.0))
        b = dynamic_orbit(np.random.default_rng(42), 21, CameraPose(15.0, 0.0))
        assert a.elevations.tobytes() == b.elevations.tobytes()
        assert a.azimuths.tobytes() == b.azimuths.tobytes()

    def test_loop_closure_and_clamp_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            cond = CameraPose(rng.uniform(-5, 30), rng.uniform(0, 360))
            orb = dynamic_orbit(rng, 21, cond)
            assert abs(orb.poses[0].elevation_deg - cond.elevation_deg) < 1e-9
            assert abs(orb.poses[0].azimuth_deg - cond.azimuth_deg) < 1e-9
            assert np.max(np.abs(orb.elevations)) <= 89.0
            deltas = np.mod(np.roll(orb.azimuths, -1) - orb.azimuths, 360.0)
            assert abs(deltas.sum() - 360.0) < 1e-9

    def test_sinusoid_periodicity(self):
        # Whole-number periods close the sinusoid sum exactly at i = K.
        rng = np.random.default_rng(3)
        k = 21
        periods = rng.integers(1, 6, 3)
        amps = rng.uniform(0.5, 10.0, 3)
        phases = rng.uniform(0, 2 * np.pi, 3)
        at0 = sum(a * math.sin(ph) for a, ph in zip(amps, phases))
        atk = sum(
            a * math.sin(2 * math.pi * p + ph)
            for p, a, ph in zip(periods, amps, phases)
        )
        assert abs(at0 - atk) < 1e-9

    def test_smoothing_shift_equivariant(self):
        from orbitforge.orbits import _circular_smooth

        rng = np.random.default_rng(1)
        x = rng.normal(size=17)
        smoothed = _circular_smooth(x, 1)
        shifted = _circular_smooth(x + 3.7, 1)
        np.testing.assert_allclose(shifted, smoothed + 3.7, atol=1e-12)


class TestSineOrbit:
    def test_reference_amplitude_30(self):
        orb = sine_elevation_orbit(21, CameraPose(0.0, 0.0), 30.0)
        assert orb.elevations.max() == pytest.approx(30.0 * math.sin(2 * math.pi * 5 / 21))
        assert len(orb) == 21

    def test_starts_at_conditioning_pose(self):
        cond = CameraPose(12.0, 45.0)
        orb = sine_elevation_orbit(16, cond, 20.0)
        assert orb.poses[0] == cond

    def test_peak_at_quarter(self):
        orb = sine_elevation_orbit(20, CameraPose(5.0, 0.0), 30.0)
        assert orb.poses[5].elevation_deg == pytest.approx(35.0)

    def test_bound_violation_rejected(self):
        with pytest.raises(ValueError):
            sine_elevation_orbit(21, CameraPose(60.0, 0.0), 30.0)


class TestPoseEmbedding:
    def test_zero_angle(self):
        emb = pose_embedding(0.0, 8)
        np.testing.assert_array_equal(emb[0::2], 0.0)
        np.testing.assert_array_equal(emb[1::2], 1.0)

    def test_periodicity(self):
        for angle in (13.0, 123.4, 359.0):
            a = pose_embedding(angle, 16)
            b = pose_embedding(angle + 360.0, 16)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_two_dim_quarter_turn(self):
        np.testing.assert_allclose(pose_embedding(90.0, 2, 1.0), [1.0, 0.0], atol=1e-15)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            pose_embedding(0.0, 3)


class TestAdaptiveDistance:
    def test_right_angle_fov(self):
        assert adaptive_distance(0.5, 90.0, 1.0) == pytest.approx(math.sqrt(3) / 2)

    def test_linearity_in_extent(self):
        d1 = adaptive_distance(0.5, 33.8)
        d2 = adaptive_distance(1.0, 33.8)
        assert d2 == pytest.approx(2 * d1)

    def test_corners_project_inside_frame(self):
        # Geometric oracle: project all 8 bbox corners from every view of a
        # dense orbit and check they stay within the field of view.
        extent = 0.5
        fov = 33.8
        dist = adaptive_distance(extent, fov, margin=1.1)
        corners = np.array(
            [[sx * extent, sy * extent, sz * extent]
             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        tan_half = math.tan(math.radians(fov) / 2.0)
        for elev in (-60.0, 0.0, 45.0, 89.0):
            for azim in np.linspace(0.0, 352.0, 45):
                cam = Camera(CameraPose(elev, azim), dist)
                ext, _ = camera_matrix(cam)
                pts = (ext[:3, :3] @ corners.T).T + ext[:3, 3]
                assert np.all(pts[:, 2] > 0)
                ratios = np.abs(pts[:, :2]) / pts[:, 2:3]
                assert np.max(ratios) <= tan_half

    def test_distance_exceeds_bounding_radius(self):
        for fov in (20.0, 45.0, 89.0):
            d = adaptive_distance(0.5, fov, margin=1.0)
            assert d > 0.5 * math.sqrt(3)


class TestCameraMatrix:
    def test_reference_view(self):
        cam = Camera(CameraPose(0.0, 0.0), 2.0)
        ext, intr = camera_matrix(cam)
        np.testing.assert_allclose(cam.position, [2.0, 0.0, 0.0], atol=1e-12)
        origin_cam = ext[:3, :3] @ np.zeros(3) + ext[:3, 3]
        np.testing.assert_allclose(origin_cam, [0.0, 0.0, 2.0], atol=1e-12)
        assert intr[0, 0] == pytest.approx(cam.focal_px)

    def test_rotation_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cam = Camera(
                CameraPose(rng.uniform(-89, 89), rng.uniform(0, 360)),
                rng.uniform(1.5, 5.0),
            )
            ext, _ = camera_matrix(cam)
            rot = ext[:3, :3]
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_azimuth_wraparound_identical(self):
        a = camera_matrix(Camera(CameraPose(10.0, 37.5), 2.0))[0]
        b = camera_matrix(Camera(CameraPose(10.0, 397.5), 2.0))[0]
        np.testing.assert_array_equal(a, b)

    def test_camera_center_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cam = Camera(
                CameraPose(rng.uniform(-89, 89), rng.uniform(0, 360)),
                rng.uniform(1.0, 4.0),
            )
            ext, _ = camera_matrix(cam)
            out = ext[:3, :3] @ cam.position + ext[:3, 3]
            assert np.max(np.abs(out)) < 1e-12

    def test_pole_fallback(self):
        ext, _ = camera_matrix(Camera(CameraPose(90.0, 0.0), 2.0))
        rot = ext[:3, :3]
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)


class TestSubsample:
    def test_every_fourth_from_zero(self):
        full = static_orbit(84, 0.0)
        sub = subsample_orbit(full, 0)
        assert len(sub) == 21
        np.testing.assert_allclose(sub.azimuths, np.arange(21) * 4 * 360.0 / 84)

    def test_any_start_gives_21(self):
        full = static_orbit(84, 3.0)
        for start in (0, 1, 17, 83):
            assert len(subsample_orbit(full, start)) == 21

    def test_start_one_indices(self):
        full = static_orbit(84, 0.0)
        sub = subsample_orbit(full, 1)
        expected = [full.poses[(1 + 4 * j) % 84].azimuth_deg for j in range(21)]
        np.testing.assert_allclose(sub.azimuths, expected)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            subsample_orbit(static_orbit(21, 0.0), 0)


class TestOrbitIO:
    def test_round_trip(self, tmp_path):
        orb = dynamic_orbit(np.random.default_rng(9), 21, CameraPose(12.0, 0.0))
        path = tmp_path / "orbit.txt"
        save_orbit(path, orb)
        loaded = load_orbit(path)
        np.testing.assert_allclose(loaded.elevations, orb.elevations, atol=1e-7)
        np.testing.assert_allclose(loaded.azimuths, orb.azimuths, atol=1e-7)

    def test_rewrite_is_byte_identical(self, tmp_path):
        orb = sine_elevation_orbit(21, CameraPose(5.0, 0.0), 30.0)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_orbit(p1, orb)
        save_orbit(p2, load_orbit(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestPoseValidation:
    def test_azimuth_normalized(self):
        assert CameraPose(0.0, 370.0).azimuth_deg == pytest.approx(10.0)
        assert CameraPose(0.0, -10.0).azimuth_deg == pytest.approx(350.0)

    def test_elevation_bounds(self):
        with pytest.raises(ValueError):
            CameraPose(91.0, 0.0)

    def test_orbit_revolution_enforced(self):
        poses = (CameraPose(0, 0), CameraPose(0, 90), CameraPose(0, 45))
        with pytest.raises(ValueError):
            Orbit(poses)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CameraPose(10.0, math.nan),
            lambda: CameraPose(10.0, math.inf),
            lambda: CameraPose(math.nan, 0.0),
            lambda: Camera(CameraPose(10.0, 0.0), math.nan),
            lambda: Camera(CameraPose(10.0, 0.0), math.inf),
            lambda: Camera(CameraPose(10.0, 0.0), 2.0, math.nan),
            lambda: DynamicOrbitParams(azimuth_noise_std_deg=math.nan),
            lambda: DynamicOrbitParams(azimuth_noise_std_deg=math.inf),
            lambda: Camera(CameraPose(10.0, 0.0), 2.0, width=4, height=1.5),
            lambda: Camera(CameraPose(10.0, 0.0), 2.0, width=2.0, height=4),
            lambda: Camera(CameraPose(10.0, 0.0), 2.0, width=0, height=4),
            lambda: Camera(CameraPose(10.0, 0.0), 2.0, width=4, height=-1),
        ],
        ids=["azimuth-nan", "azimuth-inf", "elevation-nan", "distance-nan",
             "distance-inf", "fov-nan", "azimuth-noise-nan", "azimuth-noise-inf",
             "height-fractional", "width-float", "width-zero", "height-negative"],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(ValueError):
            make()
