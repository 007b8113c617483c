import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.grid import SceneGrid
from orbitforge.orbits import Camera, CameraPose, adaptive_distance
from orbitforge.render import (
    LightTable,
    camera_rays,
    intersect_unit_cube,
    render,
    render_backward,
)
from orbitforge.sg import Envmap, SphericalGaussian, fibonacci_sphere

N = 8
PX = 10
SAMPLES = 16
RTOL = 1e-5
BACKGROUND = (0.2, 0.4, 0.6)


def camera(px=PX, elevation=20.0, azimuth=35.0, fov=None):
    kwargs = {} if fov is None else {"fov_deg": fov}
    pose = CameraPose(elevation, azimuth)
    return Camera(pose, adaptive_distance(0.5), width=px, height=px, **kwargs)


def light_table():
    lobes = tuple(
        SphericalGaussian(axis, 4.0 + 2.0 * i, 0.5 + 0.25 * i)
        for i, axis in enumerate(fibonacci_sphere(3))
    )
    return LightTable(Envmap(lobes), n_theta=8, n_phi=16)


def scene(kind):
    rng = np.random.default_rng(3)
    x = np.linspace(-0.5, 0.5, N)
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    albedo = rng.uniform(0.2, 0.8, (N, N, N, 3))
    if kind == "sdf":
        return SceneGrid("sdf", r - 0.3, albedo, sdf_alpha=40.0, sdf_beta=0.05)
    return SceneGrid("density", 30.0 * np.exp(-((r / 0.25) ** 2)), albedo)


class TestBackwardMatchesCentralDifferences:
    """render_backward against central differences of a scalar loss on all four buffers.

    Shading normals are frozen through ``normals_override``, which is the
    stop-gradient the backward pass assumes.
    """

    @pytest.fixture(params=["density", "sdf"])
    def setup(self, request):
        grid = scene(request.param)
        cam = camera()
        light = light_table()
        bundle, cache, normals = render(
            grid, cam, light, samples_per_ray=SAMPLES, background=BACKGROUND,
            want_cache=True, want_sample_normals=True,
        )
        rng = np.random.default_rng(11)
        shape = (PX, PX)
        valid = bundle.valid
        assert valid.sum() > 10
        upstream = (
            rng.standard_normal(shape + (3,)),
            rng.standard_normal(shape),
            np.where(valid, rng.standard_normal(shape), 0.0),
            rng.standard_normal(shape),
        )
        grads = render_backward(cache, *upstream)

        def loss(grid=grid, light=light):
            b = render(grid, cam, light, samples_per_ray=SAMPLES, background=BACKGROUND,
                       normals_override=normals)
            g_rgb, g_mask, g_depth, g_illum = upstream
            depth = np.where(valid, b.depth, 0.0)
            return (np.sum(g_rgb * b.rgb) + np.sum(g_mask * b.mask)
                    + np.sum(g_depth * depth) + np.sum(g_illum * b.illum))

        return grid, light, grads, loss

    @staticmethod
    def central(loss_at, eps):
        return (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)

    @staticmethod
    def probes(grad, count=4):
        """Indices of the largest gradients."""
        largest = np.argsort(np.abs(grad).ravel())[-count:]
        return [np.unravel_index(i, grad.shape) for i in largest]

    def test_field(self, setup):
        grid, _, grads, loss = setup

        def loss_at(idx):
            def at(eps):
                field = grid.field.copy()
                field[idx] += eps
                return loss(SceneGrid(grid.kind, field, grid.albedo,
                                      grid.sdf_alpha, grid.sdf_beta))
            return at

        for idx in self.probes(grads.field):
            fd = self.central(loss_at(idx), 1e-6)
            assert grads.field[idx] == pytest.approx(fd, rel=RTOL)

    def test_albedo(self, setup):
        grid, _, grads, loss = setup

        def loss_at(idx):
            def at(eps):
                albedo = grid.albedo.copy()
                albedo[idx] += eps
                return loss(SceneGrid(grid.kind, grid.field, albedo,
                                      grid.sdf_alpha, grid.sdf_beta))
            return at

        for idx in self.probes(grads.albedo):
            fd = self.central(loss_at(idx), 1e-4)
            assert grads.albedo[idx] == pytest.approx(fd, rel=RTOL)

    def test_light_amplitudes(self, setup):
        _, light, grads, loss = setup
        base = light.amplitudes.copy()
        assert grads.light_amplitudes.shape == base.shape

        def loss_at(k):
            def at(eps):
                table = light_table()
                amps = base.copy()
                amps[k] += eps
                table.set_amplitudes(amps)
                return loss(light=table)
            return at

        for k in range(len(base)):
            fd = self.central(loss_at(k), 1e-4)
            assert grads.light_amplitudes[k] == pytest.approx(fd, rel=RTOL)


class TestInvariants:
    def test_empty_grid_renders_background(self):
        grid = SceneGrid.empty("density", 4)
        bundle = render(grid, camera(), light_table(), samples_per_ray=8,
                        background=BACKGROUND)
        np.testing.assert_array_equal(bundle.rgb, np.broadcast_to(BACKGROUND, bundle.rgb.shape))
        np.testing.assert_array_equal(bundle.mask, 0.0)
        assert np.all(np.isinf(bundle.depth))
        np.testing.assert_array_equal(bundle.illum, 0.0)
        np.testing.assert_array_equal(bundle.normal, 0.0)

    @given(
        density=st.floats(0.0, 500.0),
        seed=st.integers(0, 2**31 - 1),
        elevation=st.floats(-80.0, 80.0),
        azimuth=st.floats(0.0, 359.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_mask_in_unit_interval_and_misses_keep_background(
        self, density, seed, elevation, azimuth
    ):
        rng = np.random.default_rng(seed)
        grid = SceneGrid("density", density * rng.uniform(0.0, 1.0, (4, 4, 4)),
                         rng.uniform(0.0, 1.0, (4, 4, 4, 3)))
        # A wide field of view leaves the corner rays outside the cube.
        cam = camera(px=8, elevation=elevation, azimuth=azimuth, fov=90.0)
        bundle = render(grid, cam, light_table(), samples_per_ray=8, background=BACKGROUND,
                        jitter_seed=seed)
        assert np.all(bundle.mask >= 0.0) and np.all(bundle.mask <= 1.0)
        hit = intersect_unit_cube(*camera_rays(cam))[2]
        assert not hit.all()
        missed = bundle.rgb[~hit]
        np.testing.assert_array_equal(missed, np.broadcast_to(BACKGROUND, missed.shape))
        np.testing.assert_array_equal(bundle.mask[~hit], 0.0)

    @pytest.mark.parametrize("jitter_seed", [0, 1, 7])
    def test_same_seed_is_bitwise_identical(self, jitter_seed):
        grid = scene("sdf")
        first, second = (
            render(grid, camera(), light_table(), samples_per_ray=SAMPLES,
                   jitter_seed=jitter_seed)
            for _ in range(2)
        )
        for name in ("rgb", "depth", "mask", "normal", "illum"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_seed_moves_samples(self):
        grid = scene("density")
        a, b = (render(grid, camera(), light_table(), samples_per_ray=SAMPLES, jitter_seed=s)
                for s in (0, 7))
        assert not np.array_equal(a.mask, b.mask)
