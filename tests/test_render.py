import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitforge.render as render_module
from orbitforge import _render_np
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


FIELDS = ("rgb", "mask", "depth", "normal", "illum")


def hard_scene(n):
    """A density sphere with a hard edge, so that most cells have 8 exactly-zero corners."""
    rng = np.random.default_rng(6)
    x = np.linspace(-0.5, 0.5, n)
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    return SceneGrid("density", np.where(r < 0.3, 30.0, 0.0), rng.uniform(0.2, 0.8, (n, n, n, 3)))


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

    @pytest.mark.parametrize("elevation", [90.0, -90.0])
    def test_camera_at_the_pole(self, elevation):
        """The up-vector fallback at the poles gives the analytic silhouette of a sphere."""
        n, px, radius = 32, 32, 0.3
        x = np.linspace(-0.5, 0.5, n)
        r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
        grid = SceneGrid("sdf", r - radius, np.full((n, n, n, 3), 0.5), sdf_beta=0.005)
        cam = camera(px=px, elevation=elevation, azimuth=0.0)
        bundle = render(grid, cam, light_table(), samples_per_ray=64, background=BACKGROUND)
        for name in ("rgb", "mask", "illum", "normal"):
            assert np.all(np.isfinite(getattr(bundle, name)))
        # Pixel-centre rays inside the cone of half-angle asin(radius / distance).
        t = (np.arange(px) + 0.5 - px / 2.0) / cam.focal_px
        tan2 = t[:, None] ** 2 + t[None, :] ** 2
        disc = tan2 < np.tan(np.arcsin(radius / cam.distance)) ** 2
        covered = bundle.mask >= 0.5
        assert (covered & disc).sum() / (covered | disc).sum() >= 0.8


class TestNoRayHitsTheCube:
    """A view whose rays all miss the cube is zero hit rays, not a special case."""

    @pytest.mark.parametrize("kind", ["density", "sdf"])
    def test_background_only_with_zero_gradients(self, kind):
        grid = scene(kind)
        light = light_table()
        # At distance 2 a 170-degree field of view puts all four pixel centres outside the cube.
        cam = Camera(CameraPose(20.0, 35.0), 2.0, width=2, height=2, fov_deg=170.0)
        assert not intersect_unit_cube(*camera_rays(cam))[2].any()
        bundle, cache, normals = render(
            grid, cam, light, samples_per_ray=SAMPLES, background=BACKGROUND,
            want_cache=True, want_sample_normals=True,
        )
        self.assert_background(bundle)
        assert normals.shape == (2, 2, SAMPLES, 3)
        np.testing.assert_array_equal(normals, 0.0)
        rng = np.random.default_rng(4)
        grads = render_backward(cache, rng.standard_normal((2, 2, 3)),
                                rng.standard_normal((2, 2)), np.zeros((2, 2)),
                                rng.standard_normal((2, 2)))
        expected = {"field": (N, N, N), "albedo": (N, N, N, 3),
                    "light_table": light.values.shape,
                    "light_amplitudes": light.amplitudes.shape}
        for name, shape in expected.items():
            assert getattr(grads, name).shape == shape
            np.testing.assert_array_equal(getattr(grads, name), 0.0)
        self.assert_background(render(grid, cam, light, samples_per_ray=SAMPLES,
                                      background=BACKGROUND, normals_override=normals))

    @staticmethod
    def assert_background(bundle):
        np.testing.assert_array_equal(bundle.rgb, np.broadcast_to(BACKGROUND, bundle.rgb.shape))
        np.testing.assert_array_equal(bundle.mask, 0.0)
        assert np.all(bundle.depth == np.inf)
        np.testing.assert_array_equal(bundle.normal, 0.0)
        np.testing.assert_array_equal(bundle.illum, 0.0)


class TestEmptyEnvmap:
    """An envmap without lobes is a zero-width basis, not a special case."""

    def test_light_table_is_zero(self):
        table = LightTable(Envmap(()), n_theta=8, n_phi=16)
        assert table.basis.shape == (8 * 16, 0)
        np.testing.assert_array_equal(table.values, 0.0)
        assert table.amplitude_grads(np.ones((8, 16))).shape == (0,)

    def test_render_and_backward_are_finite(self):
        light = LightTable(Envmap(()), n_theta=8, n_phi=16)
        bundle, cache = render(scene("sdf"), camera(), light, samples_per_ray=SAMPLES,
                               background=BACKGROUND, want_cache=True)
        assert bundle.valid.any()
        for name in ("rgb", "mask", "normal", "illum"):
            assert np.all(np.isfinite(getattr(bundle, name)))
        np.testing.assert_array_equal(bundle.illum, 0.0)
        grads = render_backward(cache, np.ones(bundle.rgb.shape), g_illum=np.ones(bundle.mask.shape))
        assert grads.light_amplitudes.shape == (0,)
        for name in ("field", "albedo", "light_table"):
            assert np.all(np.isfinite(getattr(grads, name)))


class TestForwardMarchIsReused:
    """render_backward reads the samples the forward pass marched."""

    def test_forward_and_backward_march_once(self, monkeypatch):
        calls = []
        forward = _render_np.forward

        def counted(*args, **kwargs):
            calls.append(args)
            return forward(*args, **kwargs)

        monkeypatch.setattr(_render_np, "forward", counted)
        _, cache = render(scene("sdf"), camera(), light_table(), samples_per_ray=SAMPLES,
                          want_cache=True)
        render_backward(cache, np.ones((PX, PX, 3)))
        assert len(calls) == 1

    def test_backward_twice_is_bitwise_equal(self):
        grid = scene("density")
        light = light_table()
        _, cache = render(grid, camera(), light, samples_per_ray=SAMPLES, want_cache=True)
        rng = np.random.default_rng(5)
        upstream = (rng.standard_normal((PX, PX, 3)), rng.standard_normal((PX, PX)))
        first = render_backward(cache, *upstream)
        render(grid, camera(elevation=-30.0, azimuth=200.0), light, samples_per_ray=SAMPLES,
               jitter_seed=7, want_cache=True)
        second = render_backward(cache, *upstream)
        for name in ("field", "albedo", "light_table", "light_amplitudes"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    @pytest.mark.parametrize("channels", [(), (3,)])
    def test_shared_corner_table_matches_own(self, channels):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((N, N, N) + channels)
        points = rng.uniform(-0.6, 0.6, (50, 3))
        shared = _render_np._interp(values, points,
                                    corners=list(_render_np._corners(points, N)))
        assert shared.tobytes() == _render_np._interp(values, points).tobytes()


class TestEmptySpaceSkipping:
    """A forward-only density render gathers only the samples of occupied cells, bit for bit."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        """Point counts of every ``_interp`` call."""
        counts = []
        interp = _render_np._interp

        def recorded(values, points, corners=None):
            counts.append(len(points))
            return interp(values, points, corners)

        monkeypatch.setattr(_render_np, "_interp", recorded)
        return counts

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("jitter_seed", [0, 1, 7])
    @pytest.mark.parametrize("frozen", [False, True], ids=["own-normals", "normals-override"])
    def test_matches_the_full_march(self, n, jitter_seed, frozen):
        grid = hard_scene(n)
        light = light_table()
        kwargs = dict(samples_per_ray=SAMPLES, background=BACKGROUND, jitter_seed=jitter_seed)
        if frozen:
            normals = np.random.default_rng(jitter_seed).standard_normal((PX, PX, SAMPLES, 3))
            kwargs["normals_override"] = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
        skipped = render(grid, camera(), light, **kwargs)
        full, _ = render(grid, camera(), light, want_cache=True, **kwargs)
        assert full.valid.any()
        for name in FIELDS:
            assert getattr(skipped, name).tobytes() == getattr(full, name).tobytes()

    def test_forward_only_gathers_fewer_points(self, gathers):
        grid = hard_scene(16)
        marched = intersect_unit_cube(*camera_rays(camera()))[2].sum() * SAMPLES
        render(grid, camera(), light_table(), samples_per_ray=SAMPLES)
        assert gathers and 0 < max(gathers) < marched
        gathers.clear()
        render(grid, camera(), light_table(), samples_per_ray=SAMPLES, want_cache=True)
        assert gathers and set(gathers) == {marched}

    def test_sdf_and_sample_normals_march_every_sample(self, gathers):
        marched = intersect_unit_cube(*camera_rays(camera()))[2].sum() * SAMPLES
        render(scene("sdf"), camera(), light_table(), samples_per_ray=SAMPLES)
        render(hard_scene(16), camera(), light_table(), samples_per_ray=SAMPLES,
               want_sample_normals=True)
        assert gathers and set(gathers) == {marched}

    def test_dense_grid_marches_every_sample(self, gathers):
        # Every cell of the Gaussian density has a nonzero corner, so picking
        # the occupied samples would only add work.
        marched = intersect_unit_cube(*camera_rays(camera()))[2].sum() * SAMPLES
        grid = scene("density")
        dense = render(grid, camera(), light_table(), samples_per_ray=SAMPLES)
        assert gathers and set(gathers) == {marched}
        full, _ = render(grid, camera(), light_table(), samples_per_ray=SAMPLES, want_cache=True)
        for name in FIELDS:
            assert getattr(dense, name).tobytes() == getattr(full, name).tobytes()

    def test_forward_only_takes_no_full_grid_gradient(self, monkeypatch):
        calls = []
        monkeypatch.setattr(render_module, "node_gradient", lambda *args: calls.append(args))
        render(hard_scene(16), camera(), light_table(), samples_per_ray=SAMPLES)
        assert calls == []


class TestNormalsOverrideShape:
    @pytest.mark.parametrize("shape", [(4, 4, 4, 3), (4, 4, 3, 8), (16, 8, 3)],
                             ids=["too-few-samples", "wrong-layout", "flat-pixels"])
    def test_rejected(self, shape):
        with pytest.raises(ValueError, match="normals_override"):
            render(scene("density"), camera(px=4), light_table(), samples_per_ray=8,
                   normals_override=np.ones(shape))


class TestInputValidation:
    """Malformed render, backward and light-table inputs raise a named ValueError."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"samples_per_ray": 2.5}, {"samples_per_ray": 3.0}, {"samples_per_ray": 1},
         {"background": (np.nan, 0.0, 0.0)}, {"background": (0.0, np.inf, 0.0)},
         {"background": (0.5, 0.5)}, {"background": np.ones((1, 3))}],
        ids=["samples-fractional", "samples-float", "samples-one", "background-nan",
             "background-inf", "background-2-vector", "background-row"],
    )
    def test_render_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            render(scene("density"), camera(px=4), light_table(), **kwargs)

    def test_numpy_integer_samples_per_ray(self):
        a, b = (render(scene("sdf"), camera(px=4), light_table(), samples_per_ray=s)
                for s in (8, np.int64(8)))
        for name in FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("name", ["g_mask", "g_depth", "g_illum"])
    @pytest.mark.parametrize("shape", [(PX,), (), (PX, PX, 1)],
                             ids=["row", "scalar", "trailing-axis"])
    def test_backward_rejects_misshaped_upstream(self, name, shape):
        _, cache = render(scene("sdf"), camera(), light_table(), samples_per_ray=SAMPLES,
                          want_cache=True)
        with pytest.raises(ValueError, match=name):
            render_backward(cache, np.ones((PX, PX, 3)), **{name: np.ones(shape)})

    @pytest.mark.parametrize("sizes", [{"n_theta": 0}, {"n_phi": -3}, {"n_theta": 2.5}],
                             ids=["n-theta-zero", "n-phi-negative", "n-theta-fractional"])
    def test_light_table_rejects_size(self, sizes):
        with pytest.raises(ValueError, match=next(iter(sizes))):
            LightTable(Envmap((SphericalGaussian((0.0, 0.0, 1.0), 4.0, 1.0),)), **sizes)

    @pytest.mark.parametrize("amplitudes", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0),
                                            (1.0, 1.0), ((1.0, 1.0, 1.0),)],
                             ids=["nan", "inf", "too-few", "2-d"])
    def test_light_table_rejects_amplitudes(self, amplitudes):
        table = light_table()
        with pytest.raises(ValueError, match="amplitudes"):
            table.set_amplitudes(amplitudes)
