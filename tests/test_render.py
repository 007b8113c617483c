import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orbitforge import _render_np
from orbitforge.grid import SceneGrid, node_gradient
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
GRADS = ("field", "albedo", "light_table", "light_amplitudes")


def hard_scene(n, radius=0.3):
    """A density sphere with a hard edge.  At radius 0.3 most cells have 8 exactly-zero
    corners; at 0.55 the box of the occupied cells is the whole cube."""
    rng = np.random.default_rng(6)
    x = np.linspace(-0.5, 0.5, n)
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    return SceneGrid("density", np.where(r < radius, 30.0, 0.0),
                     rng.uniform(0.2, 0.8, (n, n, n, 3)))


def scene(kind, n=N):
    """A Gaussian density, a soft SDF sphere, or a sharp one ("sharp-sdf", the benchmark's
    alpha and beta), whose march drops samples."""
    rng = np.random.default_rng(3)
    x = np.linspace(-0.5, 0.5, n)
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    albedo = rng.uniform(0.2, 0.8, (n, n, n, 3))
    if kind == "sdf":
        return SceneGrid("sdf", r - 0.3, albedo, sdf_alpha=40.0, sdf_beta=0.05)
    if kind == "sharp-sdf":
        return SceneGrid("sdf", r - 0.3, albedo, sdf_alpha=150.0, sdf_beta=0.005)
    return SceneGrid("density", 30.0 * np.exp(-((r / 0.25) ** 2)), albedo)


class TestBackwardMatchesCentralDifferences:
    """render_backward against central differences of a scalar loss on all four buffers.

    Shading normals are frozen through ``normals_override``, which is the
    stop-gradient the backward pass assumes.
    """

    @pytest.fixture(params=["density", "sdf", "sharp-sdf"])
    def setup(self, request):
        grid = scene(request.param)
        cam = camera()
        light = light_table()
        bundle, cache, normals = render(
            grid, cam, light, samples_per_ray=SAMPLES, background=BACKGROUND,
            want_cache=True, want_sample_normals=True,
        )
        if request.param == "sharp-sdf":  # the gradient is the truncated march's
            assert cache.march.op.shape[0] < cache.march.dt.size * SAMPLES
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
        kind=st.sampled_from(["density", "sdf"]),
        density=st.floats(0.0, 1e3),
        seed=st.integers(0, 2**31 - 1),
        elevation=st.floats(-80.0, 80.0),
        azimuth=st.floats(0.0, 359.0),
    )
    # A per-ray sum of the weights reads one ulp above 1 here.
    @example(kind="density", density=111.0, seed=103, elevation=13.139936535238078,
             azimuth=63.31847339122546)
    @example(kind="sdf", density=1e3, seed=25, elevation=-54.056808228385606,
             azimuth=92.52455414257417)
    @settings(max_examples=30, deadline=None)
    def test_mask_in_unit_interval_and_misses_keep_background(
        self, kind, density, seed, elevation, azimuth
    ):
        """The density, or an SDF's interior density alpha, scales a random 4^3 field."""
        rng = np.random.default_rng(seed)
        albedo = rng.uniform(0.0, 1.0, (4, 4, 4, 3))
        if kind == "sdf":
            grid = SceneGrid("sdf", rng.uniform(-0.5, 0.5, (4, 4, 4)), albedo,
                             sdf_alpha=1.0 + density, sdf_beta=0.01)
        else:
            grid = SceneGrid("density", density * rng.uniform(0.0, 1.0, (4, 4, 4)), albedo)
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


class TestConstantDensityCube:
    """A constant density c fills the cube, so a hit ray's mask is 1 - exp(-c * l) in closed
    form, l = t1 - t0 its chord through the cube, and a miss's is 0."""

    @pytest.mark.parametrize("keep", [False, True], ids=["forward-only", "kept"])
    @pytest.mark.parametrize("n", [8, 17])
    @pytest.mark.parametrize("density", [0.5, 3.0, 20.0])
    def test_mask_is_one_minus_exp_of_the_chord(self, keep, n, density):
        cam = camera(px=20)
        out = render(SceneGrid.empty("density", n, fill=density), cam, light_table(),
                     samples_per_ray=48, want_cache=keep)
        bundle = out[0] if keep else out
        t0, t1, hit = intersect_unit_cube(*camera_rays(cam))
        assert hit.any() and not hit.all()
        want = 1.0 - np.exp(-density * (t1[hit] - t0[hit]))
        assert np.abs(bundle.mask[hit] - want).max() <= 1e-14
        np.testing.assert_array_equal(bundle.mask[~hit], 0.0)


POLE_FAULT = (
    "FOUND light-table pole: empty-space samples take the +z normal, and the light table "
    "reads +z at azimuth 0, so the light there depends on the table's azimuth origin and "
    "enters d rgb / d density and d illum / d density at nodes of near-zero density"
)


def quarter_turns(v, k):
    """The vector v turned k quarter turns about +z: (x, y, z) -> (-y, x, z), k times."""
    for _ in range(k):
        v = np.array([-v[1], v[0], v[2]])
    return v


class TestZRotationSymmetry:
    """Turning the scene, the lobe axes and the camera's azimuth k quarter turns about +z
    keeps every pixel's ray up to rounding and its jitter exactly, so each buffer and each
    gradient, turned back, must agree with the unturned render's."""

    N, PX, SAMPLES = 24, 20, 48
    # Forward buffers differ by at most 4.7e-14 here and gradients by 4.8e-13 of their
    # largest magnitude.
    FORWARD_ATOL = 1e-13
    GRAD_RTOL = 1e-11

    @classmethod
    def scene(cls, kind):
        """An off-centre blob with different widths per axis (broad, or tight enough to leave
        empty space in the cube), or an off-centre SDF ellipsoid, under random albedo."""
        rng = np.random.default_rng(4)
        x, y, z = np.meshgrid(*[np.linspace(-0.5, 0.5, cls.N)] * 3, indexing="ij")
        albedo = rng.uniform(0.2, 0.8, (cls.N, cls.N, cls.N, 3))
        if kind == "sdf":
            r = np.sqrt(((x - 0.05) / 1.2) ** 2 + ((y + 0.04) / 0.9) ** 2 + (z / 1.1) ** 2)
            return SceneGrid("sdf", r - 0.3, albedo, sdf_alpha=40.0, sdf_beta=0.05)
        width = 1.0 if kind == "density" else 1.0 / 3.0
        field = 20.0 * np.exp(-((x - 0.1) / (0.36 * width)) ** 2
                              - ((y + 0.05) / (0.45 * width)) ** 2
                              - ((z - 0.03) / (0.3 * width)) ** 2)
        return SceneGrid("density", field, albedo)

    @classmethod
    def run(cls, grid, k, chain=None):
        """Render the scene turned k quarter turns, and with a chain, backward through it."""
        turned = SceneGrid(grid.kind, np.rot90(grid.field, k, axes=(0, 1)),
                           np.rot90(grid.albedo, k, axes=(0, 1)), grid.sdf_alpha,
                           grid.sdf_beta)
        rng = np.random.default_rng(5)
        axes = rng.normal(size=(12, 3))
        lobes = tuple(
            SphericalGaussian(quarter_turns(axis / np.linalg.norm(axis), k),
                              rng.uniform(1.0, 20.0), rng.uniform(0.2, 1.0))
            for axis in axes
        )
        cam = camera(px=cls.PX, elevation=20.0, azimuth=35.0 + 90.0 * k)
        bundle, cache = render(turned, cam, LightTable(Envmap(lobes)),
                               samples_per_ray=cls.SAMPLES, jitter_seed=3, want_cache=True)
        if chain is None:
            return bundle
        rgb = np.zeros((cls.PX, cls.PX, 3))
        g = np.random.default_rng(11).standard_normal(rgb.shape if chain == "rgb" else
                                                      bundle.mask.shape)
        if chain == "depth":  # misses carry no depth gradient
            g = np.where(np.isfinite(bundle.depth), g, 0.0)
        return render_backward(cache, **{"g_rgb": rgb, "g_" + chain: g})

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["density", "tight-density", "sdf"])
    def test_forward(self, kind, k):
        grid = self.scene(kind)
        want, got = self.run(grid, 0), self.run(grid, k)
        finite = np.isfinite(want.depth)
        np.testing.assert_array_equal(np.isfinite(got.depth), finite)
        assert finite.any()
        for name in ("rgb", "mask", "illum"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0,
                                       atol=self.FORWARD_ATOL, err_msg=name)
        np.testing.assert_allclose(got.depth[finite], want.depth[finite], rtol=0,
                                   atol=self.FORWARD_ATOL)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, chain",
        [(kind, chain) for kind in ("density", "sdf")
         for chain in ("rgb", "mask", "depth", "illum")]
        + [("tight-density", "mask"), ("tight-density", "depth")]
        + [pytest.param("tight-density", chain, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=POLE_FAULT)) for chain in ("rgb", "illum")],
    )
    def test_backward(self, kind, chain, k):
        grid = self.scene(kind)
        want, got = self.run(grid, 0, chain), self.run(grid, k, chain)
        turned_back = {name: np.rot90(getattr(got, name), -k, axes=(0, 1))
                       for name in ("field", "albedo")}
        turned_back["light_amplitudes"] = got.light_amplitudes
        # The field comes last, so that the pole fault fails on it alone.
        for name in ("albedo", "light_amplitudes", "field"):
            w = getattr(want, name)
            np.testing.assert_allclose(turned_back[name], w, rtol=0,
                                       atol=self.GRAD_RTOL * np.abs(w).max(), err_msg=name)


class TestIntersectUnitCube:
    @pytest.mark.parametrize("shape", [(3,), (12, 3), (4, 3, 3), (2, 3, 2, 3)],
                             ids=["one", "flat", "image", "batch"])
    def test_outputs_have_the_rays_shape(self, shape):
        """Each of t0, t1 and hit has ``dirs.shape[:-1]`` and each ray's image-layout values,
        with directions along an axis from outside the cube's slab (misses) among them."""
        origin, image = camera_rays(camera(px=4, elevation=0.0, azimuth=0.0))
        rays = image.reshape(-1, 3).copy()
        rays[:3] = np.eye(3)  # the camera sits outside the slab of the axis it does not move along
        image = rays.reshape(image.shape)
        expected = intersect_unit_cube(origin, image)
        assert not expected[2].reshape(-1)[:3].all()
        dirs = rays[:int(np.prod(shape[:-1]))].reshape(shape)
        for got, want in zip(intersect_unit_cube(origin, dirs), expected):
            assert np.shape(got) == shape[:-1]
            np.testing.assert_array_equal(np.ravel(got), want.reshape(-1)[:np.size(got)])


def reference_intersect_unit_cube(origin, dirs):
    """The slab test as it was with NumPy's reductions over the last axis, kept as the
    bitwise reference."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = (-0.5 - origin) / dirs
        hi = (0.5 - origin) / dirs
    near = np.where(np.isnan(lo), -np.inf, np.minimum(lo, hi))
    far = np.where(np.isnan(hi), np.inf, np.maximum(lo, hi))
    parallel_outside = (np.abs(dirs) < 1e-15) & (np.abs(origin) > 0.5)
    near = np.where(parallel_outside, np.inf, near)
    t0 = np.maximum(np.max(near, axis=-1), 0.0)
    t1 = np.min(far, axis=-1)
    return t0, t1, t1 > t0


def reference_box_strata(origin, dirs, t0, t1, dt, n_samples, lo, hi, spacing):
    """``_render_np._box_strata``'s interval as it was with NumPy's reductions, kept as the
    bitwise reference."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        near = (-0.5 + lo * spacing - origin) / dirs
        far = (-0.5 + hi * spacing - origin) / dirs
    t_a = np.maximum(t0, np.max(np.fmin(near, far), axis=1))
    t_b = np.minimum(t1, np.min(np.fmax(near, far), axis=1))
    rays = np.flatnonzero(t_a < t_b)
    t0, dt = t0[rays], dt[rays]
    first = np.maximum(np.floor((t_a[rays] - t0) / dt) - 1, 0).astype(np.int64)
    stop = np.minimum(np.ceil((t_b[rays] - t0) / dt) + 1, n_samples).astype(np.int64)
    return rays, first, stop


# Slab-test coordinates: on and off the faces, signed zeros, infinities and NaN.
SLAB_FLOATS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-16, -1e-300, np.inf, -np.inf, np.nan]),
)


class TestSlabTestsAgainstReductions:
    """The slab tests take their maxima and minima over the three axes column by column;
    each must keep the bits of the NumPy reduction it replaced."""

    @given(origin=hnp.arrays(np.float64, 3, elements=SLAB_FLOATS),
           dirs=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(3)),
                           elements=SLAB_FLOATS))
    @settings(max_examples=150, deadline=None)
    def test_intersect_unit_cube(self, origin, dirs):
        """Equal bits, with NaN matched as NaN: NumPy's reduction returns its own quiet NaN,
        while the chained form passes on the NaN it met, whose sign bit may differ.  A ray
        whose t0 is NaN is a miss either way."""
        for got, want in zip(intersect_unit_cube(origin, dirs),
                             reference_intersect_unit_cube(origin, dirs)):
            nan = want != want
            assert np.array_equal(got != got, nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    @given(origin=hnp.arrays(np.float64, 3, elements=SLAB_FLOATS),
           dirs=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)),
                           elements=SLAB_FLOATS),
           box=st.tuples(st.integers(0, 7), st.integers(1, 8)).filter(lambda b: b[0] < b[1]))
    @settings(max_examples=150, deadline=None)
    def test_box_strata(self, origin, dirs, box):
        m = len(dirs)
        t0, t1, dt = np.zeros(m), np.full(m, 2.0), np.full(m, 2.0 / SAMPLES)
        lo, hi = np.full(3, box[0]), np.full(3, box[1])
        rays, (rows, j) = _render_np._box_strata(origin, dirs, t0, t1, dt, SAMPLES, lo, hi,
                                                 1.0 / 8)
        want_rays, first, stop = reference_box_strata(origin, dirs, t0, t1, dt, SAMPLES, lo,
                                                      hi, 1.0 / 8)
        assert rays.tobytes() == want_rays.tobytes()
        counts = np.bincount(rows, minlength=len(rays))
        assert counts.tobytes() == (stop - first).tobytes()
        assert j.tobytes() == np.concatenate(
            [np.arange(a, b) for a, b in zip(first, stop)] + [np.zeros(0, np.int64)]).tobytes()


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

    def test_backward_builds_no_operator(self, monkeypatch):
        calls = []

        def counted(name):
            build = getattr(_render_np, name)

            def wrapper(*args):
                calls.append(name)
                return build(*args)
            monkeypatch.setattr(_render_np, name, wrapper)

        counted("_trilinear")
        counted("_bilinear")
        _, cache = render(scene("sdf"), camera(), light_table(), samples_per_ray=SAMPLES,
                          want_cache=True)
        # One of each for the march, and a trilinear one for the surface normals.
        assert sorted(calls) == ["_bilinear", "_trilinear", "_trilinear"]
        calls.clear()
        render_backward(cache, np.ones((PX, PX, 3)), g_illum=np.ones((PX, PX)))
        assert calls == []

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
        for name in GRADS:
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


class TestPackedMarch:
    """A kept march holds one row per gathered sample, in ascending flat (ray, stratum)
    order, in every per-sample field."""

    PER_RAY = ("n_samples", "dt", "t_final", "weights")

    @staticmethod
    def inside_camera():
        """A camera inside the cube: every ray hits it and a density march gathers every
        sample, so ``_place`` and ``_gather`` take their identity path."""
        return Camera(CameraPose(10.0, 180.0), 0.3, width=PX, height=PX, fov_deg=90.0)

    @pytest.mark.parametrize("kind", ["density", "sdf", "sharp-sdf"])
    @pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
    def test_one_row_per_gathered_sample(self, kind, inside):
        cam = self.inside_camera() if inside else camera()
        _, cache = render(scene(kind), cam, light_table(), samples_per_ray=SAMPLES,
                          want_cache=True)
        m = cache.march
        assert m.n_samples == SAMPLES
        assert m.dt.shape == m.t_final.shape == cache.ridx.shape
        assert m.weights.shape == (cache.ridx.size, m.op.shape[0])
        rows = m.op.shape[0]
        for name in set(m._fields) - set(self.PER_RAY):
            assert getattr(m, name).shape[0] == rows, name
        assert np.all(np.diff(m.keep) > 0)
        assert np.all((m.keep >= 0) & (m.keep < cache.ridx.size * SAMPLES))

    def test_sample_normals_of_an_override_are_its_gathered_rows(self):
        """With ``normals_override``, the returned sample normals are its rows at the gathered
        samples and 0 at every other sample."""
        normals = np.random.default_rng(12).standard_normal((PX, PX, SAMPLES, 3))
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        _, cache, got = render(scene("sharp-sdf"), camera(), light_table(),
                               samples_per_ray=SAMPLES, normals_override=normals,
                               want_cache=True, want_sample_normals=True)
        rows, j = np.divmod(cache.march.keep, SAMPLES)
        gathered = np.zeros(normals.shape[:3], dtype=bool)
        gathered.reshape(-1)[cache.ridx[rows] * SAMPLES + j] = True
        assert 0 < gathered.sum() < gathered.size
        np.testing.assert_array_equal(got[gathered], normals[gathered])
        np.testing.assert_array_equal(got[~gathered], 0.0)

    def test_identity_path_matches_the_scatter(self, monkeypatch):
        """Forcing the scatter and the indexed gather where every sample is gathered changes
        no byte of a training step."""
        grid = scene("density")
        rng = np.random.default_rng(9)
        upstream = (rng.standard_normal((PX, PX, 3)), rng.standard_normal((PX, PX)),
                    rng.standard_normal((PX, PX)), rng.standard_normal((PX, PX)))

        def run():
            bundle, cache, normals = render(grid, self.inside_camera(), light_table(),
                                            samples_per_ray=SAMPLES, background=BACKGROUND,
                                            want_cache=True, want_sample_normals=True)
            assert cache.march.keep.size == bundle.mask.size * SAMPLES
            grads = render_backward(cache, upstream[0], upstream[1],
                                    np.where(bundle.valid, upstream[2], 0.0), upstream[3])
            return ([getattr(bundle, name).tobytes() for name in FIELDS] + [normals.tobytes()]
                    + [getattr(grads, name).tobytes() for name in GRADS])

        reshaped = run()

        def scatter(shape, idx, values, fill):
            out = np.full(shape + values.shape[1:], fill)
            out.reshape((-1,) + values.shape[1:])[idx] = values
            return out

        monkeypatch.setattr(_render_np, "_place", scatter)
        monkeypatch.setattr(_render_np, "_gather",
                            lambda dense, idx: dense.reshape((-1,) + dense.shape[2:])[idx])
        assert run() == reshaped


class TestEmptySpaceSkipping:
    """A forward-only density render gathers only the samples of occupied cells, bit for bit."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        """Point counts (operator rows) of every ``_interp`` call on the grid's field or
        albedo: the product over a full-grid node gradient is left out."""
        counts, nodes = [], []
        interp = _render_np._interp

        def recorded(values, op):
            if not any(values is g for g in nodes):
                counts.append(op.shape[0])
            return interp(values, op)

        def recorded_gradient(field, spacing):
            nodes.append(node_gradient(field, spacing))
            return nodes[-1]

        monkeypatch.setattr(_render_np, "_interp", recorded)
        monkeypatch.setattr(_render_np, "node_gradient", recorded_gradient)
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

    def test_sample_normals_march_every_sample(self, gathers):
        marched = intersect_unit_cube(*camera_rays(camera()))[2].sum() * SAMPLES
        render(hard_scene(16), camera(), light_table(), samples_per_ray=SAMPLES,
               want_sample_normals=True)
        assert gathers and set(gathers) == {marched}

    @pytest.mark.parametrize("keep", [False, True], ids=["forward-only", "kept"])
    def test_sharp_sdf_gathers_fewer_rows(self, gathers, monkeypatch, keep):
        marched = intersect_unit_cube(*camera_rays(camera()))[2].sum() * SAMPLES
        kwargs = dict(samples_per_ray=SAMPLES, want_cache=keep, want_sample_normals=True)
        out = render(scene("sharp-sdf"), camera(), light_table(), **kwargs)
        assert gathers and max(gathers) < marched
        # The sample normals are unit vectors where gathered and zero elsewhere.
        lengths = np.linalg.norm(out[-1], axis=-1)
        assert np.count_nonzero(lengths) == gathers[-1]
        np.testing.assert_allclose(lengths[lengths > 0], 1.0)
        gathers.clear()
        monkeypatch.setattr(_render_np, "_EPS", 0.0)
        render(scene("sharp-sdf"), camera(), light_table(), **kwargs)
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

    def test_forward_only_takes_no_full_grid_gradient(self, gathers, monkeypatch):
        """The few occupied samples are below the size rule's crossover, so their normals
        come from the corner stencil."""
        calls = []
        monkeypatch.setattr(_render_np, "node_gradient", lambda *args: calls.append(args))
        grid = hard_scene(16)
        render(grid, camera(), light_table(), samples_per_ray=SAMPLES)
        assert gathers and _render_np._STENCIL_COST * 8 * max(gathers) < grid.field.size
        assert calls == []


def sparse_field(case, n):
    """A density field that is 0 except at one node or in a few separate blobs."""
    field = np.zeros((n, n, n))
    nodes = {"interior": (n // 2, n // 3, n // 2 + 1), "face": (n - 1, n // 2, n // 3),
             "corner": (0, n - 1, 0)}
    if case in nodes:
        field[nodes[case]] = 7.0
        return field
    x = np.linspace(-0.5, 0.5, n)
    rng = np.random.default_rng(n)
    for centre in ((-0.3, 0.25, 0.1), (0.35, -0.2, -0.3), (0.1, 0.1, 0.45)):
        r = np.sqrt(sum((c - x0) ** 2 for c, x0 in zip(np.meshgrid(x, x, x, indexing="ij"),
                                                       centre)))
        field[r < 0.12] = rng.uniform(5.0, 50.0)
    return field


SPARSE_CASES = ["interior", "face", "corner", "blobs"]


def placed_strata(field, origin, dirs, jitter_seed):
    """The full placement's samples of the rays (origin, dirs) that lie in an occupied
    cell, whether ``_box_strata`` placed each, and whether a placed sample kept its bits."""
    n = field.shape[0]
    t0, t1, hit = intersect_unit_cube(origin, dirs)
    pix = np.flatnonzero(hit)
    dirs, t0, t1 = dirs.reshape(-1, 3)[pix], t0.ravel()[pix], t1.ravel()[pix]
    dt = (t1 - t0) / SAMPLES
    t = _render_np._sample_points(pix, t0, dt, SAMPLES, jitter_seed)
    occupied = _render_np._occupancy(field != 0.0).reshape(-1)[
        _render_np._cell_index(origin, dirs[:, None], t, n)]
    _, lo, hi = _render_np._occupied_cells(field != 0.0)
    rays, (rows, j) = _render_np._box_strata(origin, dirs, t0, t1, dt, SAMPLES, lo, hi,
                                             1.0 / (n - 1))
    placed = np.zeros((len(pix), SAMPLES), dtype=bool)
    placed[rays[rows], j] = True
    got_t = _render_np._sample_points(pix[rays], t0[rays], dt[rays], SAMPLES, jitter_seed,
                                      (rows, j))
    same_bits = got_t.tobytes() == t[rays[rows], j].tobytes()
    return occupied.reshape(placed.shape), placed, same_bits


class TestRayIntervals:
    """A forward-only density march places only the strata that can reach an occupied cell."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("case", SPARSE_CASES)
    @given(elevation=st.floats(-89.0, 89.0), azimuth=st.floats(0.0, 359.0),
           distance=st.floats(0.05, 3.0), fov=st.floats(20.0, 120.0),
           jitter_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_conservative_on_camera_rays(self, n, case, elevation, azimuth, distance, fov,
                                         jitter_seed):
        """Every occupied sample of a full placement is placed, from outside the cube or
        inside it (distance below 0.5, where t0 = 0)."""
        cam = Camera(CameraPose(elevation, azimuth), distance, width=12, height=12, fov_deg=fov)
        occupied, placed, same_bits = placed_strata(sparse_field(case, n), *camera_rays(cam),
                                                    jitter_seed)
        assert not (occupied & ~placed).any()
        assert same_bits

    @pytest.mark.parametrize("case", SPARSE_CASES)
    @given(origin=st.tuples(*[st.floats(-2.0, 2.0)] * 3), jitter_seed=st.integers(0, 2**32 - 1))
    @example(origin=(0.0, 1.0, 2.225073858507203e-309), jitter_seed=0)  # a subnormal direction
    @settings(max_examples=25, deadline=None)
    def test_conservative_on_grazing_rays(self, case, origin, jitter_seed):
        """Rays through the corners and edge midpoints of the occupied cells' box, and rays
        that run along its faces."""
        n = 8
        field = sparse_field(case, n)
        h = 1.0 / (n - 1)
        occupied_cells = np.argwhere(_render_np._occupancy(field != 0.0))
        lo = -0.5 + occupied_cells.min(axis=0) * h
        hi = -0.5 + (occupied_cells.max(axis=0) + 1) * h
        mid = (lo + hi) / 2.0
        targets = [np.where(np.array(c) == 0, lo, np.where(np.array(c) == 1, hi, mid))
                   for c in np.ndindex(3, 3, 3)]
        origin = np.array(origin)
        dirs = np.array(targets) - origin
        lengths = np.linalg.norm(dirs, axis=1)
        dirs = dirs[lengths > 1e-9] / lengths[lengths > 1e-9, None]
        # Along each face plane, axis-parallel to one of its edges.
        along = []
        for axis in range(3):
            for plane in (lo[axis], hi[axis]):
                for other in {0, 1, 2} - {axis}:
                    start = mid.copy()
                    start[axis] = plane
                    start[other] = -0.9
                    d = np.zeros(3)
                    d[other] = 1.0
                    along.append((start, d))
        occupied, placed, same_bits = placed_strata(field, origin, dirs, jitter_seed)
        assert not (occupied & ~placed).any()
        assert same_bits
        for start, d in along:
            occupied, placed, same_bits = placed_strata(field, start, d[None], jitter_seed)
            assert not (occupied & ~placed).any()
            assert same_bits

    @pytest.mark.parametrize("case", SPARSE_CASES)
    @pytest.mark.parametrize("pose", [(20.0, 35.0, 2.0), (-50.0, 250.0, 1.3), (10.0, 180.0, 0.3),
                                      (60.0, 90.0, 0.1)],
                             ids=["outside", "outside-below", "inside", "inside-near-centre"])
    @pytest.mark.parametrize("frozen", [False, True], ids=["own-normals", "normals-override"])
    def test_matches_the_full_march(self, case, pose, frozen):
        grid = SceneGrid("density", sparse_field(case, 16),
                         np.random.default_rng(1).uniform(0.2, 0.8, (16, 16, 16, 3)))
        cam = Camera(CameraPose(*pose[:2]), pose[2], width=PX, height=PX, fov_deg=90.0)
        kwargs = dict(samples_per_ray=SAMPLES, background=BACKGROUND, jitter_seed=3)
        if frozen:
            normals = np.random.default_rng(2).standard_normal((PX, PX, SAMPLES, 3))
            kwargs["normals_override"] = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
        skipped = render(grid, cam, light_table(), **kwargs)
        full, _ = render(grid, cam, light_table(), want_cache=True, **kwargs)
        for name in FIELDS:
            assert getattr(skipped, name).tobytes() == getattr(full, name).tobytes()

    def test_rays_that_miss_the_box_place_nothing(self, monkeypatch):
        placed = []
        sample_points = _render_np._sample_points

        def recorded(*args):
            t = sample_points(*args)
            placed.append(t.size)
            return t

        monkeypatch.setattr(_render_np, "_sample_points", recorded)
        grid = SceneGrid("density", sparse_field("blobs", 16), np.full((16, 16, 16, 3), 0.5))
        hit = intersect_unit_cube(*camera_rays(camera()))[2]
        bundle = render(grid, camera(), light_table(), samples_per_ray=SAMPLES)
        assert bundle.mask.max() > 0.0
        assert 0 < placed[0] < hit.sum() * SAMPLES
        placed.clear()
        render(SceneGrid.empty("density", 16), camera(), light_table(), samples_per_ray=SAMPLES)
        assert placed == [0]

    @pytest.mark.parametrize("pose", [(20.0, 35.0, 2.0), (10.0, 180.0, 0.3)],
                             ids=["outside", "inside"])
    def test_all_zero_field_renders_misses(self, pose):
        cam = Camera(CameraPose(*pose[:2]), pose[2], width=PX, height=PX, fov_deg=90.0)
        bundle = render(SceneGrid.empty("density", 8), cam, light_table(),
                        samples_per_ray=SAMPLES, background=BACKGROUND)
        TestNoRayHitsTheCube.assert_background(bundle)

    def test_box_filling_density_matches_the_full_march(self):
        """A box that fills the cube places every stratum and gathers its occupied samples."""
        grid = hard_scene(16, 0.55)
        kwargs = dict(samples_per_ray=SAMPLES, background=BACKGROUND)
        skipped = render(grid, camera(), light_table(), **kwargs)
        full, _ = render(grid, camera(), light_table(), want_cache=True, **kwargs)
        for name in FIELDS:
            assert getattr(skipped, name).tobytes() == getattr(full, name).tobytes()


class TestNormalsRoute:
    """Which of ``_interp_gradient``'s two routes the normals take shows in no output.

    Each route is forced through ``_STENCIL_COST``: 0 takes the corner
    stencil for every operator, n^3 the full-grid gradient for every
    non-empty one.
    """

    @staticmethod
    def both_routes(monkeypatch, grid, run):
        outputs = []
        for cost in (0.0, float(grid.field.size)):
            calls = []
            monkeypatch.setattr(_render_np, "_STENCIL_COST", cost)
            monkeypatch.setattr(_render_np, "node_gradient",
                                lambda *args: calls.append(args) or node_gradient(*args))
            outputs.append([a.tobytes() for a in run()])
            assert (len(calls) > 0) == (cost > 0.0)
        assert outputs[0] == outputs[1]

    def test_sdf_training_step(self, monkeypatch):
        grid = scene("sdf")
        light = light_table()
        rng = np.random.default_rng(8)
        g_rgb, g_mask, g_depth, g_illum = (
            rng.standard_normal((PX, PX, 3)), rng.standard_normal((PX, PX)),
            rng.standard_normal((PX, PX)), rng.standard_normal((PX, PX)))

        def run():
            bundle, cache, normals = render(grid, camera(), light, samples_per_ray=SAMPLES,
                                            background=BACKGROUND, want_cache=True,
                                            want_sample_normals=True)
            grads = render_backward(cache, g_rgb, g_mask, np.where(bundle.valid, g_depth, 0.0),
                                    g_illum)
            return ([getattr(bundle, name) for name in FIELDS] + [normals]
                    + [getattr(grads, name) for name in GRADS])

        self.both_routes(monkeypatch, grid, run)

    def test_box_filling_density_forward_only(self, monkeypatch):
        grid = hard_scene(16, 0.55)

        def run():
            bundle = render(grid, camera(), light_table(), samples_per_ray=SAMPLES,
                            background=BACKGROUND)
            return [getattr(bundle, name) for name in FIELDS]

        self.both_routes(monkeypatch, grid, run)


class TestBoundedErrorMarch:
    """A sharp SDF's march stays within ``_render_np``'s written bound of the full march.

    The full march is the same render with ``_EPS`` patched to 0, where no
    sample is dropped.  Every bound below is the module docstring's, per ray
    or, through the full march's operators, per node and table bin.
    """

    @pytest.mark.parametrize("pose", [(20.0, 35.0), (-40.0, 200.0), (75.0, 120.0)])
    def test_opaque_cut_keeps_the_two_pass_transmittance(self, monkeypatch, pose):
        # The cut drops a suffix of each ray, so one transmittance scan gives the kept
        # samples' T_exc and every ray's T_final with the bits of a second scan over
        # the samples the cut kept.
        transmittance = _render_np._transmittance
        scanned = []

        def spy(a, keep, shape):
            scanned.append(keep)
            return transmittance(a, keep, shape)

        monkeypatch.setattr(_render_np, "_transmittance", spy)
        _, cache = render(scene("sharp-sdf", n=16), camera(16, *pose), light_table(),
                          samples_per_ray=SAMPLES, want_cache=True)
        m = cache.march
        assert len(scanned) == 1 and m.keep.size < scanned[0].size
        t_exc, t_final = transmittance(m.a, m.keep, (cache.ridx.size, SAMPLES))
        assert t_exc.tobytes() == m.t_exc.tobytes()
        assert t_final.tobytes() == m.t_final.tobytes()

    @pytest.mark.parametrize("jitter_seed", [0, 5])
    @pytest.mark.parametrize("pose", [(20.0, 35.0), (-40.0, 200.0), (75.0, 120.0)])
    def test_within_the_written_bound(self, monkeypatch, pose, jitter_seed):
        grid = scene("sharp-sdf", n=16)
        cam = camera(16, *pose)
        light = light_table()
        rng = np.random.default_rng(jitter_seed)
        shape = (cam.height, cam.width)
        g_rgb, g_mask, g_depth, g_illum = (
            rng.standard_normal(shape + (3,)), rng.standard_normal(shape),
            rng.standard_normal(shape), rng.standard_normal(shape))
        kwargs = dict(samples_per_ray=SAMPLES, background=BACKGROUND, jitter_seed=jitter_seed,
                      want_cache=True)
        eps = _render_np._EPS
        out, cache = render(grid, cam, light, **kwargs)
        g_depth = np.where(out.valid, g_depth, 0.0)
        grads = render_backward(cache, g_rgb, g_mask, g_depth, g_illum)
        monkeypatch.setattr(_render_np, "_EPS", 0.0)
        ref, ref_cache = render(grid, cam, light, **kwargs)
        ref_grads = render_backward(ref_cache, g_rgb, g_mask, g_depth, g_illum)

        n_rays = ref_cache.ridx.size
        assert ref_cache.march.op.shape[0] == n_rays * SAMPLES
        assert cache.march.op.shape[0] < n_rays * SAMPLES
        # What was dropped had opacity or transmittance below eps.
        dropped = np.ones(n_rays * SAMPLES, dtype=bool)
        dropped[cache.march.keep] = False
        # The reference gathers every sample, so its packed opacities are the dense ones;
        # the sparse march's transmittance before each sample is rebuilt from its packed
        # opacities, 0 where not gathered.
        a = np.zeros(n_rays * SAMPLES)
        a[cache.march.keep] = cache.march.a
        trans = np.cumprod(1.0 - a.reshape(n_rays, SAMPLES), axis=1)
        t_exc = np.concatenate([np.ones((n_rays, 1)), trans[:, :-1]], axis=1).ravel()
        negligible = (ref_cache.march.a < eps) | (t_exc < eps)
        assert np.all(negligible[dropped])
        np.testing.assert_array_equal(out.valid, ref.valid)
        miss = ~intersect_unit_cube(*camera_rays(cam))[2]
        for name in FIELDS:
            assert getattr(out, name)[miss].tobytes() == getattr(ref, name)[miss].tobytes()

        def rays(image):
            """The hit rays' rows of a (height, width[, c]) image."""
            return image.reshape((-1,) + image.shape[2:])[cache.ridx]

        new, old = ({name: rays(getattr(b, name)) for name in FIELDS} for b in (out, ref))
        grgb, gm, gd, gi = (rays(g) for g in (g_rgb, g_mask, g_depth, g_illum))
        origin, dirs = camera_rays(cam)
        t1 = rays(intersect_unit_cube(origin, dirs)[1])
        dirs = rays(dirs)
        eta = (SAMPLES + 1) * eps
        lam = np.abs(light.values).max()
        valid = new["mask"] >= out.VALID_MASK
        mask = np.where(valid, new["mask"], 1.0)
        depth = np.where(valid, old["depth"], 0.0)

        # Buffers.
        assert np.all(np.abs(new["rgb"] - old["rgb"]) <= eta * (2 * lam + np.abs(BACKGROUND)))
        assert np.all(np.abs(new["mask"] - old["mask"]) <= eta)
        d_depth = eta * (t1 + depth) / mask
        assert np.all(np.abs(new["depth"][valid] - old["depth"][valid]) <= d_depth[valid])
        d_illum = eta * (2 * lam + np.abs(old["illum"])) / mask
        assert np.all(np.abs(new["illum"] - old["illum"]) <= d_illum)
        nodes = node_gradient(grid.field, grid.spacing)
        jump = max(np.linalg.norm(np.diff(nodes, axis=axis), axis=-1).max() for axis in range(3))
        op = _render_np._trilinear(origin, dirs[valid], depth[valid], grid.resolution)
        g = _render_np._interp(nodes, op)
        d_normal = 2 * np.sqrt(3) * d_depth[valid] * jump / (grid.spacing
                                                             * np.linalg.norm(g, axis=-1))
        assert np.all(np.linalg.norm(new["normal"] - old["normal"], axis=-1)[valid] <= d_normal)

        # Gradients: per-sample bounds of each ray, through the full march's operators.
        m0 = np.where(valid, mask - eta, 1.0)
        gwt, gwl = (np.where(valid, g / mask, 0.0) for g in (gd, gi))
        gwc = gm - (gd * depth + gi * old["illum"]) / mask
        g_max = np.maximum(np.abs(grgb).sum(axis=1) * lam + np.abs(gwc) + np.abs(gwt) * t1
                           + np.abs(gwl) * lam, np.abs(grgb @ np.asarray(BACKGROUND)))
        d_g = np.where(valid, 5 * eta * (np.abs(gd) * t1 + np.abs(gi) * lam) / m0 ** 2, 0.0)
        beta = grid.sdf_beta
        alpha_dt = grid.sdf_alpha * ref_cache.march.dt
        per_ray = {
            "field": (2 * eps / beta) * g_max + alpha_dt * eps * g_max / (2 * beta)
            + alpha_dt / (4 * beta) * (2 * d_g + 4 * (g_max + d_g) * eta),
            "albedo": eta * lam * np.abs(grgb),
            "light_table": eta * (np.abs(grgb).sum(axis=1)
                                  + np.where(valid, 2 * np.abs(gi) / m0 ** 2, 0.0)),
        }
        ops = {"field": ref_cache.march.op, "albedo": ref_cache.march.op,
               "light_table": ref_cache.march.lop}
        bound = {}
        for name, per_sample in per_ray.items():
            got = np.abs(getattr(grads, name) - getattr(ref_grads, name))
            bound[name] = (ops[name].T @ np.repeat(per_sample, SAMPLES, axis=0)).reshape(got.shape)
            assert np.all(got <= bound[name]), name
        got = np.abs(grads.light_amplitudes - ref_grads.light_amplitudes)
        assert np.all(got <= np.abs(light.basis).T @ bound["light_table"].ravel())


class TestNormalsOverrideShape:
    @pytest.mark.parametrize("shape", [(4, 4, 4, 3), (4, 4, 3, 8), (16, 8, 3)],
                             ids=["too-few-samples", "wrong-layout", "flat-pixels"])
    def test_rejected(self, shape):
        with pytest.raises(ValueError, match="normals_override"):
            render(scene("density"), camera(px=4), light_table(), samples_per_ray=8,
                   normals_override=np.ones(shape))


class TestNormalsOverrideNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"])
    def test_rejected(self, value):
        normals = np.zeros((4, 4, 8, 3))
        normals[..., 2] = 1.0
        normals[2, 2, 3, 0] = value  # on a ray that hits the cube
        assert intersect_unit_cube(*camera_rays(camera(px=4)))[2][2, 2]
        with pytest.raises(ValueError, match="normals_override must be finite"):
            render(scene("density"), camera(px=4), light_table(), samples_per_ray=8,
                   normals_override=normals)


class TestInputValidation:
    """Malformed render, backward and light-table inputs raise a named ValueError."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"samples_per_ray": 2.5}, {"samples_per_ray": 3.0}, {"samples_per_ray": 1},
         {"background": (np.nan, 0.0, 0.0)}, {"background": (0.0, np.inf, 0.0)},
         {"background": (0.5, 0.5)}, {"background": np.ones((1, 3))},
         {"jitter_seed": 1.7}, {"jitter_seed": 3.0}, {"jitter_seed": "3"}, {"jitter_seed": -1},
         {"jitter_seed": 2 ** 64}],
        ids=["samples-fractional", "samples-float", "samples-one", "background-nan",
             "background-inf", "background-2-vector", "background-row", "seed-fractional",
             "seed-float", "seed-str", "seed-negative", "seed-too-large"],
    )
    def test_render_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            render(scene("density"), camera(px=4), light_table(), **kwargs)

    def test_numpy_integer_samples_per_ray(self):
        a, b = (render(scene("sdf"), camera(px=4), light_table(), samples_per_ray=s)
                for s in (8, np.int64(8)))
        for name in FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_numpy_integer_jitter_seed(self):
        a, b = (render(scene("sdf"), camera(px=4), light_table(), samples_per_ray=8,
                       jitter_seed=s)
                for s in (3, np.int64(3)))
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

    @pytest.mark.parametrize("name", ["g_rgb", "g_mask", "g_depth", "g_illum"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_backward_rejects_non_finite_upstream(self, name, value):
        bundle, cache = render(scene("sdf"), camera(), light_table(), samples_per_ray=SAMPLES,
                               want_cache=True)
        upstream = {"g_rgb": np.ones((PX, PX, 3))}
        bad = np.zeros((PX, PX, 3) if name == "g_rgb" else (PX, PX))
        bad[PX // 2, PX // 2] = value
        assert bundle.mask[PX // 2, PX // 2] > 0.0  # on a hit pixel
        upstream[name] = bad
        with pytest.raises(ValueError, match=name):
            render_backward(cache, **upstream)

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
