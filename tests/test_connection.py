import numpy as np
import pytest

from geoconn import (
    AnchorBundle,
    BundleChange,
    CoordDomain,
    GeneralConnection,
    LinearConnection,
    MatrixField,
    PullbackError,
    RegularityError,
    ShapeError,
    VectorField,
    connection_map,
    intersection_sum_dims,
    lift,
    lift_section,
    partial_connection_test,
    restrict_ordinary_connection,
    to_field,
    to_matrix_field,
    to_vector_field,
    transform_connection,
    vertical_part,
)
from geoconn.checks import random_linear_section


@pytest.fixture
def scalar_setup():
    # n = k = l = 1, identity anchor, coefficient 1.
    dom = CoordDomain.cube(1, -4, 4)
    bundle = AnchorBundle.identity(dom)
    conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
    return bundle, conn


class TestLift:
    def test_zero_connection(self):
        dom = CoordDomain.cube(1, -4, 4)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        dx, dy = lift(conn, (np.array([0.0]), np.array([1.0])), np.array([1.0]))
        assert np.allclose(dx, [1.0]) and np.allclose(dy, [0.0])

    def test_linear_coefficient_contraction(self, scalar_setup):
        _, conn = scalar_setup
        dx, dy = lift(conn, (np.array([0.0]), np.array([2.0])), np.array([3.0]))
        assert dx[0] == 3.0
        assert dy[0] == 6.0  # coefficient * direction * fiber = 1 * 3 * 2

    def test_zero_direction(self, scalar_setup, rng):
        _, conn = scalar_setup
        dx, dy = lift(conn, (np.array([0.5]), rng.uniform(-1, 1, 1)), np.zeros(1))
        assert dx[0] == 0.0 and dy[0] == 0.0

    def test_base_component_is_anchor_image(self, heisenberg_lie_case, rng):
        conn = heisenberg_lie_case.connection
        bundle = heisenberg_lie_case.bundle
        for x in bundle.base.sample(rng, 20):
            u = rng.uniform(-2, 2, bundle.k)
            y = rng.uniform(-2, 2, conn.l)
            dx, _ = lift(conn, (x, y), u)
            assert np.max(np.abs(dx - bundle.anchor_matrix(x) @ u)) < 1e-12


class TestLiftSection:
    def test_zero_section(self, heisenberg_lie_case):
        conn = heisenberg_lie_case.connection
        s = VectorField.constant(conn.bundle.base, np.zeros(3))
        field = lift_section(conn, s)
        assert np.allclose(field.value(np.array([0.1, 0.2, 0.3, 1.0, -1.0])), 0.0)

    def test_horizontal_unit_field(self):
        dom = CoordDomain.cube(1, -4, 4)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        s = VectorField.constant(dom, [1.0])
        field = lift_section(conn, s)
        assert np.allclose(field.value(np.array([0.5, 2.0])), [1.0, 0.0])

    def test_function_linearity_spot(self, scalar_setup):
        # Scaling the section by a base function scales the lift by its value.
        _, conn = scalar_setup
        dom = conn.bundle.base
        f = to_field("x0", dom)
        s = VectorField.constant(dom, [1.0])
        from geoconn import scale_section

        fs_lift = lift_section(conn, scale_section(f, s))
        s_lift = lift_section(conn, s)
        e = np.array([2.0, 1.0])
        assert np.allclose(fs_lift.value(e), 2.0 * s_lift.value(e), atol=1e-12)


class TestVerticalPart:
    def test_lift_has_zero_defect(self, scalar_setup):
        _, conn = scalar_setup
        e = (np.array([0.3]), np.array([1.5]))
        nvec = np.array([2.0])
        w = lift(conn, e, nvec)
        base, fiber = vertical_part(conn, e, nvec, w)
        assert np.allclose(base, 0.0) and np.allclose(fiber, 0.0)

    def test_zero_coefficients_pass_through(self):
        dom = CoordDomain.cube(1, -4, 4)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        e = (np.array([0.0]), np.array([0.7]))
        nvec = np.array([1.0])
        w = (np.array([1.0]), np.array([5.0]))
        _, fiber = vertical_part(conn, e, nvec, w)
        assert fiber[0] == 5.0

    def test_worked_value(self, scalar_setup):
        _, conn = scalar_setup
        e = (np.array([0.0]), np.array([2.0]))
        nvec = np.array([3.0])
        w = (np.array([3.0]), np.array([7.0]))
        _, fiber = vertical_part(conn, e, nvec, w)
        assert fiber[0] == pytest.approx(1.0)  # 7 - 1*3*2

    def test_incompatible_tangent_rejected(self, scalar_setup):
        _, conn = scalar_setup
        e = (np.array([0.0]), np.array([2.0]))
        with pytest.raises(PullbackError):
            vertical_part(conn, e, np.array([3.0]), (np.array([1.0]), np.array([7.0])))


class TestConnectionMap:
    def test_zero_on_lifts(self, scalar_setup):
        _, conn = scalar_setup
        e = (np.array([0.1]), np.array([-0.5]))
        nvec = np.array([1.2])
        assert np.allclose(connection_map(conn, e, nvec, lift(conn, e, nvec)), 0.0)

    def test_worked_value(self, scalar_setup):
        _, conn = scalar_setup
        e = (np.array([0.0]), np.array([2.0]))
        got = connection_map(conn, e, np.array([3.0]), (np.array([3.0]), np.array([7.0])))
        assert got[0] == pytest.approx(1.0)

    def test_zero_coefficients_return_fiber_component(self):
        dom = CoordDomain.cube(2)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 2)
        e = (np.zeros(2), np.array([1.0, 1.0]))
        nvec = np.array([0.5, -0.5])
        w = (bundle.anchor_matrix(e[0]) @ nvec, np.array([2.0, -3.0]))
        assert np.allclose(connection_map(conn, e, nvec, w), [2.0, -3.0])


class TestTransform:
    def test_identity_change_fixes_coefficients_exactly(self, heisenberg_lie_case, rng):
        conn = heisenberg_lie_case.connection
        change = BundleChange.identity(conn.bundle.base, conn.l, conn.bundle.k)
        moved = transform_connection(conn, change)
        for x in conn.bundle.base.sample(rng, 10):
            assert np.max(np.abs(moved.coeff_tensor(x) - conn.coeff_tensor(x))) == 0.0
            assert np.max(np.abs(moved.bundle.anchor_matrix(x) - conn.bundle.anchor_matrix(x))) == 0.0

    def test_constant_change_of_zero_stays_zero(self, rng):
        dom = CoordDomain.cube(2)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 2)
        xi = MatrixField.constant(dom, np.array([[2.0, 1.0], [0.0, 1.0]]))
        lam = MatrixField.constant(dom, np.array([[1.0, 0.5], [0.0, 2.0]]))
        moved = transform_connection(conn, BundleChange(dom, xi, lam))
        for x in dom.sample(rng, 5):
            assert np.max(np.abs(moved.coeff_tensor(x))) == 0.0

    def test_exponential_fiber_rescaling(self):
        # 1-d case: zero coefficients, fiber rescaled by e^x; the derivative
        # term contributes exactly 1.
        dom = CoordDomain.cube(1, -1, 1)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        xi = to_matrix_field([["exp(x0)"]], dom)
        lam = MatrixField.identity(dom, 1)
        moved = transform_connection(conn, BundleChange(dom, xi, lam))
        for x0 in (-0.5, 0.0, 0.35, 0.8):
            assert moved.coeff_tensor(np.array([x0]))[0, 0, 0] == pytest.approx(1.0, abs=1e-8)

    @staticmethod
    def _round_trip():
        dom = CoordDomain.cube(2, -1, 1)
        bundle = AnchorBundle.from_exprs(dom.bounds, [["1", "x1/4"], ["0", "1"]])
        conn = LinearConnection.from_exprs(
            bundle,
            [[["0.3*x0", "0.1"], ["0", "0.2*x1"]], [["0.1*x1", "0"], ["0.05", "0.4*x0"]]],
        )
        xi = to_matrix_field([["exp(x0/2)", "x1/4"], ["0", "1 + x0^2/8"]], dom)
        lam = to_matrix_field([["1", "x0/8"], ["0", "1 + x1^2/16"]], dom)
        change = BundleChange(dom, xi, lam)
        there = transform_connection(conn, change)
        return conn, transform_connection(there, change.inverted())

    def test_round_trip(self, rng):
        conn, back = self._round_trip()
        for x in conn.bundle.base.sample(rng, 5):
            assert np.max(np.abs(back.coeff_tensor(x) - conn.coeff_tensor(x))) < 1e-6
            assert np.max(np.abs(back.bundle.anchor_matrix(x) - conn.bundle.anchor_matrix(x))) < 1e-6

    def test_batch_inverts_no_more_than_single_points(self, monkeypatch):
        # More points than the per-point cache holds: sampled entry by entry,
        # every entry would re-evaluate the change at every point.
        pts = CoordDomain.cube(2, -1, 1).sample(np.random.default_rng(0), 100)
        real_inv = np.linalg.inv
        calls = []

        def counting_inv(mat):
            calls.append(mat)
            return real_inv(mat)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        single = self._round_trip()[1]
        expected = np.array([single.coeff_tensor(p) for p in pts])
        singles = len(calls)
        calls.clear()
        batch = self._round_trip()[1]
        got = batch.coeff_sample(pts)
        assert len(calls) <= singles
        assert np.array_equal(got, expected)
        calls.clear()
        assert np.array_equal(batch.coeff_tensor(pts), expected)
        assert len(calls) <= singles
        # Partials visit 2n shifted points per point: 20 points already
        # overflow the cache if taken entry by entry.
        few = pts[:20]
        single = self._round_trip()[1]
        calls.clear()
        expected = np.array([single.coeff_tensor_partial(p) for p in few])
        singles = len(calls)
        batch = self._round_trip()[1]
        calls.clear()
        assert np.array_equal(batch.coeff_tensor_partial(few), expected)
        assert len(calls) <= singles

    def test_inverted_change_inverts_once_per_point(self, monkeypatch):
        dom = CoordDomain.cube(1, -1, 1)
        xi = to_matrix_field([["exp(x0)", "x0"], ["0", "2"]], dom)
        lam = to_matrix_field([["1", "0"], ["x0", "1 + x0^2"]], dom)
        inverse = BundleChange(dom, xi, lam).inverted()
        real_inv = np.linalg.inv
        calls = []

        def counting_inv(mat):
            calls.append(mat)
            return real_inv(mat)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        x = np.array([0.3])
        xi_inv = inverse.xi.value(x)
        lam_inv = inverse.lam.value(x)
        assert len(calls) == 2
        assert np.allclose(xi_inv @ xi.value(x), np.eye(2), atol=1e-14)
        assert np.allclose(lam_inv @ lam.value(x), np.eye(2), atol=1e-14)

    def test_base_diffeomorphism_linear(self):
        # xbar = 2x + 1 with constant fiber changes: the anchor picks up the
        # Jacobian, coefficients stay zero.
        dom = CoordDomain.cube(1, -1, 1)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        target = CoordDomain.cube(1, -1, 3)
        xbar = to_vector_field(["2*x0 + 1"], dom)
        change = BundleChange(
            dom,
            MatrixField.identity(dom, 1),
            MatrixField.identity(dom, 1),
            xbar=xbar,
            xbar_inverse=lambda p: (np.asarray(p) - 1.0) / 2.0,
            target_domain=target,
        )
        moved = transform_connection(conn, change)
        assert moved.bundle.anchor_matrix(np.array([1.0]))[0, 0] == pytest.approx(2.0)
        assert moved.coeff_tensor(np.array([1.0]))[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_classical_one_dimensional_law(self):
        # Ordinary connection on the tangent bundle: both change matrices are
        # the base Jacobian.  The frame-derivative coefficients (negatives of
        # the stored ones) must follow the classical one-dimensional law
        # new = old/J - J'/J^2 evaluated at the source point.
        dom = CoordDomain.cube(1, -1, 1)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.from_exprs(bundle, [[["0.7 + 0.3*x0"]]])
        target = CoordDomain.box([[np.sinh(-1.0) - 0.1, np.sinh(1.0) + 0.1]])
        jac = to_matrix_field([["(exp(x0) + exp(-x0))/2"]], dom)  # d/dx sinh = cosh
        xbar = to_vector_field(["(exp(x0) - exp(-x0))/2"], dom)
        change = BundleChange(dom, jac, jac, xbar=xbar, xbar_inverse=lambda p: np.arcsinh(np.asarray(p, dtype=float)), target_domain=target)
        moved = transform_connection(conn, change)
        for x0 in (-0.6, 0.0, 0.4):
            x = np.array([x0])
            j = np.cosh(x0)
            jprime = np.sinh(x0)
            classical_old = -conn.coeff_tensor(x)[0, 0, 0]
            expected_classical = classical_old / j - jprime / j**2
            xbar_pt = np.array([np.sinh(x0)])
            got_classical = -moved.coeff_tensor(xbar_pt)[0, 0, 0]
            assert got_classical == pytest.approx(expected_classical, abs=1e-7)

    def test_singular_change_rejected(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.identity(dom)
        conn = LinearConnection.zero(bundle, 1)
        xi = to_matrix_field([["x0"]], dom)  # singular at x0 = 0
        moved = transform_connection(conn, BundleChange(dom, xi, MatrixField.identity(dom, 1)))
        with pytest.raises(RegularityError):
            moved.coeff_tensor(np.array([0.0]))


class TestPartialConnection:
    def test_identity_anchor_always_partial(self, ehresmann_case, rng):
        for x in ehresmann_case.bundle.base.sample(rng, 5):
            ok, _ = partial_connection_test(ehresmann_case.connection, x, rng=rng)
            assert ok

    def test_zero_anchor_nonzero_coefficients(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        # Kernel of the anchor is everything; the lift kernel at y != 0 is
        # trivial, so the dimensions disagree.
        ok, report = partial_connection_test(conn, np.array([0.0]))
        assert not ok
        assert report["witness"] is not None
        assert report["dim_ker_rho"] == 1

    def test_zero_anchor_zero_coefficients(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.zero(bundle, 1)
        ok, _ = partial_connection_test(conn, np.array([0.0]))
        assert ok

    def test_nonlinear_kernel_varies_with_fiber_point(self):
        # General coefficients vanishing at y = 0 only: the deterministic
        # grid must catch the mismatch at some sampled fiber point.
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = GeneralConnection.from_exprs(bundle, [["y0"]])
        ok, report = partial_connection_test(conn, np.array([0.0]))
        assert not ok


class TestIntersectionSum:
    def test_identity_anchor(self, ehresmann_case):
        e = (np.array([0.2, -0.3]), np.array([0.5, 1.0]))
        report = intersection_sum_dims(ehresmann_case.connection, e)
        assert report["dim_intersection"] == 0
        assert report["sum_spans"] is True
        assert report["consistent"]

    def test_zero_anchor_vertical_image(self):
        dom = CoordDomain.cube(1)
        bundle = AnchorBundle.zero(dom, 1)
        conn = LinearConnection.from_array(bundle, np.array([[[1.0]]]))
        report = intersection_sum_dims(conn, (np.array([0.0]), np.array([2.0])))
        assert report["dim_intersection"] == 1
        assert report["sum_spans"] is False
        assert report["consistent"]

    def test_contact_frame_rank_deficit(self, subbundle_case):
        e = (np.array([0.4, 0.1, -0.2]), np.array([1.0, 2.0]))
        report = intersection_sum_dims(subbundle_case.connection, e)
        assert report["dim_intersection"] == 0
        assert report["sum_spans"] is False
        assert report["consistent"]


class TestRestrictOrdinary:
    def test_zero_ordinary_gives_zero(self, subbundle_case, rng):
        dom = subbundle_case.bundle.base
        tangent = AnchorBundle.identity(dom)
        ordinary = LinearConnection.zero(tangent, 2)
        restricted = restrict_ordinary_connection(ordinary, subbundle_case.bundle)
        for x in dom.sample(rng, 5):
            assert np.max(np.abs(restricted.coeff_tensor(x))) == 0.0
            ok, _ = partial_connection_test(restricted, x, rng=rng)
            assert ok

    def test_identity_anchor_returns_same_coefficients(self, rng):
        dom = CoordDomain.cube(2)
        tangent = AnchorBundle.identity(dom)
        ordinary = LinearConnection.from_exprs(
            tangent, [[["x0", "0"], ["0.2", "x1"]], [["0", "x1"], ["0.1", "0"]]]
        )
        restricted = restrict_ordinary_connection(ordinary, tangent)
        for x in dom.sample(rng, 10):
            assert np.max(np.abs(restricted.coeff_tensor(x) - ordinary.coeff_tensor(x))) < 1e-12

    def test_composition_with_frame(self, subbundle_case, rng):
        # The restricted coefficients contract the ordinary ones with the frame.
        dom = subbundle_case.bundle.base
        tangent = AnchorBundle.identity(dom)
        ordinary = LinearConnection.from_exprs(
            tangent,
            [
                [["0.1*x0", "0"], ["0", "0.2"]],
                [["0", "0.3*x1"], ["0.1", "0"]],
                [["0.2", "0"], ["0", "0.1*x2"]],
            ],
        )
        restricted = restrict_ordinary_connection(ordinary, subbundle_case.bundle)
        for x in dom.sample(rng, 5):
            gam = subbundle_case.bundle.anchor_matrix(x)
            expected = np.einsum("jAB,ja->aAB", ordinary.coeff_tensor(x), gam)
            assert np.max(np.abs(restricted.coeff_tensor(x) - expected)) < 1e-12
            ok, _ = partial_connection_test(restricted, x, rng=rng)
            assert ok

    def test_kernel_dimensions_match_anchor(self, heisenberg_sr_case, rng):
        # The induced connection has lift kernel equal to the anchor kernel.
        dom = heisenberg_sr_case.bundle.base
        tangent = AnchorBundle.identity(dom)
        ordinary = LinearConnection.from_exprs(
            tangent,
            [
                [["0.1", "0"], ["0", "0.2*x0"]],
                [["0", "0.1*x1"], ["0.3", "0"]],
                [["0.2*x2", "0"], ["0", "0.1"]],
            ],
        )
        restricted = restrict_ordinary_connection(ordinary, heisenberg_sr_case.bundle)
        for x in dom.sample(rng, 5):
            ok, report = partial_connection_test(restricted, x, rng=rng)
            assert ok
            assert report["dim_ker_rho"] == 1

    def test_wrong_anchor_rejected(self, subbundle_case):
        with pytest.raises(ShapeError):
            restrict_ordinary_connection(subbundle_case.connection, subbundle_case.bundle)


def test_equal_lift_images_force_equal_coefficients(heisenberg_lie_case, rng):
    # Uniqueness consequence: coefficients are recoverable from lift values,
    # so two connections agreeing on all sampled lifts agree as coefficients.
    conn = heisenberg_lie_case.connection
    bundle = heisenberg_lie_case.bundle
    rebuilt = LinearConnection(bundle, conn.l, conn.coeffs)
    for x in bundle.base.sample(rng, 5):
        for _ in range(5):
            y = rng.uniform(-2, 2, conn.l)
            u = rng.uniform(-2, 2, bundle.k)
            a = lift(conn, (x, y), u)
            b = lift(rebuilt, (x, y), u)
            assert np.max(np.abs(a[1] - b[1])) < 1e-12
        assert np.max(np.abs(conn.coeff_tensor(x) - rebuilt.coeff_tensor(x))) < 1e-8


def test_prop22_identities_random_sections(heisenberg_lie_case, rng):
    from geoconn import add_sections, scale_section
    from geoconn.checks import random_scalar

    conn = heisenberg_lie_case.connection
    bundle = heisenberg_lie_case.bundle
    dom = bundle.base
    for _ in range(25):
        x = dom.sample(rng, 1)[0]
        y = rng.uniform(-2, 2, conn.l)
        e = (x, y)
        s1 = random_linear_section(dom, bundle.k, rng)
        s2 = random_linear_section(dom, bundle.k, rng)
        f = random_scalar(dom, rng)
        a1 = lift(conn, e, s1.value(x))
        a2 = lift(conn, e, s2.value(x))
        asum = lift(conn, e, add_sections(s1, s2).value(x))
        assert np.max(np.abs(np.concatenate(asum) - np.concatenate(a1) - np.concatenate(a2))) < 1e-10
        af = lift(conn, e, scale_section(f, s1).value(x))
        assert np.max(np.abs(np.concatenate(af) - f.value(x) * np.concatenate(a1))) < 1e-10
