import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DomainError,
    FeasibilityError,
    Spin,
    coeff_table,
    dequantizer,
    dual_vectors,
    gram,
    kernel_p_to_w,
    kernel_w_to_p,
    l_dequantizer,
    l_quantizer,
    p_to_w,
    prob_vector,
    quantizer,
    random_density_matrix,
    sphere_quadrature,
    star_apply,
    star_kernel,
    symbol,
    symbol_to_operator,
    tomogram,
    w_to_p,
)
from spinportrait.orthopoly import s_operator_stack
from conftest import assert_relative, coplanar_triad, loop_quantizer, random_direction_set, shell_sum_quantizer


# Reference implementations: each kernel evaluated entry by entry from its
# shell expansion or trace form, with quantizers from the per-shell loop.


def star_kernel_expanded(spin, ds, two_m3, k3, two_m2, k2, two_m1, k1) -> complex:
    """Star-product kernel through the shell expansion of both quantizers.

    (4j+1) sum over shells L1 >= ceil(k1/2), L2 >= ceil(k2/2), L3, of
    f_L1(m1) f_L2(m2) f_L3(m3) M(L1)^-1_{k1 k1'} M(L2)^-1_{k2 k2'}
    Tr[S_L1(n_k1') S_L2(n_k2') S_L3(n_k3)].  Cross-checks the trace form.
    """
    table = coeff_table(spin)
    stacks = [s_operator_stack(spin, n) for n in ds.dirs]

    def minv_row(L, k):
        return np.linalg.inv(gram(spin, L, ds))[k] if L else np.array([1.0])

    i1, i2, i3 = (spin.m_index(m) for m in (two_m1, two_m2, two_m3))
    total = 0.0 + 0.0j
    for l1 in range((k1 + 1) // 2, spin.two_j + 1):
        minv1 = minv_row(l1, k1)
        for l2 in range((k2 + 1) // 2, spin.two_j + 1):
            minv2 = minv_row(l2, k2)
            for l3 in range(0, spin.two_j + 1):
                f123 = table[l1, i1] * table[l2, i2] * table[l3, i3]
                if f123 == 0.0:
                    continue
                acc = 0.0 + 0.0j
                for k1p in range(2 * l1 + 1):
                    for k2p in range(2 * l2 + 1):
                        acc += (
                            minv1[k1p]
                            * minv2[k2p]
                            * np.trace(stacks[k1p][l1] @ stacks[k2p][l2] @ stacks[k3][l3])
                        )
                total += f123 * acc
    return complex((2 * spin.two_j + 1) * total)


def layout(spin, ds):
    return [(k, two_m) for k in range(ds.n_dirs) for two_m in spin.two_m_values()]


def loop_quantizers(spin, ds):
    return np.array([loop_quantizer(spin, k, m, ds) for k, m in layout(spin, ds)])


def loop_dequantizers(spin, ds):
    return np.array([dequantizer(spin, m, ds.dirs[k]) / ds.n_dirs for k, m in layout(spin, ds)])


def star_kernel_by_trace(spin, ds, two_m3, k3, two_m2, k2, two_m1, k1) -> complex:
    d1 = loop_quantizer(spin, k1, two_m1, ds)
    d2 = loop_quantizer(spin, k2, two_m2, ds)
    u3 = dequantizer(spin, two_m3, ds.dirs[k3]) / ds.n_dirs
    return complex(np.trace(d1 @ d2 @ u3))


def star_apply_by_kernel(spin, p1, p2, ds) -> np.ndarray:
    """Output entry (m3, k3) as p1 K(m3, k3, ., .) p2, one kernel slice at a time."""
    d_stack = loop_quantizers(spin, ds)
    return np.array(
        [
            p1 @ np.einsum("aij,bjk,ki->ab", d_stack, d_stack, u3) @ p2
            for u3 in loop_dequantizers(spin, ds)
        ]
    )


def kernel_p_to_w_by_trace(spin, ds, two_m, n, two_m_prime, k_prime) -> float:
    d_disc = loop_quantizer(spin, k_prime, two_m_prime, ds)
    return float(np.real(np.trace(d_disc @ dequantizer(spin, two_m, n))))


def p_to_w_by_kernel(spin, ds, p, two_m, n) -> float:
    return sum(
        kernel_p_to_w_by_trace(spin, ds, two_m, n, m_p, k_p) * p[i]
        for i, (k_p, m_p) in enumerate(layout(spin, ds))
    )


def w_to_p_by_nodes(spin, ds, tomogram_fn) -> np.ndarray:
    """Quadrature of the w->P kernel node by node: one continuous quantizer sum per node."""
    nodes, weights = sphere_quadrature(spin)
    u_stack = loop_dequantizers(spin, ds)
    out = np.zeros(u_stack.shape[0])
    for n_prime, weight in zip(nodes, weights):
        acc = sum(
            tomogram_fn(m_p, n_prime) * shell_sum_quantizer(spin, m_p, n_prime)
            for m_p in spin.two_m_values()
        )
        out += weight * np.real(np.einsum("Iab,ba->I", u_stack, acc))
    return out


def random_operators(spin, rng, count):
    shape = (count, spin.dim, spin.dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def feasible_set(two_j: int, seed: int):
    from spinportrait import condition_number, q_matrix

    spin = Spin(two_j)
    rng = np.random.default_rng(seed)
    ds = random_direction_set(spin, rng)
    while condition_number(q_matrix(spin, ds.dirs)) > 50.0:
        ds = random_direction_set(spin, rng)
    return ds


class TestSymbol:
    def test_symbol_of_state_is_probability_vector(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(0))
        s = symbol(spin, rho, orthogonal_triad)
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        assert np.abs(s - p.values).max() < 1e-14
        assert np.abs(s.imag).max() < 1e-14

    def test_symbol_inverts_through_quantizers(self, qutrit_set):
        spin = Spin(2)
        rng = np.random.default_rng(1)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = g + g.conj().T  # arbitrary Hermitian, not a state
        rec = symbol_to_operator(symbol(spin, op, qutrit_set), qutrit_set)
        assert np.abs(rec - op).max() < 1e-11


class TestStarKernel:
    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 4)])
    def test_trace_form_equals_expansion(self, two_j, seed):
        spin = Spin(two_j)
        ds = feasible_set(two_j, seed)
        rng = np.random.default_rng(seed)
        ms = list(spin.two_m_values())
        for _ in range(12):
            m1, m2, m3 = rng.choice(ms, size=3)
            k1, k2, k3 = rng.integers(0, ds.n_dirs, size=3)
            a = star_kernel(spin, ds, int(m3), int(k3), int(m2), int(k2), int(m1), int(k1))
            b = star_kernel_expanded(
                spin, ds, int(m3), int(k3), int(m2), int(k2), int(m1), int(k1)
            )
            assert abs(a - b) < 1e-10

    def test_conjugation_symmetry(self):
        spin = Spin(1)
        ds = feasible_set(1, 3)
        for m3, k3 in ((1, 0), (-1, 2)):
            for m2, k2 in ((1, 1), (-1, 0)):
                for m1, k1 in ((-1, 1), (1, 2)):
                    a = star_kernel(spin, ds, m3, k3, m2, k2, m1, k1)
                    b = star_kernel(spin, ds, m3, k3, m1, k1, m2, k2)
                    assert abs(a - b.conjugate()) < 1e-12

    def test_qubit_closed_form_regression(self):
        # the closed three-point form evaluates the trace kernel with its
        # first and third argument pairs swapped; no numeric factor differs
        spin = Spin(1)
        ds = feasible_set(1, 8)
        ns = ds.unit_vectors()
        ls = dual_vectors(ds)

        def closed_form(m3, k3, m2, k2, m1, k1):
            term = 0.25 * (k3 == 0) * (k2 == 0)
            term += (k3 == 0) * m2 * m1 * float(ls[k2] @ ns[k1])
            term += (k2 == 0) * m3 * m1 * float(ls[k3] @ ns[k1])
            term += m3 * m2 * float(ls[k3] @ ls[k2])
            term += 2j * m3 * m2 * m1 * float(np.cross(ls[k3], ls[k2]) @ ns[k1])
            return 3.0 * term

        for k3 in range(3):
            for k2 in range(3):
                for k1 in range(3):
                    for tm3, tm2, tm1 in ((1, 1, 1), (1, -1, 1), (-1, 1, -1)):
                        trace_value = star_kernel(spin, ds, tm3, k3, tm2, k2, tm1, k1)
                        swapped = closed_form(
                            tm1 / 2.0, k1, tm2 / 2.0, k2, tm3 / 2.0, k3
                        )
                        assert abs(trace_value - swapped) < 1e-11


class TestStarApply:
    def test_identity_composition_scaling(self, orthogonal_triad):
        spin = Spin(1)
        eye_symbol = symbol(spin, np.eye(2, dtype=complex) / 2.0, orthogonal_triad)
        out = star_apply(spin, eye_symbol, eye_symbol, orthogonal_triad)
        expected = symbol(spin, np.eye(2, dtype=complex) / 4.0, orthogonal_triad)
        assert np.abs(out - expected).max() < 1e-12
        assert np.abs(out - eye_symbol / 2.0).max() < 1e-12

    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_matches_matrix_product(self, two_j, seed):
        spin = Spin(two_j)
        ds = feasible_set(two_j, seed)
        rng = np.random.default_rng(seed + 100)
        rho1 = random_density_matrix(spin, rng)
        rho2 = random_density_matrix(spin, rng)
        out = star_apply(
            spin, symbol(spin, rho1, ds), symbol(spin, rho2, ds), ds
        )
        direct = symbol(spin, rho1 @ rho2, ds)
        assert np.abs(out - direct).max() < 1e-10

    def test_identity_symbol_is_neutral(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(5))
        p = symbol(spin, rho, orthogonal_triad)
        eye_symbol = symbol(spin, np.eye(2, dtype=complex), orthogonal_triad)
        assert np.abs(star_apply(spin, p, eye_symbol, orthogonal_triad) - p).max() < 1e-11
        assert np.abs(star_apply(spin, eye_symbol, p, orthogonal_triad) - p).max() < 1e-11

    def test_projector_idempotent(self, orthogonal_triad):
        spin = Spin(1)
        ket = np.array([0.6, 0.8j])
        proj = np.outer(ket, ket.conj())
        p = symbol(spin, proj, orthogonal_triad)
        assert np.abs(star_apply(spin, p, p, orthogonal_triad) - p).max() < 1e-10

    def test_total_sum_recovers_product_trace(self, qutrit_set):
        spin = Spin(2)
        rng = np.random.default_rng(6)
        rho1 = random_density_matrix(spin, rng)
        rho2 = random_density_matrix(spin, rng)
        out = star_apply(
            spin, symbol(spin, rho1, qutrit_set), symbol(spin, rho2, qutrit_set), qutrit_set
        )
        assert out.sum() == pytest.approx(
            complex(np.trace(rho1 @ rho2)), abs=1e-11
        )

    def test_associativity(self):
        spin = Spin(1)
        ds = feasible_set(1, 12)
        rng = np.random.default_rng(12)
        symbols = [
            symbol(spin, random_density_matrix(spin, rng), ds) for _ in range(3)
        ]
        left = star_apply(spin, star_apply(spin, symbols[0], symbols[1], ds), symbols[2], ds)
        right = star_apply(spin, symbols[0], star_apply(spin, symbols[1], symbols[2], ds), ds)
        assert np.abs(left - right).max() < 1e-9

    @pytest.mark.parametrize("two_j,seed", [(1, 13), (2, 14), (4, 15)])
    def test_associativity_on_complex_symbols(self, two_j, seed):
        # symbols of non-Hermitian operators carry imaginary parts that the
        # operator round trip has to keep
        spin = Spin(two_j)
        ds = feasible_set(two_j, seed)
        ops = random_operators(spin, np.random.default_rng(seed), 3)
        symbols = [symbol(spin, op, ds) for op in ops]
        assert min(np.abs(s.imag).max() for s in symbols) > 1e-3
        left = star_apply(spin, star_apply(spin, symbols[0], symbols[1], ds), symbols[2], ds)
        right = star_apply(spin, symbols[0], star_apply(spin, symbols[1], symbols[2], ds), ds)
        direct = symbol(spin, ops[0] @ ops[1] @ ops[2], ds)
        assert_relative(left, right, 1e-10)
        assert_relative(left, direct, 1e-10)

    def test_refused_set_raises_the_stack_refusal(self):
        ds = coplanar_triad()
        spin = ds.spin
        with pytest.raises(FeasibilityError) as stack_refusal:
            quantizer(spin, 0, 1, ds)
        p = np.full(6, 1.0 / 6.0)
        with pytest.raises(FeasibilityError) as star_refusal:
            star_apply(spin, p, p, ds)
        with pytest.raises(FeasibilityError) as p_to_w_refusal:
            p_to_w(spin, ds, p, 1, Direction(0.3, 0.4))
        assert str(star_refusal.value) == str(stack_refusal.value)
        assert str(p_to_w_refusal.value) == str(stack_refusal.value)

    @pytest.mark.parametrize("length", [5, 7])
    def test_wrong_length_symbols_rejected(self, orthogonal_triad, length):
        spin = Spin(1)
        good = np.full(6, 1.0 / 6.0)
        bad = np.full(length, 1.0 / length)
        with pytest.raises(DomainError):
            star_apply(spin, good, bad, orthogonal_triad)
        with pytest.raises(DomainError):
            star_apply(spin, bad, good, orthogonal_triad)


class TestParentOracles:
    """Round trips through the cached stacks against the entry-by-entry kernels."""

    @pytest.fixture(params=[(1, 30), (2, 31), (4, 32)], ids=["two_j=1", "two_j=2", "two_j=4"])
    def case(self, request):
        two_j, seed = request.param
        spin = Spin(two_j)
        return spin, feasible_set(two_j, seed), np.random.default_rng(seed)

    def test_quantizer(self, case):
        spin, ds, _ = case
        for k, two_m in layout(spin, ds):
            assert_relative(quantizer(spin, k, two_m, ds), loop_quantizer(spin, k, two_m, ds))

    def test_star_kernel(self, case):
        spin, ds, rng = case
        ms = list(spin.two_m_values())
        for _ in range(12):
            m1, m2, m3 = (int(m) for m in rng.choice(ms, size=3))
            k1, k2, k3 = (int(k) for k in rng.integers(0, ds.n_dirs, size=3))
            args = (spin, ds, m3, k3, m2, k2, m1, k1)
            assert_relative(star_kernel(*args), star_kernel_by_trace(*args))

    def test_star_apply(self, case):
        spin, ds, rng = case
        p1, p2 = (symbol(spin, op, ds) for op in random_operators(spin, rng, 2))
        assert_relative(star_apply(spin, p1, p2, ds), star_apply_by_kernel(spin, p1, p2, ds))

    def test_kernel_p_to_w(self, case):
        spin, ds, rng = case
        n = Direction(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for two_m in spin.two_m_values():
            for k_p, m_p in layout(spin, ds):
                assert_relative(
                    kernel_p_to_w(spin, ds, two_m, n, m_p, k_p),
                    kernel_p_to_w_by_trace(spin, ds, two_m, n, m_p, k_p),
                )

    def test_p_to_w(self, case):
        spin, ds, rng = case
        p = prob_vector(spin, random_density_matrix(spin, rng), ds.dirs).values
        n = Direction(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for two_m in spin.two_m_values():
            assert_relative(p_to_w(spin, ds, p, two_m, n), p_to_w_by_kernel(spin, ds, p, two_m, n))

    def test_w_to_p(self, case):
        spin, ds, rng = case
        rho = random_density_matrix(spin, rng)

        def fn(two_m, n):
            return tomogram(spin, rho, two_m, n)

        assert_relative(w_to_p(spin, ds, fn), w_to_p_by_nodes(spin, ds, fn))


class TestDirectionIndex:
    """Every kernel entry point rejects a direction index outside 0..n_dirs-1."""

    @pytest.mark.parametrize("k", [-1, 3])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_star_kernel(self, orthogonal_triad, k, slot):
        ks = [0, 1, 2]
        ks[slot] = k
        with pytest.raises(DomainError, match="index"):
            star_kernel(Spin(1), orthogonal_triad, 1, ks[2], -1, ks[1], 1, ks[0])

    @pytest.mark.parametrize("k", [-1, 3])
    def test_kernel_w_to_p(self, orthogonal_triad, k):
        with pytest.raises(DomainError, match="index"):
            kernel_w_to_p(Spin(1), orthogonal_triad, 1, k, 1, Direction(0.4, 0.5))

    @pytest.mark.parametrize("k", [-1, 3])
    def test_kernel_p_to_w(self, orthogonal_triad, k):
        with pytest.raises(DomainError, match="index"):
            kernel_p_to_w(Spin(1), orthogonal_triad, 1, Direction(0.4, 0.5), 1, k)


class TestWToP:
    def test_refused_set_needs_no_quantizers(self, monkeypatch):
        from spinportrait import su2

        def no_quantizers(ds):
            raise AssertionError("w_to_p built the quantizer stack")

        monkeypatch.setattr(su2, "quantizer_stack", no_quantizers)
        ds = coplanar_triad()
        spin = ds.spin
        rho = random_density_matrix(spin, np.random.default_rng(40))
        out = w_to_p(spin, ds, lambda m, n: tomogram(spin, rho, m, n))
        assert np.abs(out - prob_vector(spin, rho, ds.dirs).values).max() < 1e-12

    def test_qubit_closed_form(self, orthogonal_triad):
        spin = Spin(1)
        n_prime = Direction(1.234, 4.56)
        for k in range(3):
            nk = orthogonal_triad.dirs[k].cartesian
            for two_m in (1, -1):
                for two_mp in (1, -1):
                    value = kernel_w_to_p(spin, orthogonal_triad, two_m, k, two_mp, n_prime)
                    closed = 1.0 / 6.0 + 2.0 * (two_mp / 2.0) * (two_m / 2.0) * float(
                        n_prime.cartesian @ nk
                    )
                    assert abs(value - closed) < 1e-13

    def test_mprime_sum_at_node(self):
        spin = Spin(2)
        ds = feasible_set(2, 2)
        k = 1
        total = sum(
            kernel_w_to_p(spin, ds, 2, k, two_mp, ds.dirs[k])
            for two_mp in spin.two_m_values()
        )
        assert total == pytest.approx(1.0 / ds.n_dirs, abs=1e-12)

    def test_shell_expansion_agreement(self):
        from spinportrait import coeff_table, legendre

        spin = Spin(2)
        ds = feasible_set(2, 9)
        table = coeff_table(spin)
        n_prime = Direction(0.4, 2.0)
        for k in (0, 3):
            cosang = float(n_prime.cartesian @ ds.dirs[k].cartesian)
            for idx, two_m in enumerate(spin.two_m_values()):
                for idxp, two_mp in enumerate(spin.two_m_values()):
                    expansion = sum(
                        (2 * L + 1)
                        * table[L, idxp]
                        * table[L, idx]
                        * legendre(L, cosang)
                        for L in range(spin.dim)
                    ) / ds.n_dirs
                    value = kernel_w_to_p(spin, ds, two_m, k, two_mp, n_prime)
                    assert abs(value - expansion) < 1e-12

    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 7)])
    def test_quadrature_reproduces_probability_vector(self, two_j, seed):
        spin = Spin(two_j)
        ds = feasible_set(two_j, seed)
        rho = random_density_matrix(spin, np.random.default_rng(seed))
        out = w_to_p(spin, ds, lambda m, n: tomogram(spin, rho, m, n))
        expected = prob_vector(spin, rho, ds.dirs)
        assert np.abs(out - expected.values).max() < 1e-10


class TestPToW:
    @pytest.mark.parametrize("length", [5, 7])
    def test_wrong_length_symbol_rejected(self, orthogonal_triad, length):
        p = np.full(length, 1.0 / length)
        with pytest.raises(DomainError):
            p_to_w(Spin(1), orthogonal_triad, p, 1, Direction(0.3, 0.4))

    def test_node_interpolation(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(3))
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        for k, node in enumerate(orthogonal_triad.dirs):
            for two_m in (1, -1):
                value = p_to_w(spin, orthogonal_triad, p, two_m, node)
                assert value == pytest.approx(p.value(k, two_m) * 3.0, abs=1e-11)

    def test_off_node_prediction(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(4))
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        n = Direction(math.pi / 4, 0.0)  # (x + z)/sqrt(2)
        for two_m in (1, -1):
            predicted = p_to_w(spin, orthogonal_triad, p, two_m, n)
            direct = tomogram(spin, rho, two_m, n)
            assert abs(predicted - direct) < 1e-11

    def test_uniform_symbol_gives_flat_tomogram(self, qutrit_set):
        spin = Spin(2)
        uniform = np.full(15, 1.0 / 15.0)
        for n in [Direction(0.3, 1.0), Direction(2.0, 4.4)]:
            for two_m in spin.two_m_values():
                assert p_to_w(spin, qutrit_set, uniform, two_m, n) == pytest.approx(
                    1.0 / 3.0, abs=1e-11
                )

    def test_qubit_closed_form(self):
        spin = Spin(1)
        ds = feasible_set(1, 21)
        ls = dual_vectors(ds)
        n = Direction(1.9, 0.35)
        for kp in range(3):
            for two_m in (1, -1):
                for two_mp in (1, -1):
                    value = kernel_p_to_w(spin, ds, two_m, n, two_mp, kp)
                    closed = 3.0 * (
                        0.5 * (kp == 0)
                        + 2.0
                        * (two_mp / 2.0)
                        * (two_m / 2.0)
                        * float(ls[kp] @ n.cartesian)
                    )
                    assert abs(value - closed) < 1e-11

    @pytest.mark.parametrize("two_j,seed", [(1, 5), (2, 6)])
    def test_intertwiner_round_trip(self, two_j, seed):
        # w -> P_eq -> w is the identity on tomograms of valid states
        spin = Spin(two_j)
        ds = feasible_set(two_j, seed)
        rho = random_density_matrix(spin, np.random.default_rng(seed))
        p_vals = w_to_p(spin, ds, lambda m, n: tomogram(spin, rho, m, n))
        for n in [Direction(0.9, 0.9), Direction(2.4, 5.5)]:
            for two_m in spin.two_m_values():
                back = p_to_w(spin, ds, p_vals, two_m, n)
                assert abs(back - tomogram(spin, rho, two_m, n)) < 1e-10


QUBIT_SYMBOL = np.full(6, 1.0 / 6.0)
PROBE = Direction(0.7, 1.3)
SPIN_ENTRY_POINTS = {
    "gram": lambda spin, ds: gram(spin, 1, ds),
    "l_dequantizer": lambda spin, ds: l_dequantizer(spin, 1, 0, spin.two_j, ds),
    "l_quantizer": lambda spin, ds: l_quantizer(spin, 1, 0, spin.two_j, ds),
    "quantizer": lambda spin, ds: quantizer(spin, 0, spin.two_j, ds),
    "symbol": lambda spin, ds: symbol(spin, np.eye(spin.dim) / spin.dim, ds),
    "star_kernel": lambda spin, ds: star_kernel(spin, ds, spin.two_j, 0, spin.two_j, 0, spin.two_j, 0),
    "star_apply": lambda spin, ds: star_apply(spin, QUBIT_SYMBOL, QUBIT_SYMBOL, ds),
    "kernel_w_to_p": lambda spin, ds: kernel_w_to_p(spin, ds, spin.two_j, 0, spin.two_j, PROBE),
    "kernel_p_to_w": lambda spin, ds: kernel_p_to_w(spin, ds, spin.two_j, PROBE, spin.two_j, 0),
    "w_to_p": lambda spin, ds: w_to_p(spin, ds, lambda two_m, n: 1.0 / spin.dim),
    "p_to_w": lambda spin, ds: p_to_w(spin, ds, QUBIT_SYMBOL, spin.two_j, PROBE),
}


class TestSpinMismatch:
    @pytest.mark.parametrize("entry", sorted(SPIN_ENTRY_POINTS))
    def test_spin_other_than_the_sets_is_domain_error(self, entry, orthogonal_triad):
        with pytest.raises(DomainError, match="does not match the direction set"):
            SPIN_ENTRY_POINTS[entry](Spin(2), orthogonal_triad)

    @pytest.mark.parametrize("entry", sorted(SPIN_ENTRY_POINTS))
    def test_matching_spin_is_accepted(self, entry, orthogonal_triad):
        SPIN_ENTRY_POINTS[entry](Spin(1), orthogonal_triad)

    def test_w_to_p_refuses_before_the_callback(self, orthogonal_triad):
        calls = []

        def fn(two_m, n):
            calls.append((two_m, n))
            return 0.5

        with pytest.raises(DomainError, match="does not match the direction set"):
            w_to_p(Spin(2), orthogonal_triad, fn)
        assert calls == []
