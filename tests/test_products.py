"""The fixed-order products: the claims their docstrings make, checked on random, dyadic and signed-zero inputs."""

import numpy as np
import pytest

from affine_fermions._products import _cmul, _wedge, _wedge2
from affine_fermions.affine_forms import _leibniz_det, _leibniz_terms


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def complex_inputs(kind, shape, rng):
    if kind == "random":
        parts = rng.standard_normal((2,) + shape)
    elif kind == "dyadic":  # Gaussian integers times powers of two: every product is exact
        parts = np.ldexp(rng.integers(-64, 65, (2,) + shape).astype(float), rng.integers(-40, 41, (2,) + shape))
    else:  # signed zeros beside small integers
        parts = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -0.5], (2,) + shape)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z


KINDS = ["random", "dyadic", "signed-zero"]


@pytest.mark.parametrize("kind", KINDS)
def test_cmul_is_the_scalar_complex_product(kind):
    # Python's complex * complex, bit for bit wherever a part is nonzero; where it is zero, its sign may differ
    rng = np.random.default_rng(KINDS.index(kind))
    u, v = (complex_inputs(kind, (4000,), rng) for _ in range(2))
    got = _cmul(u, v)
    scalar = np.array([complex(a) * complex(b) for a, b in zip(u.tolist(), v.tolist())])
    for part in ("real", "imag"):
        mine, python = getattr(got, part), getattr(scalar, part)
        assert np.array_equal(mine, python)
        nonzero = python != 0
        assert np.array_equal(bits(mine[nonzero]), bits(python[nonzero]))
    if kind == "signed-zero":  # the sign of a zero is what the claim leaves out, in either part
        assert (np.signbit(got.real) != np.signbit(scalar.real)).any()
        assert (np.signbit(got.imag) != np.signbit(scalar.imag)).any()


@pytest.mark.parametrize("kind", KINDS)
def test_cmul_batch_gives_the_bits_of_each_call(kind):
    rng = np.random.default_rng(10 + KINDS.index(kind))
    u, v = complex_inputs(kind, (40, 3), rng), complex_inputs(kind, (3,), rng)
    batch = _cmul(u, v)
    single = np.array([[_cmul(u[i, j, ...], v[j, ...]) for j in range(3)] for i in range(40)])
    assert np.array_equal(bits(batch.real), bits(single.real))
    assert np.array_equal(bits(batch.imag), bits(single.imag))


@pytest.mark.parametrize("kind", KINDS)
def test_the_two_wedges_agree_on_real_input_up_to_the_sign_of_a_zero(kind):
    # why `_products` keeps both: on real input `_wedge2` is complex, and its real part is `_wedge`'s
    # value, bit for bit where it is nonzero, but a zero's sign can differ there
    rng = np.random.default_rng(20 + KINDS.index(kind))
    u, v = (complex_inputs(kind, (4000, 2), rng).real for _ in range(2))
    real, complex_ = _wedge(u, v), _wedge2(u, v)
    assert real.dtype == float and complex_.dtype == complex
    assert np.array_equal(complex_.real, real) and not complex_.imag.any()
    nonzero = real != 0
    assert np.array_equal(bits(complex_.real[nonzero]), bits(real[nonzero]))
    # -1 * 0 - 0 * 0 is -0.0; `_cmul`'s -1 * 0 is +0.0, since it adds 1j * (+0.0)
    assert np.signbit(_wedge(np.array([-1.0, 0.0]), np.zeros(2)))
    assert not np.signbit(_wedge2(np.array([-1.0, 0.0]), np.zeros(2)).real)


@pytest.mark.parametrize("kind", KINDS)
def test_leibniz_det_keeps_the_bits_of_products_formed_part_by_part(kind):
    # `_leibniz_det` forms its products with `_cmul`; before, it formed the real and imaginary
    # parts of each product itself, with the same formula, and no bit differs
    def by_parts(rows):
        perms, negative = _leibniz_terms(rows.shape[-1])
        factors = rows[..., np.arange(rows.shape[-1])[:, None], perms.T]
        re, im = factors.real[..., 0, :], factors.imag[..., 0, :]
        for i in range(1, rows.shape[-1]):
            f_re, f_im = factors.real[..., i, :], factors.imag[..., i, :]
            re, im = re * f_re - im * f_im, re * f_im + im * f_re
        return [np.add.reduce(np.where(negative, -part, part), axis=-1) for part in (re, im)]

    rng = np.random.default_rng(30 + KINDS.index(kind))
    for d in (1, 2, 3, 4):
        rows = complex_inputs(kind, (3000, d, d), rng)
        got = _leibniz_det(rows)
        re, im = by_parts(rows)
        assert np.array_equal(bits(got.real), bits((re + 1j * im).real))
        assert np.array_equal(bits(got.imag), bits((re + 1j * im).imag))
