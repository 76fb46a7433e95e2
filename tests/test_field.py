"""The field's arithmetic, checked on the array kernels the butterfly stages run."""

import numpy as np
import pytest

from srcpolar import DomainError, FieldSpec

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.prime(7), FieldSpec.gf4()]


def _grid(q: int, arity: int) -> list[np.ndarray]:
    """Every tuple of `arity` symbols of 0..q-1, as that many flat int64 arrays."""
    return list(np.indices((q,) * arity, dtype=np.int64).reshape(arity, -1))


def _add(field, a, b):
    return field.add_array(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def _sub(field, a, b):
    return field.sub_array(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def test_xor_self_inverse():
    assert _add(FieldSpec.binary(), 1, 1) == 0


def test_mod3_addition():
    assert _add(FieldSpec.prime(3), 2, 2) == 1


def test_gf4_addition_is_xor():
    f = FieldSpec.gf4()
    assert _add(f, 2, 2) == 0
    assert _add(f, 1, 2) == 3
    a, b = _grid(4, 2)
    np.testing.assert_array_equal(f.add_array(a, b), a ^ b)


def test_neg_examples():
    assert _sub(FieldSpec.prime(3), 0, 1) == 2
    assert _sub(FieldSpec.binary(), 0, 1) == 1
    assert _sub(FieldSpec.gf4(), 0, 3) == 3  # characteristic 2


def test_non_prime_rejected():
    for q in [0, 1, 4, 6, 9]:
        with pytest.raises(DomainError):
            FieldSpec.prime(q)
    FieldSpec.prime(2)
    FieldSpec.prime(7)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.q}")
def test_group_axioms_exhaustive(field):
    q = field.q
    a, b, c = _grid(q, 3)
    zero = np.zeros_like(a)
    np.testing.assert_array_equal(field.add_array(a, b), field.add_array(b, a))
    np.testing.assert_array_equal(
        field.add_array(field.add_array(a, b), c), field.add_array(a, field.add_array(b, c))
    )
    np.testing.assert_array_equal(field.add_array(a, zero), a)
    np.testing.assert_array_equal(field.sub_array(field.add_array(a, b), b), a)
    np.testing.assert_array_equal(field.add_array(a, field.sub_array(zero, a)), zero)
    s = field.add_array(a, b)
    assert s.min() >= 0 and s.max() < q


def test_gf4_subfield_02_closed():
    a, b = (2 * g for g in _grid(2, 2))
    assert set(FieldSpec.gf4().add_array(a, b).tolist()) <= {0, 2}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f.kind}{f.q}")
@pytest.mark.parametrize("sub", [False, True], ids=["add", "sub"])
def test_out_is_written_in_its_dtype(field, sub):
    """As transform._stage calls them: uint8 halves of one row, written into the head in place."""
    a, b = _grid(field.q, 2)
    want = (field.sub_array if sub else field.add_array)(a, b)
    w = np.concatenate([a, b]).astype(np.uint8)
    head, tail = w.reshape(2, -1)
    got = (field.sub_array if sub else field.add_array)(head, tail, out=head)
    assert got is head and got.dtype == np.uint8
    np.testing.assert_array_equal(w[: a.size], want)
    np.testing.assert_array_equal(w[a.size :], b)


def test_alphabet_dispatch():
    assert FieldSpec.for_alphabet(4).kind == "gf4"
    assert FieldSpec.for_alphabet(5).kind == "prime"
    with pytest.raises(DomainError):
        FieldSpec.for_alphabet(6)
