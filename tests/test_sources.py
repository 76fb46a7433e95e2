import json
import math

import numpy as np
import pytest

from srcpolar import (
    ChannelModel,
    CompressedBlock,
    DomainError,
    FieldSpec,
    FormatError,
    JointSource,
    UnsupportedAlphabetError,
    bhattacharyya,
    binary_entropy,
    check_z_h_inequalities,
    conditional_entropy,
    make_duality_code,
    parse_channel,
    parse_preset,
    renyi_entropy,
    sw_config,
    zbound_spectrum,
)

from conftest import random_binary_source


class TestBinaryEntropy:
    def test_boundary_and_half(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_closed_form_011(self):
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)

    def test_symmetry(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


class TestConditionalEntropy:
    def test_independent_y(self):
        # X ~ Ber(0.3) independent of a 2-value Y
        table = np.outer([0.7, 0.3], [0.4, 0.6])
        s = JointSource(FieldSpec.binary(), table)
        assert conditional_entropy(s) == pytest.approx(binary_entropy(0.3), abs=1e-12)

    def test_deterministic_given_y(self):
        s = JointSource(FieldSpec.binary(), np.array([[0.6, 0.0], [0.0, 0.4]]))
        assert conditional_entropy(s) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_pair_closed_form(self):
        s = JointSource.bsc_pair(0.11)
        assert conditional_entropy(s) == pytest.approx(0.49992, abs=1e-4)

    def test_base_q_normalization(self):
        # uniform over q symbols -> 1 in base-q units
        for q in [3, 5]:
            s = JointSource(FieldSpec.prime(q), np.full((q, 1), 1.0 / q))
            assert conditional_entropy(s) == pytest.approx(1.0, abs=1e-12)


class TestBhattacharyya:
    def test_degenerate_and_uniform(self):
        assert bhattacharyya(JointSource.bernoulli(0.0)) == 0.0
        assert bhattacharyya(JointSource.bernoulli(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_ber011(self):
        assert bhattacharyya(JointSource.bernoulli(0.11)) == pytest.approx(0.62578, abs=1e-5)

    def test_bec_equals_erasure_probability(self):
        for eps in [0.0, 0.25, 0.5, 0.9]:
            assert bhattacharyya(JointSource.bec_pair(eps)) == pytest.approx(eps, abs=1e-12)

    def test_nonbinary_rejected(self):
        s = JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3))
        with pytest.raises(UnsupportedAlphabetError):
            bhattacharyya(s)


class TestRenyi:
    def test_uniform(self):
        for k in [2, 5, 8]:
            for alpha in [0.25, 0.5, 2.0, 2000.0, 1e6]:  # 0.5**2000 underflows to 0
                assert renyi_entropy(np.full(k, 1.0 / k), alpha) == pytest.approx(
                    math.log2(k), abs=1e-12
                )

    def test_half_order_identity_with_z(self):
        z = bhattacharyya(JointSource.bernoulli(0.11))
        assert renyi_entropy([0.89, 0.11], 0.5) == pytest.approx(math.log2(1 + z), abs=1e-12)
        assert renyi_entropy([0.89, 0.11], 0.5) == pytest.approx(0.70108, abs=1e-4)

    def test_limit_toward_shannon(self):
        assert abs(renyi_entropy([0.7, 0.3], 0.999) - binary_entropy(0.3)) < 1e-3

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            renyi_entropy([0.5, 0.5], 1.0)
        with pytest.raises(DomainError):
            renyi_entropy([0.5, 0.5], -1.0)
        with pytest.raises(DomainError):
            renyi_entropy([0.5, 0.6], 0.5)
        for alpha in (math.inf, math.nan):
            with pytest.raises(DomainError):
                renyi_entropy([0.5, 0.5], alpha)
        for dist in ([math.nan, 1.0], [0.5, math.nan]):  # NaN fails no comparison with the sum
            with pytest.raises(DomainError):
                renyi_entropy(dist, 2.0)


class TestZHInequalities:
    def test_ber011_values(self):
        rep = check_z_h_inequalities(JointSource.bernoulli(0.11))
        assert rep.z_sq == pytest.approx(0.39160, abs=1e-4)
        assert rep.h == pytest.approx(0.49992, abs=1e-4)
        assert rep.log1pz == pytest.approx(0.70108, abs=1e-4)
        assert not rep.tight

    def test_tight_at_uniform(self):
        rep = check_z_h_inequalities(JointSource.bernoulli(0.5))
        assert rep.z_sq == pytest.approx(1.0, abs=1e-12)
        assert rep.h == pytest.approx(1.0, abs=1e-12)
        assert rep.log1pz == pytest.approx(1.0, abs=1e-12)
        assert rep.tight

    def test_tight_at_deterministic(self):
        rep = check_z_h_inequalities(JointSource.bernoulli(0.0))
        assert rep.z_sq == rep.h == rep.log1pz == 0.0
        assert rep.tight

    def test_mixed_conditionals_not_tight(self):
        # deterministic given y=0 but uniform given y=1: Jensen step is strict
        s = JointSource(FieldSpec.binary(), np.array([[0.5, 0.25], [0.0, 0.25]]))
        rep = check_z_h_inequalities(s)
        assert not rep.tight
        assert rep.z_sq < rep.h < rep.log1pz

    def test_uniform_given_every_y_tight(self):
        s = JointSource(FieldSpec.binary(), np.array([[0.3, 0.2], [0.3, 0.2]]))
        assert check_z_h_inequalities(s).tight

    def test_side_symbol_of_probability_zero_is_skipped(self, recwarn):
        # y = 1 never occurs: P(x | y=1) is undefined and takes no part in tightness
        s = JointSource(FieldSpec.binary(), np.array([[0.5, 0.0], [0.5, 0.0]]))
        rep = check_z_h_inequalities(s)
        assert rep.tight and rep.h == pytest.approx(1.0, abs=1e-12)
        assert not recwarn.list

    def test_nonbinary_rejected(self):
        s = JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3))
        with pytest.raises(UnsupportedAlphabetError):
            check_z_h_inequalities(s)


def test_entropy_minus_zsq_positive_between_zeros():
    # F(p) = H(p) - Z(p)^2 >= 0 with zeros exactly at 0, 1/2, 1
    grid = np.round(np.arange(0, 1001) * 1e-3, 10)
    for p in grid:
        z = 2 * math.sqrt(p * (1 - p))
        f = binary_entropy(p) - z * z
        if p in (0.0, 0.5, 1.0):
            assert abs(f) < 1e-12
        else:
            assert f > 0.0


def test_renyi_strictly_decreasing_in_alpha():
    alphas = [0.25, 0.5, 0.75, 1.5, 2.0]
    vals = [renyi_entropy([0.8, 0.2], a) for a in alphas]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    uniform = [renyi_entropy([0.5, 0.5], a) for a in alphas]
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in uniform)


def test_conditional_inequalities_on_random_sources(rng):
    for _ in range(1000):
        s = random_binary_source(rng, int(rng.integers(1, 9)))
        rep = check_z_h_inequalities(s)  # raises if violated
        assert rep.z_sq <= rep.h + 1e-12 <= rep.log1pz + 2e-12


def test_z_and_h_degenerate_together(rng):
    for _ in range(300):
        s = random_binary_source(rng, int(rng.integers(1, 5)))
        z = bhattacharyya(s)
        h = conditional_entropy(s)
        assert h <= math.log2(1 + z) + 1e-12  # small z forces small h
        assert z <= math.sqrt(h) + 1e-9  # small h forces small z


class TestValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            JointSource(FieldSpec.binary(), np.array([[1.1, 0.0], [-0.1, 0.0]]))

    def test_bad_total_rejected(self):
        with pytest.raises(DomainError):
            JointSource(FieldSpec.binary(), np.array([[0.5], [0.6]]))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_rejected(self, bad):
        # json.loads accepts these tokens; NaN used to pass both table checks
        with pytest.raises(DomainError):
            JointSource.from_json(f'{{"q": 2, "y_size": 2, "probs": [0.5, {bad}, 0.25, 0.25]}}')

    def test_shape_must_match_field(self):
        with pytest.raises(DomainError):
            JointSource(FieldSpec.prime(3), np.array([[0.5], [0.5]]))


# Objects holding an ndarray compare and hash by identity.
@pytest.mark.parametrize("make", [
    lambda: JointSource.bsc_pair(0.1),
    lambda: ChannelModel.bsc(0.1),
    lambda: make_duality_code(ChannelModel.bsc(0.1), 16, 0.5, 0),
    lambda: sw_config(JointSource(FieldSpec.binary(), np.array([[0.72, 0.02], [0.08, 0.18]])),
                      16, 0.9, 0.9),
    lambda: zbound_spectrum(JointSource.bsc_pair(0.1), 8),
    lambda: CompressedBlock(1, 3, "00" * 8, np.zeros(4, dtype=np.uint8)),
], ids=["JointSource", "ChannelModel", "DualityCode", "SWConfig", "PolarSpectrum",
        "CompressedBlock"])
def test_eq_and_hash_do_not_raise(make):
    a, b = make(), make()
    assert a == a
    assert isinstance(a == b, bool)
    assert hash(a) == hash(a)


class TestSerialization:
    def test_json_round_trip(self, rng):
        s = random_binary_source(rng, 3)
        again = JointSource.from_json(s.to_json())
        assert np.allclose(again.probs, s.probs)
        assert again.field == s.field

    def test_gf4_round_trip(self):
        s = JointSource(FieldSpec.gf4(), np.array([[0.5], [0.0], [0.5], [0.0]]))
        again = JointSource.from_json(s.to_json())
        assert again.field.kind == "gf4"

    def test_schema_fields(self):
        doc = json.loads(JointSource.bernoulli(0.2).to_json())
        assert set(doc) == {"q", "y_size", "probs"}

    @pytest.mark.parametrize("text, message", [
        ("{}", "source description is not an object with q, y_size, probs"),
        ("[1]", "source description is not an object with q, y_size, probs"),
        ('{"q": 2}', "source description is not an object with y_size, probs"),
        ("x", "source description is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"q": 2, "y_size": 1, "probs": [1%s, 0]}' % ("0" * 400), "probs holds an integer too large for a float"),
    ], ids=["empty_object", "list", "missing_keys", "not_json", "integer_past_float"])
    def test_unreadable_description_is_format_error(self, text, message):
        with pytest.raises(FormatError) as info:
            JointSource.from_json(text)
        assert str(info.value) == message


class TestPresets:
    def test_parse_all(self):
        assert parse_preset("bernoulli(0.11)").y_size == 1
        assert parse_preset("bsc_pair(0.11)").y_size == 2
        assert parse_preset("bec_pair(0.5)").y_size == 3

    def test_bsc_pair_is_uniform_x(self):
        s = parse_preset("bsc_pair(0.3)")
        assert np.allclose(s.p_x(), [0.5, 0.5])

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            parse_preset("laplace(0.1)")
        with pytest.raises(DomainError):
            parse_preset("bernoulli")

    @pytest.mark.parametrize("make, p", [
        (JointSource.bernoulli, 2.0), (JointSource.bsc_pair, -1.0), (JointSource.bec_pair, 2.0),
    ], ids=["bernoulli", "bsc_pair", "bec_pair"])
    def test_probability_out_of_range_rejected(self, make, p):
        with pytest.raises(DomainError, match=f"probability {p} outside"):
            make(p)


class TestSpecGrammar:
    """Presets and channels share one name(number) grammar."""

    @pytest.mark.parametrize("text, p", [
        ("bernoulli(0.11)", 0.11), (" bernoulli ( 1.1e-1 ) ", 0.11), ("bernoulli(.5)", 0.5),
        ("bernoulli(1.)", 1.0), ("bernoulli(+0.25)", 0.25), ("bernoulli(1E-1)", 0.1),
    ])
    def test_numbers_accepted(self, text, p):
        assert np.allclose(parse_preset(text).probs, JointSource.bernoulli(p).probs)

    @pytest.mark.parametrize("text", [
        "bernoulli(..)", "bernoulli(1e)", "bernoulli()", "bernoulli(nan)", "bernoulli(0.1",
        "bernoulli(0.1)x", "bernoulli(1_0)", "bernoulli(0.1, 0.2)", "bsc(0.1)", "cauchy(1)", "",
    ])
    def test_malformed_preset_is_domain_error(self, text):
        with pytest.raises(DomainError, match="unknown source preset"):
            parse_preset(text)

    def test_channels(self):
        w = parse_channel("bsc(0.11)")
        assert w.kind == "bsc" and w.param == 0.11
        w = parse_channel(" bec ( 4e-1 ) ")
        assert w.kind == "bec" and w.param == 0.4
        with pytest.raises(DomainError):
            parse_channel("bsc(1.5)")  # well formed, out of range

    @pytest.mark.parametrize("text", ["bsc(1e)", "bsc(..)", "bsc()", "bec(-)", "awgn(1.0)",
                                      "bsc_pair(0.1)"])
    def test_malformed_channel_is_domain_error(self, text):
        with pytest.raises(DomainError, match="unknown channel spec"):
            parse_channel(text)
