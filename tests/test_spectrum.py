import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcpolar import (
    BudgetExceededError,
    ChannelModel,
    DomainError,
    FieldSpec,
    FormatError,
    HighEntropySet,
    JointSource,
    PolarSpectrum,
    UnsupportedAlphabetError,
    bhattacharyya,
    build_high_entropy_set,
    conditional_entropy,
    exact_spectrum,
    genie_llr_profile,
    make_duality_code,
    montecarlo_spectrum,
    parse_preset,
    pipeline,
    polarization_fractions,
    scdec,
    tv_spectrum,
    spectrum,
    zbound_spectrum,
)

from srcpolar.transform import _forward_rows

from conftest import BAD_MANIFESTS, random_binary_source

BER_HALF = JointSource.bernoulli(0.5)


class TestExactSpectrum:
    def test_uniform_source_already_polarized(self):
        sp = exact_spectrum(BER_HALF, 4)
        assert np.allclose(sp.h, 1.0, atol=1e-12)
        assert np.allclose(sp.z, 1.0, atol=1e-12)

    def test_n2_pairwise_polarization(self, rng):
        for _ in range(50):
            s = random_binary_source(rng, int(rng.integers(1, 4)))
            sp = exact_spectrum(s, 2)
            h = conditional_entropy(s)
            assert sp.h[0] + sp.h[1] == pytest.approx(2 * h, abs=1e-9)
            assert sp.h[0] >= h - 1e-12
            assert sp.h[1] <= h + 1e-12

    def test_bec_half_matches_erasure_recursion(self):
        sp = exact_spectrum(JointSource.bec_pair(0.5), 4)
        assert np.allclose(sp.z, [0.9375, 0.5625, 0.4375, 0.0625], atol=1e-12)
        # for the BEC the entropy spectrum coincides with the z spectrum
        assert np.allclose(sp.h, sp.z, atol=1e-12)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            exact_spectrum(JointSource.bsc_pair(0.1), 16)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_entropy_conservation(self, q, rng):
        field = FieldSpec.for_alphabet(q)
        for _ in range(50):
            if q == 2:
                s = random_binary_source(rng, int(rng.integers(1, 3)))
            else:
                t = rng.random(q) + 0.01
                s = JointSource(field, (t / t.sum()).reshape(q, 1))
            h = conditional_entropy(s)
            for N in [2, 4, 8]:
                if (q * s.y_size) ** N > (1 << 24):
                    continue
                sp = exact_spectrum(s, N)
                assert float(sp.h.sum()) == pytest.approx(N * h, abs=1e-9)

    def test_fig2_orderings_at_n4(self, rng):
        for _ in range(30):
            s = random_binary_source(rng, int(rng.integers(1, 3)))
            sp = exact_spectrum(s, 4)
            assert sp.h[0] >= sp.h[1] - 1e-12
            assert sp.h[2] >= sp.h[3] - 1e-12

    def test_proposition1_sum_form_and_plus_exactness(self, rng):
        for _ in range(100):
            s = random_binary_source(rng, int(rng.integers(1, 4)))
            z = bhattacharyya(s)
            sp = exact_spectrum(s, 2)
            assert sp.z[0] + sp.z[1] <= 2 * z + 1e-12
            assert sp.z[1] == pytest.approx(z * z, abs=1e-10)
            assert sp.z[0] <= 2 * z - z * z + 1e-12


class TestZBound:
    def test_fixed_points(self):
        assert np.allclose(zbound_spectrum(JointSource.bernoulli(0.0), 8).z, 0.0)
        assert np.allclose(zbound_spectrum(JointSource.bernoulli(0.5), 8).z, 1.0)

    def test_single_level(self):
        s = JointSource.bec_pair(0.5)  # Z = 0.5
        sp = zbound_spectrum(s, 2)
        assert np.allclose(sp.z, [0.75, 0.25], atol=1e-15)

    def test_bounds_dominate_exact(self, rng):
        for _ in range(40):
            s = random_binary_source(rng, int(rng.integers(1, 3)))
            for N in [2, 4, 8]:
                zb = zbound_spectrum(s, N).z
                ex = exact_spectrum(s, N).z
                assert (zb >= ex - 1e-9).all()

    def test_exact_for_erasure_side_information(self):
        for eps in [0.2, 0.5, 0.8]:
            s = JointSource.bec_pair(eps)
            assert np.allclose(zbound_spectrum(s, 8).z, exact_spectrum(s, 8).z, atol=1e-12)

    def test_nonbinary_rejected(self):
        s = JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3))
        with pytest.raises(UnsupportedAlphabetError):
            zbound_spectrum(s, 4)

    def test_tail_sum_eventually_decays(self):
        # At rates above Z(X|Y) the complement bound sum dies off with N.
        # (At rates between H(X|Y) and Z(X|Y) it provably does not: the
        # mean of the bound pair is preserved, so the fraction of bounds
        # tending to 0 is 1 - Z, not 1 - H.)
        s = JointSource.bernoulli(0.11)  # Z ~ 0.626
        sums = []
        for n in range(4, 13):
            N = 1 << n
            sp = zbound_spectrum(s, N)
            hset = build_high_entropy_set(sp, 0.75)
            sums.append(float(sp.z[~hset.mask].sum()))
        assert all(b < a for a, b in zip(sums[3:], sums[4:]))  # monotone from 2^7
        assert sums[-1] < 1e-2 * max(sums)


class TestTalVardy:
    def test_bounds_dominate_exact(self, rng):
        for y_size in [1, 2, 3, 4]:
            for _ in range(10):
                s = random_binary_source(rng, y_size)
                for N in [1, 2, 4, 8, 16]:
                    if (2 * y_size) ** N > 1 << 16:
                        continue  # keeps the exact enumeration cheap
                    tv = tv_spectrum(s, N).z
                    ex = exact_spectrum(s, N).z
                    assert (tv >= ex - 1e-12).all()

    def test_close_to_exact(self):
        s = JointSource.bernoulli(0.11)
        assert tv_spectrum(s, 16).z == pytest.approx(exact_spectrum(s, 16).z, abs=1e-3)

    def test_equals_zbound_for_erasure_side_information(self):
        for eps in [0.2, 0.5, 0.8]:
            s = JointSource.bec_pair(eps)
            assert np.allclose(tv_spectrum(s, 256).z, zbound_spectrum(s, 256).z, atol=1e-12)

    def test_single_index_is_bhattacharyya(self, rng):
        for y_size in [1, 2, 3, 4]:
            s = random_binary_source(rng, y_size)
            assert tv_spectrum(s, 1).z[0] == pytest.approx(bhattacharyya(s), abs=1e-15)

    def test_zero_probability_side_symbols(self):
        table = np.array([[0.5, 0.0, 0.05], [0.1, 0.0, 0.35]])
        s = JointSource(FieldSpec.binary(), table)
        tv = tv_spectrum(s, 8).z
        assert np.isfinite(tv).all()
        assert (tv >= exact_spectrum(s, 8).z - 1e-12).all()

    def test_nonbinary_rejected(self):
        s = JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3))
        with pytest.raises(UnsupportedAlphabetError):
            tv_spectrum(s, 4)

    def test_method_and_index_set(self):
        sp = tv_spectrum(JointSource.bsc_pair(0.11), 64)
        assert sp.method == "tv" and sp.h is None
        hset = build_high_entropy_set(sp, 0.7)
        assert hset.method == "tv" and len(hset.indices) == math.ceil(64 * 0.7)


class TestMonteCarlo:
    def test_close_to_exact(self):
        s = JointSource.bernoulli(0.11)
        mc = montecarlo_spectrum(s, 8, 100_000, 7)
        ex = exact_spectrum(s, 8)
        assert np.abs(mc.z - ex.z).max() < 0.01
        assert np.abs(mc.h - ex.h).max() < 0.02

    def test_nonbinary_rejected(self):
        s = JointSource(FieldSpec.prime(3), np.full((3, 1), 1 / 3))
        with pytest.raises(UnsupportedAlphabetError):
            montecarlo_spectrum(s, 4, 10, 0)

    def test_single_sample_ranges(self):
        mc = montecarlo_spectrum(JointSource.bsc_pair(0.11), 4, 1, 0)
        assert (mc.h >= 0).all()
        assert ((mc.z >= 0) & (mc.z <= 1)).all()

    def test_seed_determinism(self):
        s = JointSource.bsc_pair(0.2)
        a = montecarlo_spectrum(s, 16, 500, 42)
        b = montecarlo_spectrum(s, 16, 500, 42)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.z, b.z)

    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            montecarlo_spectrum(BER_HALF, 4, 0, 1)

    @pytest.mark.parametrize("samples, seed", [(10, -1), (10, 1.5), (10, None), (2.5, 1)])
    def test_bad_seed_or_samples_rejected(self, samples, seed):
        # numpy's own ValueError for a negative seed is not a SrcPolarError
        with pytest.raises(DomainError):
            montecarlo_spectrum(BER_HALF, 4, samples, seed)

    def test_same_bits_for_any_thread_count(self, monkeypatch):
        # 1000 samples are three full chunks of 256 rows and one of 232
        s = JointSource.bsc_pair(0.11)
        got = []
        for workers in (1, 3):
            monkeypatch.setattr(pipeline, "_workers", lambda workers=workers: workers)
            got.append(montecarlo_spectrum(s, 256, 1000, 13))
        assert np.array_equal(got[0].h, got[1].h)
        assert np.array_equal(got[0].z, got[1].z)

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # Samples are processed a few chunks at a time, so the peak must not
        # follow the sample count.  The thread count is fixed because every
        # thread holds a chunk.
        monkeypatch.setattr(pipeline, "_workers", lambda: 2)
        s = JointSource.bsc_pair(0.11)
        peaks = []
        for samples in (500, 4000):
            tracemalloc.start()
            try:
                montecarlo_spectrum(s, 1024, samples, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


MC_SOURCES = {
    "bsc_pair(0.11)": JointSource.bsc_pair(0.11),
    "bec_pair(0.4)": JointSource.bec_pair(0.4),  # zero cells, M = L_MAX: every clamp runs
    "bernoulli(0.11)": JointSource.bernoulli(0.11),  # y_size 1
    "simulation joint": JointSource(FieldSpec.binary(), np.array([[0.76, 0.01], [0.04, 0.19]])),
}


def _choice_pipeline(s, N, samples, seed):
    """montecarlo_spectrum the long way: choice draws, divmod, a full transform, _known_sums
    of u and the fully clamped genie, summed chunk by chunk as the library sums them."""
    rng = np.random.default_rng(seed)
    flat = s.probs.reshape(-1)
    x, y = np.divmod(rng.choice(flat.size, size=(samples, N), p=flat), s.y_size)
    u = _forward_rows(s.field, x.astype(np.uint8))
    table = scdec._llr_table(s, y)
    llrs = np.ascontiguousarray(genie_llr_profile(table[y], u))
    terms = (np.logaddexp(0.0, np.where(u == 0, -llrs, llrs)), 1.0 / np.cosh(0.5 * llrs))
    totals = [None, None]
    for lo in range(0, samples, scdec.batch_rows(N)):
        for k, term in enumerate(terms):
            chunk = np.array(term[lo : lo + scdec.batch_rows(N)])
            if totals[k] is not None:
                chunk[0] += totals[k]
            totals[k] = chunk.sum(axis=0)
    return totals[0] / samples / math.log(2.0), np.clip(totals[1] / samples, 0.0, 1.0)


class TestMonteCarloExactness:
    """The uniforms inverted in the workers, the partial sums from x, the skipped clamps and
    the z-only path give the estimates of rng.choice's draws and the fully clamped genie."""

    @pytest.mark.parametrize("workers", [1, None])
    @pytest.mark.parametrize("N, samples", [(1, 65536 + 7), (2, 32768 + 3), (16, 4096 + 5), (256, 600)])
    @pytest.mark.parametrize("name", sorted(MC_SOURCES))
    def test_bit_equal_to_the_choice_pipeline(self, monkeypatch, name, N, samples, workers):
        # every sample count is one partial chunk past whole chunks of batch_rows(N) rows
        assert samples % scdec.batch_rows(N)
        if workers is not None:
            monkeypatch.setattr(pipeline, "_workers", lambda: workers)
        s = MC_SOURCES[name]
        full = montecarlo_spectrum(s, N, samples, 29)
        z_only = montecarlo_spectrum(s, N, samples, 29, _entropy=False)
        h, z = _choice_pipeline(s, N, samples, 29)
        assert full.h.tobytes() == h.tobytes()
        assert full.z.tobytes() == z.tobytes()
        assert z_only.h is None
        assert z_only.z.tobytes() == z.tobytes()

    @pytest.mark.parametrize("probs", [
        [0.0, 0.3, 0.2, 0.5],  # a zero cell at the start
        [0.25, 0.0, 0.0, 0.25, 0.5, 0.0],  # zero cells in the middle and at the end
        [0.0, 0.0, 0.7, 0.3],
        [0.89, 0.11],
    ])
    def test_cells_are_choice_cells(self, probs):
        flat = np.array(probs)
        cdf = flat.cumsum()
        cdf /= cdf[-1]
        edges = cdf[cdf < 1.0]  # random() draws from [0, 1)
        u = np.concatenate([np.random.default_rng(3).random(4000), [0.0, np.nextafter(1.0, 0.0)],
                            edges, np.nextafter(edges, 0.0)])
        got = spectrum._cells(u, cdf)
        assert got.dtype == np.uint8
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))
        assert flat[got].min() > 0  # a zero cell is never drawn

    def test_cells_widen_past_uint8(self):
        # 2 y_size - 1 = 259 cells can be drawn, one more than uint8 holds
        flat = np.random.default_rng(5).random(260)
        flat[[0, 100, 259]] = 0.0
        flat /= flat.sum()
        cdf = flat.cumsum()
        cdf /= cdf[-1]
        u = np.random.default_rng(6).random((64, 32))
        got = spectrum._cells(u, cdf)
        assert got.dtype == np.uint16
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))


class TestHighEntropySet:
    def test_full_rate(self):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.11), 8), 1.0)
        assert hset.indices.tolist() == list(range(1, 9))
        assert hset.mask.all()  # the complement is empty

    def test_bec_n4_half_rate(self):
        hset = build_high_entropy_set(exact_spectrum(JointSource.bec_pair(0.5), 4), 0.5)
        assert hset.indices.tolist() == [1, 2]

    def test_tie_break_toward_small_index(self):
        hset = build_high_entropy_set(exact_spectrum(BER_HALF, 4), 0.5)
        assert hset.indices.tolist() == [1, 2]

    def test_size_is_ceil(self):
        sp = zbound_spectrum(JointSource.bernoulli(0.11), 8)
        assert len(build_high_entropy_set(sp, 0.3).indices) == math.ceil(8 * 0.3)
        assert len(build_high_entropy_set(sp, 0.01).indices) == 1
        for N, R in [(8, 0.3), (8, 0.01), (64, 0.7), (1024, 0.8), (1024, 0.35)]:
            hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), N), R)
            assert hset.mask.sum() == math.ceil(N * R)

    def test_mask_is_read_only_and_marks_the_indices(self):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 64), 0.7)
        assert hset.mask.dtype == bool and hset.mask.shape == (64,)
        assert hset.indices.dtype == np.int64
        assert np.array_equal(np.flatnonzero(hset.mask) + 1, hset.indices)
        for read_only in (hset.mask, hset.indices):
            with pytest.raises(ValueError):
                read_only[0] = read_only[-1]
        passed = np.flatnonzero(hset.mask) + 1
        again = dataclasses.replace(hset, indices=passed)
        passed[:] = 0  # the set owns its copy
        assert again == hset and np.array_equal(again.indices, hset.indices)
        assert np.array_equal(again.mask, hset.mask)

    @pytest.mark.parametrize("indices", [np.array([[1, 2, 3, 4, 5, 6, 7, 8]]), np.arange(1.0, 9.0)],
                             ids=["two_dimensional", "float"])
    def test_index_array_must_be_one_dimensional_integers(self, indices):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 16), 0.5)
        with pytest.raises(FormatError, match="indices must be ceil"):
            dataclasses.replace(hset, indices=indices)

    def test_spectrum_without_z_rejected(self):
        sp = dataclasses.replace(exact_spectrum(JointSource.bernoulli(0.11), 8), z=None)
        with pytest.raises(DomainError, match="spectrum has no z values to select on"):
            build_high_entropy_set(sp, 0.5)

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_manifest_rejected(self, case):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 16), 0.5)
        doc = hset.to_manifest()
        with pytest.raises(FormatError):
            HighEntropySet.from_manifest(BAD_MANIFESTS[case](doc))

    def test_selected_dominate_unselected(self, rng):
        s = random_binary_source(rng, 2)
        sp = exact_spectrum(s, 8)
        hset = build_high_entropy_set(sp, 0.4)
        lo = min(sp.z[i - 1] for i in hset.indices)
        hi = sp.z[~hset.mask].max(initial=-1.0)
        assert lo >= hi

    def test_rate_validated(self):
        sp = zbound_spectrum(BER_HALF, 4)
        for r in [0.0, -0.5, 1.5]:
            with pytest.raises(DomainError):
                build_high_entropy_set(sp, r)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_selection_is_the_stable_argsort(self, data):
        # few distinct values, so that the cut falls among ties; -0.0 equals 0.0 in both orders
        n = data.draw(st.integers(0, 7))
        palette = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                     min_size=1, max_size=4))
        z = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=1 << n, max_size=1 << n)))
        k = data.draw(st.integers(1, 1 << n))
        sp = PolarSpectrum(N=1 << n, method="zbound", h=None, z=z, source_desc=BER_HALF.description())
        hset = build_high_entropy_set(sp, k / (1 << n))
        assert hset.indices.tolist() == (np.sort(np.argsort(-z, kind="stable")[:k]) + 1).tolist()

    @pytest.mark.parametrize("at", [0, 5, 15])
    def test_nan_z_refused(self, at):
        # a stable argsort put a NaN last; a partition could take it as the cut
        z = zbound_spectrum(JointSource.bernoulli(0.11), 16).z.copy()
        z[at] = np.nan
        sp = PolarSpectrum(N=16, method="zbound", h=None, z=z, source_desc=BER_HALF.description())
        with pytest.raises(DomainError, match="NaN"):
            build_high_entropy_set(sp, 0.5)

    def test_fingerprint_depends_on_inputs(self):
        a = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.11), 8), 0.5)
        b = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.11), 8), 0.5)
        c = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.12), 8), 0.5)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_binds_tv_merge_size(self, monkeypatch):
        from srcpolar import spectrum

        desc = JointSource.bernoulli(0.11).description()
        tv, zb = (spectrum.spectrum_fingerprint(desc, 16, m, None) for m in ("tv", "zbound"))
        monkeypatch.setattr(spectrum, "TV_MERGE_SIZE", 16)
        assert spectrum.spectrum_fingerprint(desc, 16, "tv", None) != tv
        assert spectrum.spectrum_fingerprint(desc, 16, "zbound", None) == zb

    def test_manifest_round_trip(self):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 16), 0.7)
        again = HighEntropySet.from_manifest(hset.to_manifest())
        assert np.array_equal(again.indices, hset.indices)
        assert np.array_equal(again.mask, hset.mask)
        assert again.fingerprint == hset.fingerprint
        assert again.N == hset.N
        # json.dumps raises TypeError on an np.int64 left in either manifest's list
        assert HighEntropySet.from_json(json.dumps(hset.to_manifest())) == hset
        code = make_duality_code(ChannelModel.bec(0.4), 16, 0.5, 11)
        assert json.loads(json.dumps(code.to_manifest()))["frozen_indices"] == code.frozen_set.indices.tolist()


def _writer_spectra():
    """(method, N) pairs for the writer's test: every method at small N, and the cheap ones up to 2^16."""
    pairs = [("exact", 1), ("exact", 2), ("exact", 4)]
    pairs += [(m, N) for m in ("zbound", "mc") for N in (1, 2, 16, 1024, 1 << 16)]
    return pairs + [("tv", N) for N in (1, 2, 16, 1024)]


@pytest.mark.parametrize("method, N", _writer_spectra())
@pytest.mark.parametrize("preset", ["bernoulli(0.11)", "bsc_pair(0.11)", "bec_pair(0.4)"])
def test_to_json_writes_the_manifest_as_json_does(preset, method, N):
    s = parse_preset(preset)
    if method == "mc":
        sp = montecarlo_spectrum(s, N, 4, 9, _entropy=False)
    else:
        sp = {"exact": exact_spectrum, "zbound": zbound_spectrum, "tv": tv_spectrum}[method](s, N)
    for R in (1 / N, 0.5, 0.75, 1.0):
        for seed in (sp.seed, None, 2**40 + 1):
            hset = dataclasses.replace(build_high_entropy_set(sp, R), seed=seed)
            text = hset.to_json()
            assert text == (json.dumps(hset.to_manifest(), sort_keys=True, indent=2) + "\n").encode()
            assert HighEntropySet.from_json(text.decode()) == hset
            for written in (text.decode(), json.dumps(hset.to_manifest(), sort_keys=True)):  # both read by numpy
                indices = spectrum._manifest_doc(written)["indices"]
                assert isinstance(indices, np.ndarray) and indices.dtype == np.int64
                assert np.array_equal(indices, hset.indices)


def _loaded(load, text):
    """What a manifest's text loads to: the set's fields, mask and source, or the exception's type and text."""
    try:
        hset = load(text)
        source = JointSource.from_description(hset.source_desc)
    except (KeyError, TypeError, ValueError) as exc:  # FormatErrors at the CLI
        return type(exc), str(exc)
    assert hset.indices.dtype == np.int64 and not hset.indices.flags.writeable
    return hset, hset.mask.tobytes(), source.description()


def _reference(text):
    return HighEntropySet.from_manifest(json.loads(text))


def _manifest_texts():
    """Valid manifests with N <= 64, each written compact and as freeze writes it (indent=2)."""
    sets = [build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.11), 16), 0.5),
            build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 64), 0.7),
            build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.2), 1), 1.0)]
    return [json.dumps(h.to_manifest(), sort_keys=True, **kw) for h in sets for kw in ({}, {"indent": 2})]


MANIFEST_TEXTS = _manifest_texts()
# Index lists that json rejects, that np.fromstring alone reads otherwise than json, or at the edges of
# the whitespace and value range the reader takes.
ODD_LISTS = ["[01, 2, 3]", "[+1, 2]", "[1, 2,]", "[1 2]", "[1,,2]", "[,1]", "[1,\v2]", "[1,\f2]", "[ ]", "[]",
             "[-1, 2]", "[-0, 1]", "[1, -]", "[0, 1]", "[1.0, 2]", "[1e0, 2]", "[true, 2]", "[1, 2\u00a0]",
             "[99999999999999999999, 2]", "[1, 18446744073709551617]", "[1, 999999999999999999]",
             "[1, 1000000000000000000]", "[1, 2\x00]", '[1, "2"]', "[1, [2]]", "[1, 2 ]", "[\n 1 ,\n 2\n]"]


class TestManifestReader:
    """HighEntropySet.from_json against json.loads, from_manifest and from_description: the same set and
    source, or the same error, on every text."""

    @staticmethod
    def _same(text):
        assert _loaded(HighEntropySet.from_json, text) == _loaded(_reference, text)

    @pytest.mark.parametrize("text", MANIFEST_TEXTS,
                             ids=[f"set{i // 2}-{('compact', 'indent2')[i % 2]}" for i in range(len(MANIFEST_TEXTS))])
    def test_freeze_output_is_read_as_one_array(self, text):
        assert isinstance(spectrum._manifest_doc(text)["indices"], np.ndarray)
        self._same(text)

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_manifests(self, case, indent):
        hset = build_high_entropy_set(zbound_spectrum(JointSource.bsc_pair(0.11), 16), 0.5)
        text = json.dumps(BAD_MANIFESTS[case](hset.to_manifest()), indent=indent)
        assert isinstance(_loaded(HighEntropySet.from_json, text)[0], type)
        self._same(text)

    @pytest.mark.parametrize("text", [MANIFEST_TEXTS[0][:-3], MANIFEST_TEXTS[0] + "}", "", "[]", "null",
                                      "\ufeff" + MANIFEST_TEXTS[0], MANIFEST_TEXTS[0].replace('"N"', "N"),
                                      MANIFEST_TEXTS[0].replace(", ", ",,", 1), "{}", "{,}", '{"N": 16,}',
                                      '{"indices": [1, 2]}'])
    def test_invalid_json_and_other_documents(self, text):
        self._same(text)

    @pytest.mark.parametrize("odd", ODD_LISTS)
    def test_odd_index_lists(self, odd):
        doc = json.loads(MANIFEST_TEXTS[0])
        for N, R in ((16, 2 / 16), (2**62, 2 / 2**62)):  # N = 2**62 is refused, with or without a valid list
            self._same(json.dumps({**doc, "N": N, "R": R, "indices": [7, 8]}).replace("[7, 8]", odd))

    def test_nested_and_repeated_indices_keys(self):
        doc = json.loads(MANIFEST_TEXTS[0])
        nested = {**doc, "source": {**doc["source"], "indices": [1, "x"]}}
        hset = HighEntropySet.from_json(json.dumps(nested))
        assert hset.indices.tolist() == doc["indices"] and hset.source_desc["indices"] == [1, "x"]
        self._same(json.dumps(nested))
        first, last = json.dumps(doc["indices"]), json.dumps(doc["indices"][::-1])
        self._same(MANIFEST_TEXTS[0][:-1] + f', "indices": {last}}}')
        self._same(MANIFEST_TEXTS[0].replace(first, last)[:-1] + f', "indices": {first}}}')
        self._same(MANIFEST_TEXTS[0].replace('"N"', '"\\u004e"').replace('"indices"', '"ind\\u0069ces"'))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), text=st.sampled_from(MANIFEST_TEXTS),
           edit=st.sampled_from(["substitute", "delete", "insert"]), in_list=st.booleans(),
           char=st.one_of(st.sampled_from(list("0123456789,-+ \n\t\v[]{}:\".e")), st.characters()))
    def test_one_character_edits(self, data, text, edit, in_list, char):
        lo, hi = (text.index("[") + 1, text.index("]")) if in_list else (0, len(text) - 1)
        at = data.draw(st.integers(lo, hi))
        edited = (text[:at] + char + text[at + 1:] if edit == "substitute" else text[:at] + text[at + 1:]
                  if edit == "delete" else text[:at] + char + text[at:])
        self._same(edited)


class TestPolarizationFractions:
    def test_fully_polarized(self):
        fr = polarization_fractions(exact_spectrum(BER_HALF, 4), 0.1)
        assert fr == {"high": 1.0, "low": 0.0, "mid": 0.0}

    def test_n2_ber011(self):
        sp = exact_spectrum(JointSource.bernoulli(0.11), 2)
        fr = polarization_fractions(sp, 0.3)
        # exact h-values: h1 ~ 0.7859, h2 ~ 0.2139
        assert fr == {"high": 0.5, "low": 0.5, "mid": 0.0}

    def test_fractions_sum_to_one(self, rng):
        for _ in range(20):
            s = random_binary_source(rng, 2)
            fr = polarization_fractions(exact_spectrum(s, 8), float(rng.uniform(0.05, 0.95)))
            assert fr["high"] + fr["low"] + fr["mid"] == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_without_h_rejected(self):
        with pytest.raises(DomainError, match="spectrum has no h values"):
            polarization_fractions(zbound_spectrum(BER_HALF, 4), 0.1)

    def test_delta_validated(self):
        sp = exact_spectrum(BER_HALF, 2)
        for d in [0.0, 1.0, -0.1]:
            with pytest.raises(DomainError):
                polarization_fractions(sp, d)


class TestNonBinaryAndGf4:
    def test_gf4_counterexample_flat_spectrum(self):
        s = JointSource(FieldSpec.gf4(), np.array([[0.5], [0.0], [0.5], [0.0]]))
        for N in [2, 4]:
            sp = exact_spectrum(s, N)
            assert np.allclose(sp.h, 0.5, atol=1e-12)  # base-4 units
            assert sp.z is None

    def test_prime_q_spread_grows(self, rng):
        for _ in range(5):
            t = rng.random(3) + 0.05
            s = JointSource(FieldSpec.prime(3), (t / t.sum()).reshape(3, 1))
            spreads = [
                float(exact_spectrum(s, N).h.max() - exact_spectrum(s, N).h.min())
                for N in [2, 4, 8]
            ]
            assert spreads[0] <= spreads[1] <= spreads[2]

