"""Step laws: exact masses, lattice metadata, and stream determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordwalk.distributions import (
    Lattice,
    RandomStream,
    UnsupportedOperationError,
    make_distribution,
)
from ordwalk.lattice_exact import gap_chain_survival


def test_rademacher_metadata():
    d = make_distribution("rademacher")
    assert (d.lattice.lo, d.lattice.lo + d.lattice.span) == (-1, 1)
    assert d.masses == {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    assert d.variance == 1.0
    assert d.lattice == Lattice(lo=-1, span=2, weights=(1, 1), denominator=2)


def test_lazy_lattice_metadata():
    d = make_distribution("lazy_lattice")
    assert (d.lattice.lo, len(d.lattice.weights)) == (-1, 3)
    assert d.variance == 0.5
    assert d.lattice == Lattice(lo=-1, span=1, weights=(1, 2, 1), denominator=4)


def test_uniform_metadata():
    d = make_distribution("uniform", variance=1.0)
    assert d.variance == 1.0 and not d.is_lattice
    rng = np.random.default_rng(0)
    draws = d.sample_array(rng, 100000)
    half = math.sqrt(3.0)
    assert draws.min() >= -half and draws.max() <= half
    assert abs(draws.var() - 1.0) < 0.02


def test_custom_lattice_example():
    d = make_distribution(
        "custom_lattice",
        masses={-2: Fraction(1, 8), 0: Fraction(3, 4), 2: Fraction(1, 8)})
    assert d.variance == 1.0
    assert d.lattice == Lattice(lo=-2, span=2, weights=(1, 6, 1), denominator=8)


def test_custom_lattice_rejects_drift():
    with pytest.raises(ValueError, match="mean"):
        make_distribution("custom_lattice",
                          masses={0: Fraction(1, 2), 2: Fraction(1, 2)})


def test_custom_lattice_rejects_bad_masses():
    with pytest.raises(ValueError, match="sum"):
        make_distribution("custom_lattice", masses={-1: Fraction(1, 2)})
    with pytest.raises(ValueError, match="nonnegative"):
        make_distribution("custom_lattice",
                          masses={-1: Fraction(3, 2), 1: Fraction(-1, 2), 0: 0})


@pytest.mark.parametrize("masses", [[1, 2], "1: 1", None, {}])
def test_custom_lattice_rejects_masses_that_are_no_mapping(masses):
    # a list of masses used to raise AttributeError
    with pytest.raises(ValueError, match="masses mapping"):
        make_distribution("custom_lattice", masses=masses)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "laplace"])
@pytest.mark.parametrize("variance", [math.nan, math.inf])
def test_continuous_kinds_reject_a_variance_that_is_not_finite(kind, variance):
    # only variance <= 0 used to be rejected, so both of these validated
    with pytest.raises(ValueError, match="variance must be positive and finite"):
        make_distribution(kind, variance=variance)


@pytest.mark.parametrize("kind, params", [
    ("rademacher", {"variance": 2}),
    ("lazy_lattice", {"masses": {-1: 1, 1: 0}}),
    ("custom_lattice", {"masses": {-1: Fraction(1, 2), 1: Fraction(1, 2)}, "variance": 1}),
    ("gaussian", {"masses": {0: 1}}),
    ("uniform", {"scale": 1.0}),
])
def test_kinds_reject_keys_they_do_not_read(kind, params):
    # rademacher with variance 2 used to validate and run a unit-variance walk
    with pytest.raises(ValueError, match=f"is not read by kind {kind}"):
        make_distribution(kind, **params)


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_distribution("cauchy")


def test_nonpositive_variance():
    with pytest.raises(ValueError):
        make_distribution("gaussian", variance=0.0)


def test_step_pmf_values():
    rad = make_distribution("rademacher")
    lazy = make_distribution("lazy_lattice")
    assert rad.masses[1] == Fraction(1, 2)
    assert 0 not in rad.masses
    assert lazy.masses[0] == Fraction(1, 2)
    assert rad.denominator == 2 and lazy.denominator == 4


def test_step_pmf_continuous_unsupported():
    gauss = make_distribution("gaussian")
    assert gauss.masses is None and not gauss.is_lattice
    assert gauss.lattice is None
    with pytest.raises(UnsupportedOperationError):
        gauss.denominator


def test_mass_and_mean_sums_exact():
    for kind in ("rademacher", "lazy_lattice"):
        d = make_distribution(kind)
        assert sum(d.masses.values()) == 1
        assert sum(Fraction(s) * m for s, m in d.masses.items()) == 0


@given(st.dictionaries(st.integers(-4, 4),
                       st.integers(1, 9).map(lambda n: Fraction(n, 36)),
                       min_size=2, max_size=5))
def test_custom_lattice_moments_property(raw):
    total = sum(raw.values())
    masses = {s: m / total for s, m in raw.items()}
    mean = sum(Fraction(s) * m for s, m in masses.items())
    # recenter so construction succeeds, then verify the exact moments
    if mean.denominator != 1:
        return
    masses = {s - int(mean): m for s, m in masses.items()}
    merged = {}
    for s, m in masses.items():
        merged[s] = merged.get(s, Fraction(0)) + m
    if len([m for m in merged.values() if m > 0]) < 2:
        return
    d = make_distribution("custom_lattice", masses=merged)
    var = sum(Fraction(s) ** 2 * m for s, m in merged.items())
    assert d.variance == float(var) > 0
    # the lattice's steps and weights give back every mass, and nothing else
    lat = d.lattice
    steps = {lat.lo + lat.span * j: Fraction(w, lat.denominator)
             for j, w in enumerate(lat.weights) if w}
    assert steps == {s: m for s, m in merged.items() if m > 0}
    assert lat.weights[0] > 0 and lat.weights[-1] > 0
    assert lat.denominator == math.lcm(*(m.denominator for m in merged.values()))
    assert lat.span == math.gcd(*(s - lat.lo for s in steps))


def test_zero_mass_key_leaves_the_law_unchanged():
    # an explicit site of mass zero at one end of the support is no step:
    # the lattice, the sampled steps and the gap chain do not see it
    plain = {-2: Fraction(1, 3), 1: Fraction(2, 3)}
    padded = make_distribution("custom_lattice", masses={**plain, 200: Fraction(0)})
    plain = make_distribution("custom_lattice", masses=plain)
    assert padded.lattice == plain.lattice == Lattice(-2, 3, (1, 2), 3)
    draws = [d.sample_array(RandomStream(4, 0).generator(), (64, 3)) for d in (plain, padded)]
    assert draws[0].dtype == draws[1].dtype and np.array_equal(*draws)
    horizons = [1, 16, 100]
    assert (gap_chain_survival(padded, 1, horizons)
            == gap_chain_survival(plain, 1, horizons))


def _draws(kind, stream, calls=20):
    """Steps from `calls` successive draws on one stream's generator."""
    d = make_distribution(kind)
    rng = stream.generator()
    return np.concatenate([d.sample_array(rng, 3) for _ in range(calls)])


def test_stream_replay_is_identical():
    for kind in ("gaussian", "lazy_lattice"):
        assert np.array_equal(_draws(kind, RandomStream(7, 3)),
                              _draws(kind, RandomStream(7, 3)))
    # one stream object hands out the same generator on every call
    stream = RandomStream(7, 3)
    assert stream.generator() is stream.generator()


@pytest.mark.parametrize("seed", [2 ** 64 + 1, -3])
def test_stream_refuses_a_seed_the_philox_key_would_alias(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        RandomStream(seed, 0)
    # the generator is seeded by the seed and the salt themselves
    top = RandomStream(2 ** 64 - 1, 2 ** 61 + 5).generator().bit_generator.seed_seq
    assert (top.entropy, top.spawn_key) == (2 ** 64 - 1, (2 ** 61 + 5,))


def test_seed_and_salt_words_do_not_run_together():
    # [seed, salt] as one entropy list would key both of these by the 32-bit
    # words [0, 1, 5]; the salt as the spawn key keeps them apart
    one = RandomStream(2 ** 32, 5).generator().bit_generator.random_raw(4)
    other = RandomStream(0, 1 + 5 * 2 ** 32).generator().bit_generator.random_raw(4)
    assert not np.array_equal(one, other)


def test_distinct_streams_differ():
    for kind in ("gaussian", "lazy_lattice"):
        base = _draws(kind, RandomStream(7, 0))
        assert not np.array_equal(base, _draws(kind, RandomStream(7, 1)))
        assert not np.array_equal(base, _draws(kind, RandomStream(8, 0)))


def _sites(d, slots):
    """The sites lo + span * slot of the slots a lattice law's sampler draws."""
    return d.lattice.lo + d.lattice.span * np.asarray(slots, dtype=np.int64)


def _slot_table(d):
    """Slot of each draw 0..d-1, built from the law's masses: slot j owns
    d * p(lo + span * j) consecutive draws, in ascending order."""
    sites = sorted(s for s, m in d.masses.items() if m > 0)
    counts = [int(d.masses[s] * d.denominator) for s in sites]
    return np.repeat([(s - d.lattice.lo) // d.lattice.span for s in sites], counts)


def test_sampled_mean_lazy():
    d = make_distribution("lazy_lattice")
    rng = RandomStream(11, 0).generator()
    draws = _sites(d, d.sample_array(rng, 1_000_000))
    sigma = math.sqrt(d.variance)
    assert abs(draws.mean()) < 4 * sigma / 1000


def test_sampled_histogram_matches_pmf():
    d = make_distribution("lazy_lattice")
    rng = RandomStream(13, 0).generator()
    n = 1_000_000
    draws = _sites(d, d.sample_array(rng, n))
    for site, mass in d.masses.items():
        p = float(mass)
        freq = (draws == site).mean()
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)


def test_stream_autocorrelation():
    d = make_distribution("gaussian")
    rng = RandomStream(17, 0).generator()
    x = d.sample_array(rng, 100_000)
    x = (x - x.mean()) / x.std()
    for lag in (1, 2, 5):
        r = float(np.mean(x[:-lag] * x[lag:]))
        assert abs(r) < 5 / math.sqrt(len(x))


def _site_counts(d, u):
    """How many of the draws u the sampler of d maps to each site."""
    sites = _sites(d, d.sampler.slots_of(u, np.int64))
    return {int(s): int((sites == s).sum()) for s in np.unique(sites)}


@pytest.mark.parametrize("kind, masses", [
    ("rademacher", None),
    ("lazy_lattice", None),
    ("custom_lattice", {-2: Fraction(1, 8), 0: Fraction(3, 4), 2: Fraction(1, 8)}),
    ("custom_lattice", {-1: Fraction(1, 3), 0: Fraction(1, 3), 1: Fraction(1, 3)}),
    ("custom_lattice", {-2: Fraction(1, 6), 0: Fraction(1, 2), 1: Fraction(1, 3),
                        5: Fraction(0)}),
])
def test_sampler_table_counts_are_exact_masses(kind, masses):
    d = make_distribution(kind, **({"masses": masses} if masses else {}))
    sampler = d.sampler
    assert sampler.denominator == d.denominator
    counts = _site_counts(d, np.arange(d.denominator))
    want = {s: m for s, m in d.masses.items() if m > 0}
    assert {s: Fraction(c, d.denominator) for s, c in counts.items()} == want


def _symmetric(**mass_by_site):
    """Mean-zero law with the given masses on +-site and the rest at 0."""
    masses = {}
    for name, m in mass_by_site.items():
        site = int(name[1:])
        masses[-site] = masses[site] = Fraction(m)
    masses[0] = 1 - sum(masses.values())
    return make_distribution("custom_lattice", masses=masses)


def test_sampler_draw_dtype_is_smallest_holding_every_draw():
    assert make_distribution("rademacher").sampler.draw_dtype is np.uint8
    # d = 2**16 draws 0..65535, which fit uint16
    edge = _symmetric(s1=Fraction(1, 2) - Fraction(1, 2 ** 16))
    assert edge.denominator == 2 ** 16
    assert edge.sampler.draw_dtype is np.uint16
    draws = _sites(edge, edge.sample_array(RandomStream(1, 0).generator(), 4096))
    assert set(np.unique(draws).tolist()) <= {-1, 0, 1}


def test_sampler_wide_law_counts_are_exact_masses():
    # d = lcm(7, 5, 3 * 2**13) = 860160 over nine sites; site +-4 has mass
    # zero and must own no slot
    d = _symmetric(s1=Fraction(1, 5), s2=Fraction(1, 7),
                   s3=Fraction(1, 3 * 2 ** 13), s4=0)
    sampler = d.sampler
    assert d.denominator == 860160
    assert sampler.draw_dtype is np.uint32
    counts = _site_counts(d, np.arange(d.denominator, dtype=sampler.draw_dtype))
    want = {s: m for s, m in d.masses.items() if m > 0}
    assert {s: Fraction(c, d.denominator) for s, c in counts.items()} == want
    draws = d.sample_array(RandomStream(3, 0).generator(), (1000, 3))
    assert draws.dtype == np.int64 and set(np.unique(_sites(d, draws)).tolist()) <= set(want)


def test_sampler_refuses_denominator_at_int64_bound():
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        _symmetric(s1=Fraction(1, 2) - Fraction(1, 2 ** 63))
    d = _symmetric(s1=Fraction(1, 2) - Fraction(1, 2 ** 62))
    assert d.denominator == 2 ** 62 and d.sampler.draw_dtype is np.uint64
    u = np.array([0, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61, 2 ** 61 + 1,
                  2 ** 62 - 1], dtype=np.uint64)
    assert _sites(d, d.sampler.slots_of(u, np.int64)).tolist() == [-1, -1, 0, 0, 1, 1]


def test_sampler_is_compiled_once_per_law():
    d = make_distribution("lazy_lattice")
    sampler = d.sampler
    d.sample_array(RandomStream(0, 0).generator(), (8, 3))
    assert d.sampler is sampler
    assert make_distribution("gaussian").sampler is None


def test_lattice_draws_take_the_asked_dtype_and_refuse_sites_past_int64():
    rad = make_distribution("rademacher")
    draws = rad.sample_array(RandomStream(5, 0).generator(), (16, 3))
    assert draws.dtype == np.int64 and set(np.unique(draws).tolist()) <= {0, 1}
    wide = make_distribution("custom_lattice",
                             masses={-300: Fraction(1, 2), 300: Fraction(1, 2)})
    narrow = wide.sample_array(RandomStream(5, 0).generator(), 8, np.int16)
    assert narrow.dtype == np.int16
    assert np.array_equal(narrow, wide.sample_array(RandomStream(5, 0).generator(), 8))
    with pytest.raises(ValueError, match="int64"):
        make_distribution("custom_lattice",
                          masses={-2 ** 70: Fraction(1, 2), 2 ** 70: Fraction(1, 2)})
    # sites in int64 whose spread, and span, are not: int64 slots times the span
    # overflowed in every layer
    with pytest.raises(ValueError, match=r"spread below 2\*\*63"):
        make_distribution("custom_lattice",
                          masses={-2 ** 62 - 1: Fraction(1, 2), 2 ** 62 + 1: Fraction(1, 2)})
    widest = make_distribution("custom_lattice", masses={
        -2 ** 62: Fraction(2 ** 62 - 1, 2 ** 63 - 1), 2 ** 62 - 1: Fraction(2 ** 62, 2 ** 63 - 1)})
    assert widest.lattice.span == 2 ** 63 - 1
    gauss = make_distribution("gaussian").sample_array(RandomStream(5, 0).generator(), 8)
    assert gauss.dtype == np.float64


class _RawWords:
    """Bit generator stand-in: hands out fixed raw 64-bit words in order and
    records the size of every request."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.requests = []

    def random_raw(self, size):
        start = sum(self.requests)
        self.requests.append(size)
        out = self.words[start:start + size]
        assert out.size == size, "the draw asked for more words than the stub holds"
        return out.copy()


class _StubRng:
    def __init__(self, words):
        self.bit_generator = _RawWords(words)


def _words(lanes, dtype):
    """Raw words whose little-endian lanes of `dtype` are `lanes`, in order,
    and zero lanes to fill the last word."""
    lanes = np.asarray(lanes, dtype=np.dtype(dtype).newbyteorder("<"))
    pad = -lanes.size % (8 // lanes.itemsize)
    return np.concatenate([lanes, np.zeros(pad, lanes.dtype)]).view("<u8")


def _bit_words(bits):
    """Raw words whose bits are `bits`, in order: bit i of word w is bit
    64 w + i, the value 2**i in the word (so the low bit of the low byte
    first), and zero bits to fill the last word."""
    bits = np.asarray(bits, dtype=np.uint64)
    bits = np.concatenate([bits, np.zeros(-bits.size % 64, np.uint64)]).reshape(-1, 64)
    return (bits << np.arange(64, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def _lane_words(d, lanes):
    """Raw words that hand the sampler of `d` the given lanes in order: one
    bit per lane for d = 2, else lanes of its draw dtype."""
    if d.denominator == 2:
        return _bit_words(lanes)
    return _words(lanes, d.sampler.draw_dtype)


THIRDS = {-1: Fraction(1, 3), 0: Fraction(1, 3), 1: Fraction(1, 3)}
# d = 4099 is prime, so its uint16 lanes are masked to 13 bits and about half rejected
D4099 = {-1: Fraction(1000, 4099), 0: Fraction(2099, 4099), 1: Fraction(1000, 4099)}


# 70 bits over two words, in no byte-periodic pattern, so a draw that read
# the bits or bytes in another order would give other steps
_BITS = [int(b) for b in format(0x9F4A_31C7_0B5E_D286, "064b")[::-1]] + [1, 0, 0, 1, 1, 0]


@pytest.mark.parametrize("kind, masses, lanes, want", [
    # d = 2: one-bit lanes, the low bit of each word first, none rejected
    ("rademacher", None, _BITS, [2 * b - 1 for b in _BITS]),
    # d = 4: lanes masked to two bits, none rejected
    ("lazy_lattice", None, [0, 1, 2, 3, 4, 5, 6, 0xFF], [-1, 0, 0, 1, -1, 0, 0, 1]),
])
def test_sampler_power_of_two_lanes_are_masked_in_order(kind, masses, lanes, want):
    d = make_distribution(kind)
    n = len(want)
    words = _lane_words(d, lanes)
    rng = _StubRng(words)
    assert _sites(d, d.sample_array(rng, n)).tolist() == want
    assert rng.bit_generator.requests == [len(words)]
    rng = _StubRng(words)
    assert _sites(d, d.sample_array(rng, (2, n // 2))).tolist() == [want[:n // 2],
                                                                    want[n // 2:]]


@pytest.mark.parametrize("size, words", [(1, 1), (63, 1), (64, 1), (65, 2), (70, 2)])
def test_rademacher_bits_ask_for_whole_words_and_give_a_prefix(size, words):
    # a draw of N steps asks for ceil(N / 64) words in one request, and is the
    # first N bits of the word stream: a prefix of any larger draw
    d = make_distribution("rademacher")
    rng = _StubRng(_bit_words(_BITS))
    draws = d.sample_array(rng, size)
    assert rng.bit_generator.requests == [words]
    # the drawn bit is the slot
    assert draws.dtype == np.int64
    assert draws.tolist() == _BITS[:size]


def test_sampler_rejects_lanes_at_or_above_d_and_refills():
    d = make_distribution("custom_lattice", masses=THIRDS)  # d = 3, two-bit mask
    # word 1 keeps 6 of 8 lanes (masked 3 is rejected), word 2 keeps none
    # (0xFF masks to 3), and the refill's word 3 supplies the last two
    lanes = [0, 1, 2, 3, 4, 5, 6, 7] + [0xFF] * 8 + [2, 0xFB, 1, 0, 0, 0, 0, 0]
    rng = _StubRng(_words(lanes, np.uint8))
    draws = _sites(d, d.sample_array(rng, (2, 4)))
    assert draws.tolist() == [[-1, 0, 1, -1], [0, 1, 1, 0]]
    # 8 draws at acceptance 3/4 ask for ceil(8 * 4 / (3 * 8)) = 2 words, then 1
    assert rng.bit_generator.requests == [2, 1]


def test_sampler_uint16_lanes_reject_above_d():
    d = make_distribution("custom_lattice", masses=D4099)
    sampler = d.sampler
    assert d.denominator == 4099 and sampler.draw_dtype is np.uint16
    # draws 0..999 are site -1, 1000..3098 site 0, 3099..4098 site 1
    lanes = [0, 4098, 4099, 8191, 0xFFFF, 0x2000 | 999, 1000, 0xE000 | 3099] + [1] * 4
    rng = _StubRng(_words(lanes, np.uint16))
    assert _sites(d, d.sample_array(rng, 5)).tolist() == [-1, 1, -1, 0, 1]
    assert rng.bit_generator.requests == [3]  # ceil(5 * 8192 / (4099 * 4))


def test_sampler_uint32_lanes_are_masked_and_rejected():
    d = _symmetric(s1=Fraction(1, 5), s2=Fraction(1, 7),
                   s3=Fraction(1, 3 * 2 ** 13), s4=0)
    sampler = d.sampler
    assert d.denominator == 860160
    assert sampler.draw_dtype is np.uint32
    # the mask is 2**20 - 1; site -3 owns draws 0..34 and site -2 the next 122880
    lanes = [0, 860159, 860160, 0xFFFFFFFF, (1 << 20) | 7, 35, 0, 0]
    rng = _StubRng(_words(lanes, np.uint32))
    assert _sites(d, d.sample_array(rng, (2, 2))).tolist() == [[-3, 3], [-3, -2]]


@pytest.mark.parametrize("masses", [
    {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)},
    THIRDS,
    {-2: Fraction(1, 6), 0: Fraction(1, 2), 1: Fraction(1, 3), 5: Fraction(0)},
    D4099,
    {-3: Fraction(1, 49152), -2: Fraction(1, 14), -1: Fraction(1, 10),
     0: 1 - Fraction(1, 24576) - Fraction(1, 7) - Fraction(1, 5),
     1: Fraction(1, 10), 2: Fraction(1, 14), 3: Fraction(1, 49152)},
])
def test_every_masked_lane_value_once_gives_exact_masses(masses):
    # lanes running once through every masked value 0..mask keep exactly the
    # d draws 0..d-1, in order, so site s gets m_s * d of them
    d = make_distribution("custom_lattice", masses=masses)
    sampler = d.sampler
    mask = (1 << (d.denominator - 1).bit_length()) - 1
    lanes = np.arange(mask + 1, dtype=np.uint64).astype(sampler.draw_dtype)
    rng = _StubRng(_lane_words(d, lanes))
    slots = d.sample_array(rng, d.denominator)
    assert np.array_equal(slots, _slot_table(d))
    draws = _sites(d, slots)
    counts = {int(s): int((draws == s).sum()) for s in np.unique(draws)}
    want = {s: m for s, m in masses.items() if m > 0}
    assert {s: Fraction(c, d.denominator) for s, c in counts.items()} == want


def _custom(masses):
    return make_distribution("custom_lattice", masses=masses)


@pytest.mark.parametrize("dist, slots", [
    # the laws of the sampler tests above, each draw 0..d-1
    *((dist, None) for dist in (
        make_distribution("rademacher"),
        make_distribution("lazy_lattice"),
        _custom({-2: Fraction(1, 8), 0: Fraction(3, 4), 2: Fraction(1, 8)}),
        _custom(THIRDS),
        _custom({-2: Fraction(1, 6), 0: Fraction(1, 2), 1: Fraction(1, 3), 5: Fraction(0)}),
        _custom(D4099),
        _custom({-3: Fraction(1, 49152), -2: Fraction(1, 14), -1: Fraction(1, 10),
                 0: 1 - Fraction(1, 24576) - Fraction(1, 7) - Fraction(1, 5),
                 1: Fraction(1, 10), 2: Fraction(1, 14), 3: Fraction(1, 49152)}),
        _symmetric(s1=Fraction(1, 2) - Fraction(1, 2 ** 16)),
        _symmetric(s1=Fraction(1, 5), s2=Fraction(1, 7), s3=Fraction(1, 3 * 2 ** 13), s4=0),
        _custom({-300: Fraction(1, 2), 300: Fraction(1, 2)}),
        # sites 200 apart, one slot apart
        _custom({-100: Fraction(1, 2), 100: Fraction(1, 2)}),
    )),
    # d = 2**62: the draws at each end of every site's range
    (_symmetric(s1=Fraction(1, 2) - Fraction(1, 2 ** 62)),
     [0, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61, 2 ** 61 + 1, 2 ** 62 - 1]),
])
def test_compare_lookup_gives_the_table_and_searchsorted_sites(dist, slots):
    # the compare-adds map every draw u (the listed ones, else 0..d-1) to the
    # slot of the site that a table (or, for d = 2**62, searchsorted over the
    # ranges' ends) gives, in every dtype the block simulator asks for:
    # lo + span * slot is that site
    sampler, u = dist.sampler, slots
    sites = sorted(dist.masses)
    counts = [int(dist.masses[s] * sampler.denominator) for s in sites]
    if u is None:
        u = np.arange(sampler.denominator)
        want = np.repeat(sites, counts)[u]
    else:
        u = np.array(u, dtype=np.uint64)
        ends = np.cumsum(counts[:-1], dtype=np.uint64)
        want = np.array(sites)[np.searchsorted(ends, u, side="right")]
    u = u.astype(sampler.draw_dtype)
    for dtype in (np.int16, np.int32, np.int64):
        found = sampler.slots_of(u, dtype)
        assert found.dtype == np.dtype(dtype)
        assert _sites(dist, found).tolist() == want.tolist()


@pytest.mark.parametrize("kind", ["rademacher", "lazy_lattice", "gaussian"])
def test_sample_array_takes_int_and_tuple_shapes(kind):
    d = make_distribution(kind)
    flat = d.sample_array(RandomStream(9, 0).generator(), 12)
    shaped = d.sample_array(RandomStream(9, 0).generator(), (3, 4))
    assert flat.shape == (12,) and shaped.shape == (3, 4)
    assert np.array_equal(flat.reshape(3, 4), shaped)
    # a draw of fewer leading rows is a prefix of the longer draw
    rows = d.sample_array(RandomStream(9, 0).generator(), (2, 4))
    assert np.array_equal(rows, shaped[:2])
