import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentseal import codec, henon, images, metrics, pipeline
from latentseal.errors import DivergenceError, IoError, WeakKeyError

CLASSICAL = (henon.CLASSICAL_A, henon.CLASSICAL_B)


def _step(x, y, a, b):
    """Test-only oracle: one iteration of the map, in the written evaluation order."""
    return 1.0 - a * x * x + y, b * x


def _first_points(x0, y0, params, n):
    """The first n orbit points from (x0, y0) under map parameters (a, b), through the library, with no burn-in."""
    return henon.henon_trajectory(henon.SymKey(x0, y0, *params, burn_in=0), n)


def test_step_from_origin():
    assert tuple(_first_points(0.0, 0.0, CLASSICAL, 1)[0]) == (1.0, 0.0)


def test_second_step_written_order():
    s2 = _first_points(0.0, 0.0, CLASSICAL, 2)[1]
    # exactly the prescribed arithmetic: (1 - a*x*x + y, b*x)
    assert s2[0] == 1.0 - 1.4 * 1.0 * 1.0 + 0.0
    assert s2[1] == 0.3
    assert s2[0] == pytest.approx(-0.4, abs=1e-15)


def test_step_degenerate_params():
    assert tuple(_first_points(0.0, 0.0, (0.0, 0.0), 1)[0]) == (1.0, 0.0)


def test_sequence_no_burn_in():
    key = henon.SymKey(0.0, 0.0, burn_in=0)
    seq = henon.henon_trajectory(key, 2)[:, 0]
    assert seq[0] == 1.0
    assert seq[1] == 1.0 - 1.4 * 1.0 * 1.0 + 0.0


def test_sequence_burn_in_skips_first():
    key = henon.SymKey(0.0, 0.0, burn_in=1)
    assert henon.henon_trajectory(key, 1)[0, 0] == 1.0 - 1.4 * 1.0 * 1.0 + 0.0


def test_sequence_trapping_region():
    key = henon.SymKey(0.1, 0.1, burn_in=1000)
    seq = henon.henon_trajectory(key, 100)[:, 0]
    assert np.all(np.abs(seq) <= 1.5)


def test_sequence_deterministic():
    key = henon.SymKey(0.2, -0.1)
    a = henon.henon_trajectory(key, 500)[:, 0]
    b = henon.henon_trajectory(key, 500)[:, 0]
    assert np.array_equal(a, b)


def test_divergence_guard():
    with pytest.raises(DivergenceError):
        _first_points(50.0, 0.0, CLASSICAL, 1)
    with pytest.raises(DivergenceError):
        henon.henon_trajectory(henon.SymKey(3.0, 3.0, burn_in=0), 10)


def test_divergence_index_reported():
    # (3, 3) -> (-8.6, 0.9) -> x = 1 - 1.4 * 8.6**2 + 0.9 < -100: trips at step 1
    with pytest.raises(DivergenceError, match=r"at step 1$"):
        henon.henon_trajectory(henon.SymKey(3.0, 3.0, burn_in=0), 10)
    # a point on the guard is inside it: (0, 99) -> (100, 0), then x = 1 - 1.4e4; with a = 0 and b = 1,
    # (100, 0) -> (1, 100), then x = 101
    for key, first in ((henon.SymKey(0.0, 99.0, burn_in=0), [100.0, 0.0]), (henon.SymKey(100.0, 0.0, a=0.0, b=1.0, burn_in=0), [1.0, 100.0])):
        assert henon.henon_trajectory(key, 1).tolist() == [first]
        with pytest.raises(DivergenceError, match=r"at step 1$"):
            henon.henon_trajectory(key, 2)


def test_trajectory_matches_step_oracle():
    key = henon.SymKey(0.1, 0.1, burn_in=500)
    state = (key.x0, key.y0)
    points = []
    for i in range(key.burn_in + 2000):
        state = _step(*state, key.a, key.b)
        if i >= key.burn_in:
            points.append(state)
    traj = henon.henon_trajectory(key, 2000)
    assert np.array_equal(traj, np.array(points))


def test_key_point_bounds():
    henon.SymKey(100.0, -100.0)  # the guard's edges are inside it
    for x0, y0 in ((200.0, 0.0), (math.nextafter(100.0, math.inf), 0.0), (0.0, -math.nextafter(100.0, math.inf))):
        with pytest.raises(ValueError):
            henon.SymKey(x0, y0)
    with pytest.raises(ValueError):
        henon.SymKey(0.0, 0.0, burn_in=-1)


def test_permutation_hand_examples():
    assert list(henon.permutation_from_sequence(np.array([0.3, 0.1, 0.2]))) == [1, 2, 0]
    assert list(henon.permutation_from_sequence(np.array([5.0]))) == [0]
    # stable tie-break by original position
    assert list(henon.permutation_from_sequence(np.array([2.0, 2.0, 1.0]))) == [2, 0, 1]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_permutation_is_bijection(values):
    p = henon.permutation_from_sequence(np.array(values))
    assert sorted(p) == list(range(len(values)))


def test_permutation_for_key_memoised_read_only():
    key = henon.SymKey(0.2, -0.1)
    perm = henon.permutation_for_key(key, 64)
    assert henon.permutation_for_key(henon.SymKey(0.2, -0.1), 64) is perm
    assert np.array_equal(perm, henon.permutation_from_sequence(henon.henon_trajectory(key, 64)[:, 0]))
    with pytest.raises(ValueError):
        perm[0] = perm[1]


def test_shuffle_examples():
    v = np.array([10.0, 20.0, 30.0])
    p = np.array([1, 2, 0])
    assert list(henon.shuffle(v, p)) == [20.0, 30.0, 10.0]
    assert list(henon.deshuffle(np.array([20.0, 30.0, 10.0]), p)) == [10.0, 20.0, 30.0]
    ident = np.arange(3)
    assert np.array_equal(henon.shuffle(v, ident), v)
    assert np.array_equal(henon.deshuffle(v, ident), v)
    assert list(henon.shuffle(np.array([7.0]), np.array([0]))) == [7.0]


def test_shuffle_round_trip_bitwise():
    # 10 000 bijections from sequences of n = 1..128 values, and a bitwise round trip through each
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(1, 129))
        p = henon.permutation_from_sequence(rng.standard_normal(n))
        assert np.array_equal(np.sort(p), np.arange(n))
        v = rng.standard_normal(n)
        assert np.array_equal(henon.deshuffle(henon.shuffle(v, p), p), v)


def test_one_known_latent_reveals_its_permutation(tmp_path):
    # the shuffle is a permutation-only layer: whoever opens the ECIES layer and knows one image learns
    # the permutation of that key and m at every latent value that occurs once (README "Notes")
    rng = np.random.default_rng(3)
    model = codec.dct_model(100)
    for path in images.make_dataset(tmp_path, count=20, size=128, seed=3):
        latent = model.encode(images.read_image(path))
        perm = henon.permutation_for_key(henon.random_sym_key(rng), 100)
        s = henon.shuffle(latent, perm)
        recovered = sum(np.flatnonzero(latent == s[k]).tolist() == [perm[k]] for k in range(100))
        assert recovered >= 95, path.name


def test_magnitude_order_guesses_a_rough_image_without_the_key(tmp_path):
    # DCT energy falls along the zigzag and a shuffle keeps the values, so placing the shuffled latent in
    # zigzag order by descending magnitude gives a rough image with no key at all; deshuffling under
    # a wrong key scores far lower (README "Notes")
    rng = np.random.default_rng(3)
    model = codec.dct_model(100)
    guessed, wrong = [], []
    for path in images.make_dataset(tmp_path, count=20, size=128, seed=3):
        latent = model.encode(images.read_image(path))
        true = model.decode(latent, 128, 128)
        s = henon.shuffle(latent, henon.permutation_for_key(henon.random_sym_key(rng), 100))
        guess = s[np.argsort(-np.abs(s), kind="stable")]
        other = henon.deshuffle(s, henon.permutation_for_key(henon.random_sym_key(rng), 100))
        guessed.append(metrics.ssim(model.decode(guess, 128, 128), true, 7))
        wrong.append(metrics.ssim(model.decode(other, 128, 128), true, 7))
    assert np.median(guessed) >= 0.6 and np.median(wrong) < 0.1, (np.median(guessed), np.median(wrong))


def test_key_sensitivity():
    rng = np.random.default_rng(123)
    diffs = []
    while len(diffs) < 100:
        x0 = rng.uniform(-0.5, 0.5)
        y0 = rng.uniform(-0.2, 0.2)
        try:
            p1 = henon.permutation_for_key(henon.SymKey(x0, y0), 100)
            p2 = henon.permutation_for_key(henon.SymKey(x0 + 1e-9, y0), 100)
        except DivergenceError:
            continue
        diffs.append(int(np.sum(p1 != p2)))
    assert np.mean(diffs) >= 90.0


def test_key_resolution():
    # the key's effective resolution (Alvarez & Li 2006): a 2**-44 change of any real field, or one burn-in
    # step either way, moves at least 90% of an m = 100 permutation on each key (at least 93% on these 200)
    rng = np.random.default_rng(0)
    for _ in range(200):
        key = henon.random_sym_key(rng)
        perm = henon.permutation_for_key(key, 100)
        for field, step in (("x0", 2.0**-44), ("y0", 2.0**-44), ("a", 2.0**-44), ("b", 2.0**-44), ("burn_in", 1), ("burn_in", -1)):
            near = dataclasses.replace(key, **{field: getattr(key, field) + step})
            assert np.mean(henon.permutation_for_key(near, 100) != perm) >= 0.9, (key, field, step)


def test_keys_one_ulp_apart_can_share_a_permutation():
    # below that resolution the first step's rounding can absorb a change: 152 of the 200 keys above
    # keep their permutation when x0 moves by one ulp, the first of them among them
    key = henon.random_sym_key(np.random.default_rng(0))
    near = dataclasses.replace(key, x0=float(np.nextafter(key.x0, np.inf)))
    assert near != key
    assert np.array_equal(henon.permutation_for_key(near, 100), henon.permutation_for_key(key, 100))


def test_trajectory_bounds():
    tr = henon.henon_trajectory(henon.SymKey(0.1, 0.1), 10_000)
    assert tr.shape == (10_000, 2)
    assert np.abs(tr[:, 0]).max() <= 1.5
    assert np.abs(tr[:, 1]).max() <= 0.45


def test_sym_key_file_round_trip(tmp_path):
    key = henon.SymKey(0.1234567890123456, -0.05, 1.4, 0.3, 777)
    path = tmp_path / "k.sym"
    henon.save_sym_key(key, path)
    loaded = henon.load_sym_key(path)
    assert loaded == key


def test_sym_key_file_defaults(tmp_path):
    path = tmp_path / "k.sym"
    path.write_text("0.1 0.2\n")
    key = henon.load_sym_key(path)
    assert (key.x0, key.y0) == (0.1, 0.2)
    assert (key.a, key.b) == CLASSICAL
    assert key.burn_in == henon.DEFAULT_BURN_IN


def test_random_sym_key_always_valid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        henon.permutation_for_key(henon.random_sym_key(rng), henon.WEAK_KEY_SPAN)


def test_weak_keys_rejected(tmp_path, public_key, monkeypatch):
    # a fixed point: every orbit value is 1.0, and the stable argsort is the identity
    flat = henon.SymKey(0.1, 0.1, 0.0, 0.0)
    with pytest.raises(WeakKeyError, match="repeat"):
        henon.permutation_for_key(flat, henon.WEAK_KEY_SPAN)
    # distinct values, but strictly increasing: the shuffle moves nothing
    rising = henon.SymKey(0.1, 0.0, 0.0, 1.0, burn_in=0)
    with pytest.raises(WeakKeyError, match="identity"):
        henon.permutation_for_key(rising, henon.WEAK_KEY_SPAN)
    path = tmp_path / "weak.sym"
    henon.save_sym_key(flat, path)
    with pytest.raises(IoError):
        henon.load_sym_key(path)
    # a key built in code, never loaded, is refused at a length under the span too
    with pytest.raises(WeakKeyError, match="repeat"):
        henon.permutation_for_key(flat, 50)
    monkeypatch.setattr(pipeline, "ecies_encrypt", lambda *args, **kwargs: pytest.fail("sealed under a weak key"))
    with pytest.raises(WeakKeyError, match="repeat"):
        pipeline.compress_encrypt(images.smooth_gradient(16), codec.dct_model(50), flat, public_key)


@pytest.mark.parametrize("x0,y0,a,b", [(float("nan"), 0.1, 1.4, 0.3), (0.1, 0.1, float("inf"), 0.3), (0.1, 0.1, 1.4, float("nan"))])
def test_non_finite_key_refused(tmp_path, x0, y0, a, b):
    with pytest.raises(ValueError, match="must be finite"):
        henon.SymKey(x0, y0, a, b)
    path = tmp_path / "k.sym"
    path.write_text(f"{x0!r} {y0!r}\n{a!r} {b!r}\n")
    with pytest.raises(IoError, match="must be finite"):
        henon.load_sym_key(path)


def test_burn_in_capped():
    henon.SymKey(0.1, 0.1, burn_in=henon.MAX_BURN_IN)
    with pytest.raises(ValueError):
        henon.SymKey(0.1, 0.1, burn_in=henon.MAX_BURN_IN + 1)


def _uncached_permutation(key, m):
    """Test-only oracle: the permutation from a fresh orbit, outside the permutation memo."""
    return henon.permutation_from_sequence(henon.henon_trajectory(key, m)[:, 0])


def test_permutation_for_key_over_shuffled_lengths():
    henon.permutation_for_key.cache_clear()
    keys = [henon.SymKey(0.2, -0.1), henon.SymKey(0.1, 0.1, burn_in=37), henon.SymKey(-0.3, 0.05, burn_in=0)]
    lengths = np.random.default_rng(4).permutation([1, 2, 16, 16, 100, 399, 400, 400, 401, 1000, 3])
    for m in lengths:
        for key in keys:
            perm = henon.permutation_for_key(key, int(m))
            assert perm.tobytes() == _uncached_permutation(key, int(m)).tobytes()


def test_divergence_past_a_cached_prefix_is_raised_every_call():
    # x' = 1 + y, y' = x: x grows by one every two steps and leaves the guard near step 200
    key = henon.SymKey(0.0, 0.0, 0.0, 1.0, burn_in=0)
    short = henon.henon_trajectory(key, 100).copy()
    with pytest.raises(DivergenceError) as first:
        henon.henon_trajectory(key, 300)
    for _ in range(3):
        with pytest.raises(DivergenceError) as again:
            henon.henon_trajectory(key, 300)
        assert str(again.value) == str(first.value)  # same step index on every call
        with pytest.raises(DivergenceError):
            henon.permutation_for_key(key, 300)
    assert np.array_equal(henon.henon_trajectory(key, 100), short)


def test_permutation_memo_holds_the_tenants_working_set():
    # 64 keys x 3 lengths, as on mixed-tenants: a second pass is all hits
    keys = [henon.SymKey(0.1 + i * 1e-4, 0.05, burn_in=10) for i in range(64)]
    pairs = [(key, m) for key in keys for m in (16, 100, 400)]
    for key, m in pairs:
        henon.permutation_for_key(key, m)
    misses = henon.permutation_for_key.cache_info().misses
    for key, m in pairs:
        henon.permutation_for_key(key, m)
    assert henon.permutation_for_key.cache_info().misses == misses
    # every entry is at most an int64 permutation of the header's largest m
    assert henon.permutation_for_key.cache_info().maxsize * 8 * 0xFFFF <= 128 << 20


def test_oversized_sym_key_file_is_io_error(tmp_path):
    path = tmp_path / "big.sym"
    path.write_text("0.1 0.2\n" + " " * (3 << 20))
    with pytest.raises(IoError, match="over"):
        henon.load_sym_key(path)


# (a, b, burn_in) whose orbits from (0.1, 0.05) settle on a stable fixed point or cycle
NON_CHAOTIC = [(0.2, 0.3, 0), (0.2, 0.3, 10), (0.5, 0.1, 0), (0.9, 0.3, 0), (1.0, 0.3, 5), (1.06, 0.3, 0), (1.06, 0.3, 1000)]


@pytest.mark.parametrize("a,b,burn_in", NON_CHAOTIC)
def test_non_chaotic_keys_rejected(tmp_path, a, b, burn_in):
    key = henon.SymKey(0.1, 0.05, a, b, burn_in)
    with pytest.raises(WeakKeyError, match="not chaotic"):
        henon.permutation_for_key(key, henon.WEAK_KEY_SPAN)
    path = tmp_path / "k.sym"
    henon.save_sym_key(key, path)
    with pytest.raises(IoError, match="not chaotic"):
        henon.load_sym_key(path)


@pytest.mark.parametrize("burn_in", [0, 1000])
def test_chaotic_non_classical_key_accepted(burn_in):
    henon.permutation_for_key(henon.SymKey(0.1, 0.05, 1.2, 0.3, burn_in), henon.WEAK_KEY_SPAN)


def test_a_key_that_settles_on_a_cycle_is_refused_past_the_span_validate_checks():
    # chaotic near the key point, so it passes at the span a load checks; then its orbit repeats with period 7
    key = henon.SymKey(0.1, 0.1, 1.23, 0.3, 0)
    henon.permutation_for_key(key, henon.WEAK_KEY_SPAN)
    assert len(set(henon.henon_trajectory(key, 400)[:, 0].tolist())) == 181
    for m in (400, 4096, 0xFFFF):
        with pytest.raises(WeakKeyError, match="not chaotic"):
            henon.permutation_for_key(key, m)


def test_drawn_keys_stay_chaotic_over_long_spans():
    rng = np.random.default_rng(11)
    for _ in range(20):
        henon.permutation_for_key(henon.random_sym_key(rng), 4096)


def test_random_sym_key_draws_unchanged_by_the_chaos_check():
    # the key points random_sym_key returned for seeds 0..999 before keys had to be chaotic
    text = "".join(f"{k.x0!r} {k.y0!r}\n" for k in (henon.random_sym_key(np.random.default_rng(s)) for s in range(1000)))
    assert hashlib.sha256(text.encode()).hexdigest() == "940be369f16e4de7c2eeef9926d57d460e5219656a77f600134be97db6552356"
