import numpy as np
import pytest

from adagb2 import _philox
from adagb2.errors import ConfigurationError
from adagb2.oracle import (NOISE_MODELS, AffineGaussian, BoundedUniform,
                           ConstantBias, Exact, Gaussian, OracleStream,
                           RelativeBias, StreamRows, Subsample, draw)
from adagb2.problem import Objective, make_test_problem

PROB = make_test_problem("boxed_quadratic", 6, 0)
OBJ = PROB.objective


def empirical_rmse(obj, x, model, draws, seed):
    """sqrt(mean ||g - G||^2) over independent draws at the point x, all
    rows of one draw from one generator."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x535E)))
    od = draw(obj, np.tile(x, (draws, 1)), model, [rng] * draws)
    errs = od.g - od.g_true
    return float(np.sqrt(np.mean(np.sum(errs * errs, axis=1))))


def _one(obj, x, model, rng):
    """g, G and ||g - G|| of a draw at the single point x, passed as one row."""
    od = draw(obj, x[None], model, [rng])
    g, g_true = od.g[0], od.g_true[0]
    return g, g_true, np.linalg.norm(g - g_true)


def test_stream_replay_bit_identical():
    stream = OracleStream(42, 3)
    a = stream.rng(17).standard_normal(8)
    b = OracleStream(42, 3).rng(17).standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_shared_matches_fresh():
    stream = OracleStream(5, 0)
    for k in (0, 1, 2, 1000, 2**40):
        fresh = stream.rng(k).standard_normal(5)
        shared = stream.rng_shared(k).standard_normal(5)
        assert np.array_equal(fresh, shared)


def _draw_bytes(gen):
    """The bytes of draws that read whole words, 32-bit halves and buffers."""
    parts = (gen.standard_normal(5), gen.random(3),
             gen.integers(0, 2**32, size=5, dtype=np.uint32),
             gen.choice(200, size=10, replace=False),
             gen.bit_generator.random_raw(6))
    return b"".join(p.tobytes() for p in parts)


def _state(gen):
    """The bit generator's state with every number as a Python int."""
    state = gen.bit_generator.state
    return ([int(v) for v in state["state"]["counter"]],
            [int(v) for v in state["state"]["key"]],
            [int(v) for v in state["buffer"]],
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("k", [2**64 - 1, 2**64, 2**64 + 7, 2**100])
def test_stream_shared_matches_fresh_in_the_fourth_counter_word(k):
    stream = OracleStream(5, 0)
    stream.rng_shared(3).standard_normal(3)
    shared, fresh = stream.rng_shared(k), stream.rng(k)
    assert _state(shared) == _state(fresh)
    assert _draw_bytes(shared) == _draw_bytes(fresh)


def test_stream_shared_reset_clears_a_partial_buffer():
    stream = OracleStream(5, 1)
    gen = stream.rng_shared(4)
    gen.choice(200, size=10, replace=False)  # what Subsample draws
    state = gen.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"]) == (2, 1)
    for k in (9, 4):
        shared, fresh = stream.rng_shared(k), stream.rng(k)
        assert _state(shared) == _state(fresh)
        assert _draw_bytes(shared) == _draw_bytes(fresh)


def test_two_streams_reset_alternately():
    # Resets of one stream must not touch the other's state, whether each
    # draws right after its reset (the engine's order) or both reset first.
    a, b = OracleStream(5, 0), OracleStream(5, 1)
    for k in (0, 7, 2**64 + 1, 7):
        assert _draw_bytes(a.rng_shared(k)) == _draw_bytes(a.rng(k))
        assert _draw_bytes(b.rng_shared(k)) == _draw_bytes(b.rng(k))
        ga, gb = a.rng_shared(k + 1), b.rng_shared(k + 1)
        assert _draw_bytes(ga) == _draw_bytes(a.rng(k + 1))
        assert _draw_bytes(gb) == _draw_bytes(b.rng(k + 1))


def test_stream_out_of_order_access():
    # Counter-based streams: value at iteration k is independent of the
    # order in which iterations are visited.
    stream = OracleStream(1, 1)
    forward = [stream.rng_shared(k).standard_normal(3).copy() for k in range(5)]
    stream2 = OracleStream(1, 1)
    backward = [stream2.rng_shared(k).standard_normal(3).copy()
                for k in reversed(range(5))]
    for k in range(5):
        assert np.array_equal(forward[k], backward[4 - k])


def test_streams_differ_across_replications_and_iterations():
    s0 = OracleStream(9, 0).rng(0).standard_normal(4)
    s1 = OracleStream(9, 1).rng(0).standard_normal(4)
    s2 = OracleStream(9, 0).rng(1).standard_normal(4)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, s2)


def test_exact_draw():
    x = np.full(6, 0.5)
    g, _, err = _one(OBJ, x, Exact(), OracleStream(0, 0).rng(0))
    assert np.array_equal(g, OBJ.grad(x))
    assert err == 0.0


def test_gaussian_moments():
    x = np.full(6, 0.5)
    g_true = OBJ.grad(x)
    sigma = 0.3
    draws = np.array([
        _one(OBJ, x, Gaussian(sigma), OracleStream(0, r).rng(0))[0]
        for r in range(4000)
    ])
    err = draws - g_true
    assert abs(err.mean()) < 0.01               # unbiased
    assert np.std(err) == pytest.approx(sigma, rel=0.05)


def test_bounded_uniform_stays_in_ball():
    x = np.full(6, 0.5)
    model = BoundedUniform(0.2)
    for r in range(200):
        assert _one(OBJ, x, model, OracleStream(3, r).rng(0))[2] <= 0.2 + 1e-14


def test_affine_gaussian_rmse_matches_theory():
    x = np.full(6, 0.9)
    g_true = OBJ.grad(x)
    model = AffineGaussian(0.04, 0.5)
    target = np.sqrt(0.04 + 0.5 * float(g_true @ g_true))
    rmse = empirical_rmse(OBJ, x, model, draws=20000, seed=0)
    assert rmse == pytest.approx(target, rel=0.03)


def test_constant_bias_shifts_mean():
    x = np.full(6, 0.5)
    bias = np.full(6, 0.05)
    g, g_true, err = _one(OBJ, x, ConstantBias(bias, Exact()),
                          OracleStream(0, 0).rng(0))
    assert np.allclose(g - g_true, bias)
    assert err == pytest.approx(np.linalg.norm(bias))


def test_relative_bias():
    x = np.full(6, 0.5)
    g, g_true, _ = _one(OBJ, x, RelativeBias(0.1, Exact()),
                        OracleStream(0, 0).rng(0))
    assert np.allclose(g, 1.1 * g_true)


def test_subsample_full_batch_is_exact():
    prob = make_test_problem("finite_sum_logistic", 4, 0)
    model = Subsample(prob.objective.num_terms)
    x = np.full(4, 0.2)
    g, _, _ = _one(prob.objective, x, model, OracleStream(0, 0).rng(0))
    assert np.allclose(g, prob.objective.grad(x), rtol=1e-12)


def test_subsample_mean_is_unbiased():
    prob = make_test_problem("finite_sum_logistic", 3, 1)
    model = Subsample(5)
    x = np.full(3, -0.4)
    g_true = prob.objective.grad(x)
    draws = np.array([
        _one(prob.objective, x, model, OracleStream(0, r).rng(0))[0]
        for r in range(3000)
    ])
    assert np.allclose(draws.mean(axis=0), g_true, atol=0.02)


def test_subsample_requires_finite_sum():
    with pytest.raises(ConfigurationError):
        Subsample(4).validate(OBJ, 6)
    prob = make_test_problem("finite_sum_logistic", 3, 0)
    with pytest.raises(ConfigurationError):
        Subsample(10**6).validate(prob.objective, 3)
    # A wrapper validates its inner model.
    with pytest.raises(ConfigurationError):
        RelativeBias(0.1, ConstantBias(np.ones(6), Subsample(4))).validate(
            OBJ, 6)


def test_model_validation():
    with pytest.raises(ValueError):
        Gaussian(-1.0)
    with pytest.raises(ValueError):
        BoundedUniform(-0.5)
    with pytest.raises(ValueError):
        AffineGaussian(-1.0, 0.0)
    with pytest.raises(ValueError):
        Subsample(0)


def test_constant_bias_dimension_mismatch():
    model = ConstantBias(np.ones(3), Exact())
    model.validate(OBJ, 3)
    with pytest.raises(ConfigurationError, match="dimension 6"):
        model.validate(OBJ, 6)


@pytest.mark.parametrize("model", [
    Exact(), Gaussian(0.2), BoundedUniform(0.3), AffineGaussian(0.04, 0.5),
    ConstantBias(np.full(4, 0.05), Gaussian(0.1)),
    RelativeBias(0.1, BoundedUniform(0.2)), Subsample(5),
], ids=lambda m: m.kind)
def test_empirical_rmse_matches_per_draw_loop(model):
    # The stacked draw against a loop of single-point draws from the same
    # generator, the squared errors summed in order: rows that share one
    # generator take it in row order, each row's draws together.
    obj = make_test_problem("finite_sum_logistic", 4, 0).objective
    x = np.array([0.3, -0.2, 0.1, 0.4])
    draws, seed = 3000, 7
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x535E)))
    acc = 0.0
    for _ in range(draws):
        g, g_true, _ = _one(obj, x, model, rng)
        e = g - g_true
        acc += float(e @ e)
    assert empirical_rmse(obj, x, model, draws, seed) == pytest.approx(
        np.sqrt(acc / draws), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("model", [
    Exact(), Gaussian(0.2), BoundedUniform(0.3), AffineGaussian(0.04, 0.5),
    ConstantBias(np.full(4, 0.05), Gaussian(0.1)),
    RelativeBias(0.1, BoundedUniform(0.2)), Subsample(5),
], ids=lambda m: m.kind)
def test_draw_rows_match_single_points(model):
    # Row r of a draw at (R, n) is, bit for bit, the single-point draw at
    # x[r] from the same generator; without with_true the estimates stay the
    # same and the true gradient is left out.
    obj = make_test_problem("finite_sum_logistic", 4, 0).objective
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 4))
    rngs = lambda: [OracleStream(11, r).rng(5) for r in range(3)]  # noqa: E731
    od = draw(obj, x, model, rngs())
    for r, rng in enumerate(rngs()):
        g, g_true, _ = _one(obj, x[r], model, rng)
        assert od.g[r].tobytes() == g.tobytes()
        assert od.g_true[r].tobytes() == g_true.tobytes()
    bare = draw(obj, x, model, rngs(), with_true=False)
    assert bare.g.tobytes() == od.g.tobytes()
    assert bare.g_true is None


# One model of every kind, the bias wrappers nested in each other.
EVERY_KIND = {
    "exact": Exact(),
    "gaussian": Gaussian(0.2),
    "bounded_uniform": BoundedUniform(0.3),
    "affine_gaussian": AffineGaussian(0.04, 0.5),
    "constant_bias": ConstantBias(np.full(4, 0.05),
                                  RelativeBias(0.1, Gaussian(0.1))),
    "relative_bias": RelativeBias(-0.2, ConstantBias(np.full(4, -0.03),
                                                     BoundedUniform(0.2))),
    "subsample": Subsample(5),
}


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
def test_draw_into_a_given_buffer(kind, reps):
    # The engine passes the block buffer's slot; other callers let draw
    # allocate.  Both get the same bytes, and the slot is the draw's g.
    model = EVERY_KIND[kind]
    obj = make_test_problem("finite_sum_logistic", 4, 0).objective
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (reps, 4))
    rngs = lambda: [OracleStream(11, r).rng(5) for r in range(reps)]  # noqa: E731
    fresh = draw(obj, x, model, rngs())
    out = np.full((reps, 4), np.nan)
    given = draw(obj, x, model, rngs(), out=out)
    assert given.g is out
    assert out.tobytes() == fresh.g.tobytes()
    assert given.g_true.tobytes() == fresh.g_true.tobytes()


def test_draw_rejects_a_gradient_of_the_wrong_shape():
    obj = Objective(f=lambda x: 0.0, grad=lambda x: np.zeros(3), f_low=0.0)
    with pytest.raises(ValueError, match="does not match"):
        draw(obj, np.zeros((2, 3)), Exact(), [])


# -- Block draws: Philox and the ziggurat's fast path over many counters --


@pytest.fixture
def fresh_guard():
    """``numpy_agrees`` runs again in the test, and after it."""
    _philox.numpy_agrees.cache_clear()
    yield
    _philox.numpy_agrees.cache_clear()


def _numpy_normal(word):
    """numpy's standard normal when ``word`` is its Philox's next uint64,
    and whether it read that word alone."""
    bg = np.random.Philox(key=np.array([3, 4], dtype=np.uint64))
    state = bg.state
    state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 0
    bg.state = state
    x = np.random.Generator(bg).standard_normal()
    after = bg.state
    return x, bool(after["buffer_pos"] == 1 and np.array_equal(
        after["state"]["counter"], state["state"]["counter"]))


def _table_mismatches(ki, wi):
    """Entries i where numpy's ziggurat disagrees with the tables: with
    rabs = (r >> 9) & (2**52 - 1) and r & 0xFF = i, the fast path is taken
    iff rabs < ki[i] and gives +-rabs * wi[i], the sign from bit 8."""
    bad = set()
    for i in range(256):
        k = int(ki[i])
        probes = [(k - 1, 0, True), (k, 0, False)]
        if k > 1:
            probes += [(1, 0, True), (1, 1, True)]
        for rabs, sign, fast in probes:
            if rabs < 0:
                continue
            x, one = _numpy_normal(i | sign << 8 | rabs << 9)
            want = np.float64(rabs) * wi[i]
            if one != fast or fast and (
                    np.float64(-want if sign else want).tobytes()
                    != np.float64(x).tobytes()):
                bad.add(i)
    return sorted(bad)


def test_ziggurat_tables_match_numpy_at_every_threshold():
    assert _table_mismatches(_philox._KI_TABLE, _philox._WI_TABLE) == []
    assert _philox._KI_TABLE[1] == 0  # the one layer with no fast path


def test_one_ulp_in_a_table_entry_is_found(fresh_guard, monkeypatch):
    wi = _philox._WI_TABLE.copy()
    wi[100] = np.nextafter(wi[100], np.inf)
    assert _table_mismatches(_philox._KI_TABLE, wi) == [100]
    assert _philox.numpy_agrees()
    _philox.numpy_agrees.cache_clear()
    monkeypatch.setattr(_philox, "_WI_TABLE", wi)
    assert not _philox.numpy_agrees()


@pytest.mark.parametrize("k", [0, 1, 2**64 - 1, 2**64, 2**64 + 7, 2**100])
def test_philox_blocks_match_random_raw(k):
    # Ten words a row, from three counters: word 0 takes 1, 2 and 3.
    streams = [OracleStream(5, r) for r in range(3)]
    words = _philox.PhiloxBlocks([s._key for s in streams], 10, 4).words(k, 2)
    assert words.shape == (2, 3, 10)
    for j in range(2):
        for r, stream in enumerate(streams):
            raw = stream.rng(k + j).bit_generator.random_raw(10)
            assert raw.tobytes() == words[j, r].tobytes()


@pytest.mark.parametrize("n", [2, 5])
def test_block_normals_match_numpy(n, monkeypatch):
    # Every (iteration, row) against a fresh generator, through blocks of
    # 7 iterations and a partial last one.  Rows with a word off the fast
    # path are reset and drawn by numpy, and only those.
    streams = [OracleStream(2, r) for r in range(6)]
    calls = []
    reset = OracleStream.rng_shared

    def counted(stream, k):
        calls.append((k, stream.replication))
        return reset(stream, k)

    monkeypatch.setattr(OracleStream, "rng_shared", counted)
    rows, horizon = StreamRows(streams, n, 40, 7), 40
    slow = []
    for k in range(horizon):
        out = rows.at(k).block_normals()
        assert out.shape == (6, n)
        for r, stream in enumerate(streams):
            want = stream.rng(k).standard_normal(n)
            assert out[r].tobytes() == want.tobytes(), (k, r)
            words = stream.rng(k).bit_generator.random_raw(n)
            if not _philox.fast_normals(words)[1].all():
                slow.append((k, r))
    assert calls == slow
    assert 0 < len(slow) < 6 * horizon // 4


@pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
def test_draw_from_stream_rows_matches_fresh_generators(kind):
    # The engine's rngs against one fresh generator per row, for every
    # kind: the Gaussian-type models take block normals, the others draw
    # per row.
    model = EVERY_KIND[kind]
    obj = make_test_problem("finite_sum_logistic", 4, 0).objective
    reps = 6
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (reps, 4))
    streams = [OracleStream(11, r) for r in range(reps)]
    rows = StreamRows(streams, 4, 30, 8)
    for k in range(30):
        block = draw(obj, x, model, rows.at(k))
        fresh = draw(obj, x, model, [s.rng(k) for s in streams])
        assert block.g.tobytes() == fresh.g.tobytes()


def test_block_path_scope():
    # Where it measured faster: at most 16 normals a row, at any row count.
    lone = OracleStream(4, 0)
    out = StreamRows([lone], 2, 10, 10).at(3).block_normals()
    assert out.shape == (1, 2)
    assert out[0].tobytes() == lone.rng(3).standard_normal(2).tobytes()
    streams = [OracleStream(4, r) for r in range(20)]
    assert StreamRows(streams, 17, 10, 10).at(0).block_normals() is None


def test_block_normals_are_read_only():
    # The block is read in place: a model that scaled or shifted the view
    # it got, rather than its own output, would change the second draw at
    # the same iteration.
    models = [Gaussian(0.1), AffineGaussian(0.01, 0.05),
              ConstantBias(np.full(4, 0.03), Gaussian(0.05))]
    obj = make_test_problem("boxed_quadratic", 4, 0).objective
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 4))
    rows = StreamRows([OracleStream(8, r) for r in range(3)], 4, 20, 8)
    for k in (0, 7, 19):
        assert rows.at(k).block_normals() is not None
        for model in models:
            first = draw(obj, x, model, rows.at(k)).g
            again = draw(obj, x, model, rows.at(k)).g
            assert first.tobytes() == again.tobytes(), (k, model)
