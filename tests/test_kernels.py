"""Differential tests for the :mod:`repro.kernels` backend layer.

The kernel backends promise *bit identity*: for every op, every qformat and
every fault configuration, the numba JIT backend must produce byte-for-byte
the arrays the numpy reference backend produces.  This suite proves it
differentially — op level, executor level (every fault model of
``test_batched_parity`` at B in {1, 3, 8}), activation-hook path and one
``api.run`` end to end — and pins the registry semantics (env resolution,
explicit selection, graceful numpy fallback, scoped restore, counters).

On hosts without numba the numba half is skipped and the registry tests
assert the fallback path instead, so numpy-only environments still execute
every dispatch code path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The module's autouse backend-restore fixture is intentionally per-test,
# not per-example: backend selection is process-global state that the
# examples themselves never mutate.
_EDGE_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

from repro import kernels
from repro.core import BatchedEvaluator, StuckAtFault, TransientBitFlip
from repro.kernels import OP_CLEAR, OP_FLIP, OP_SET
from repro.nn.buffers import QuantizedExecutor
from repro.policies import build_grid_q_network
from repro.quant import Q8_GRID, Q16_MID, Q16_NARROW, Q16_WIDE
from repro.quant.qformat import QFormat

QFORMATS = [Q8_GRID, Q16_NARROW, Q16_MID, Q16_WIDE]
QFORMAT_IDS = ["q8_grid", "q16_narrow", "q16_mid", "q16_wide"]

ALL_MODELS = [
    TransientBitFlip(0.05),
    StuckAtFault(0.05, stuck_value=0),
    StuckAtFault(0.05, stuck_value=1),
]
MODEL_IDS = ["transient", "sa0", "sa1"]

needs_numba = pytest.mark.skipif(
    not kernels.numba_available(), reason="numba is not installed"
)
numpy_only = pytest.mark.skipif(
    kernels.numba_available(), reason="covers the no-numba fallback path"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-global backend selection untouched by each test."""
    yield
    kernels.reset_backend()


def both_backends(fn):
    """Evaluate ``fn`` under the numpy and numba backends; return both results."""
    with kernels.use_backend("numpy"):
        reference = fn()
    with kernels.use_backend("numba"):
        jit = fn()
    return reference, jit


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_validate_normalizes(self):
        assert kernels.validate_backend_name(" NumPy ") == "numpy"
        assert kernels.validate_backend_name("AUTO") == "auto"

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.validate_backend_name("cuda")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV_VAR, "numpy")
        kernels.reset_backend()
        assert kernels.default_backend_name() == "numpy"
        assert kernels.resolve_backend_name() == "numpy"
        assert kernels.active_backend_name() == "numpy"

    def test_env_var_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.default_backend_name()

    def test_auto_resolves_to_available_backend(self):
        resolved = kernels.resolve_backend_name("auto")
        assert resolved == ("numba" if kernels.numba_available() else "numpy")

    def test_set_backend_numpy(self):
        assert kernels.set_backend("numpy") == "numpy"
        assert kernels.active_backend_name() == "numpy"

    @numpy_only
    def test_explicit_numba_falls_back_with_warning(self):
        kernels._warned_numba_fallback = False
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernels.set_backend("numba") == "numpy"
        # The warning is one-time per process.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert kernels.set_backend("numba") == "numpy"

    @needs_numba
    def test_explicit_numba_activates(self):
        assert kernels.set_backend("numba") == "numba"
        assert kernels.active_backend_name() == "numba"

    def test_use_backend_restores_previous(self):
        kernels.set_backend("numpy")
        with kernels.use_backend("numpy") as active:
            assert active == "numpy"
        assert kernels.active_backend_name() == "numpy"

    def test_use_backend_restores_unresolved_default(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV_VAR, "numpy")
        kernels.reset_backend()
        with kernels.use_backend("numpy"):
            pass
        assert kernels.active_backend_name() == "numpy"

    def test_dispatch_increments_counters(self):
        kernels.set_backend("numpy")
        before = kernels.counters_snapshot().get("quantize", 0)
        kernels.quantize(np.array([0.5]), 16.0, 0.0625, np.int64(-128), np.int64(127))
        after = kernels.counters_snapshot().get("quantize", 0)
        assert after == before + 1

    def test_warm_up_returns_active_backend(self):
        kernels.set_backend("numpy")
        assert kernels.warm_up() == "numpy"


# --------------------------------------------------------------------------- #
# Numpy reference backend vs. the legacy inline formulas
# --------------------------------------------------------------------------- #
def _special_values():
    return np.array(
        [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, np.inf, -np.inf, np.nan, 2.0**60],
        dtype=np.float64,
    )


class TestNumpyReference:
    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_quantize_matches_inline_formula(self, rng, qf):
        values = np.concatenate(
            [rng.normal(0, qf.max_value, size=64), _special_values()]
        )
        # NaN exercises the invalid-cast path on both sides; silence numpy's
        # warning about it (the *values* are the contract).  The formula
        # clips in the float domain first, so +inf and magnitudes past the
        # int64 range saturate high instead of wrapping to INT64_MIN.
        with kernels.use_backend("numpy"), np.errstate(invalid="ignore"):
            out = qf.quantize(values)
        with np.errstate(invalid="ignore"):
            scaled = np.rint(values * (2.0**qf.fraction_bits))
            scaled = np.clip(scaled, float(qf.min_raw), float(qf.max_raw))
            raw = scaled.astype(np.int64)
        raw = np.minimum(np.maximum(raw, np.int64(qf.min_raw)), np.int64(qf.max_raw))
        expected = raw.astype(np.float64) * (2.0**-qf.fraction_bits)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_encode_decode_roundtrip(self, rng, qf):
        values = rng.normal(0, qf.max_value, size=128)
        with kernels.use_backend("numpy"):
            raw = qf.encode(values)
            decoded = qf.decode(raw)
            assert np.array_equal(decoded, qf.quantize(values))

    def test_fused_matmul_equals_unfused(self, rng):
        qf = Q16_NARROW
        x = qf.quantize(rng.normal(size=(3, 2, 6)))
        w = qf.quantize(rng.normal(size=(3, 6, 4)))
        b = qf.quantize(rng.normal(size=(3, 4)))
        assert qf.supports_exact_matmul(6)
        with kernels.use_backend("numpy"):
            fused = qf.matmul_bias_quantize(x, w, b)
            unfused = qf.quantize(np.matmul(x, w) + b[:, None, :])
        assert np.array_equal(fused, unfused)

    def test_relu_quantize_keeps_nan_behaviour(self):
        values = np.array([-1.0, 0.0, 2.5, np.nan, -np.inf, np.inf])
        qf = Q8_GRID
        # NaN deliberately exercises the historical invalid-cast behaviour;
        # silence numpy's warning about it (the *values* are the contract).
        with kernels.use_backend("numpy"), np.errstate(invalid="ignore"):
            fused = qf.relu_quantize(values)
            unfused = qf.quantize(np.maximum(values, 0.0))
        assert np.array_equal(fused, unfused)


# --------------------------------------------------------------------------- #
# Numba differential: op level
# --------------------------------------------------------------------------- #
@needs_numba
class TestNumbaOpParity:
    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_quantize_encode_decode(self, rng, qf):
        values = np.concatenate(
            [
                rng.normal(0, qf.max_value, size=256),
                rng.normal(0, 10 * qf.max_value, size=64),
                _special_values(),
            ]
        ).reshape(2, -1)

        ref, jit = both_backends(lambda: qf.quantize(values))
        assert np.array_equal(ref, jit)

        ref, jit = both_backends(lambda: qf.encode(values))
        assert np.array_equal(ref, jit)
        raw = ref

        ref, jit = both_backends(lambda: qf.decode(raw))
        assert np.array_equal(ref, jit)

    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    def test_fused_forward_ops(self, rng, qf):
        x = qf.quantize(rng.normal(size=(3, 2, 6)))
        w = qf.quantize(rng.normal(size=(3, 6, 4)))
        b = qf.quantize(rng.normal(size=(3, 4)))
        y = rng.normal(size=(3, 2, 4))

        if qf.supports_exact_matmul(6):
            ref, jit = both_backends(lambda: qf.matmul_bias_quantize(x, w, b))
            assert np.array_equal(ref, jit)
        ref, jit = both_backends(lambda: qf.bias_quantize_stacked(y, b))
        assert np.array_equal(ref, jit)
        ref, jit = both_backends(lambda: qf.bias_quantize(y, b[0]))
        assert np.array_equal(ref, jit)
        ref, jit = both_backends(
            lambda: qf.relu_quantize(np.concatenate([y.ravel(), _special_values()]))
        )
        assert np.array_equal(ref, jit)

    @pytest.mark.parametrize("op_code", [OP_FLIP, OP_SET, OP_CLEAR])
    def test_scatter_with_repeated_sites(self, rng, op_code):
        raw = rng.integers(0, 1 << 16, size=64).astype(np.int64)
        # Repeated sites exercise the read-modify-write ordering contract.
        elements = rng.integers(0, 64, size=40).astype(np.int64)
        elements[::4] = elements[0]
        bits = rng.integers(0, 16, size=40).astype(np.int64)

        def run():
            out = raw.copy()
            kernels.scatter_bits(out, elements, bits, op_code)
            return out

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)

    def test_inject_sites_mixed_kinds(self, rng):
        raw = rng.integers(0, 1 << 16, size=128).astype(np.int64)
        # Distinct sites across op kinds (the fused-injection contract);
        # within a kind repeats are allowed and exercised for OP_FLIP.
        flat = rng.choice(128 * 16, size=60, replace=False).astype(np.int64)
        elements, bits = flat // 16, flat % 16
        ops = np.concatenate(
            [
                np.full(20, OP_FLIP, dtype=np.int64),
                np.full(20, OP_SET, dtype=np.int64),
                np.full(20, OP_CLEAR, dtype=np.int64),
            ]
        )

        def run():
            out = raw.copy()
            kernels.inject_sites(out, elements, bits, ops)
            return out

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)


# --------------------------------------------------------------------------- #
# Numba differential: executor level, every fault configuration
# --------------------------------------------------------------------------- #
@needs_numba
class TestNumbaExecutorParity:
    @pytest.mark.parametrize("qf", QFORMATS, ids=QFORMAT_IDS)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    def test_inject_and_forward(self, rng, qf, model, replicas):
        net = build_grid_q_network(20, 4, hidden_sizes=(12,), rng=rng)
        x = np.stack([np.eye(20)[r % 20][None] for r in range(replicas)])

        def run():
            evaluator = BatchedEvaluator(net, qf, replicas)
            evaluator.inject_weight_faults(
                model, [np.random.default_rng(50 + r) for r in range(replicas)]
            )
            return evaluator.forward(x)

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)

    def test_activation_hook_path(self, rng):
        # With activation hooks installed the executor takes the legacy
        # hook-based forward; both backends must agree there too.
        from repro.nn.buffers import BatchedQuantizedExecutor

        net = build_grid_q_network(15, 3, hidden_sizes=(8,), rng=rng)
        replicas = 4
        x = np.stack([np.eye(15)[r][None] for r in range(replicas)])
        model = TransientBitFlip(0.02)

        def run():
            hook_rng = np.random.default_rng(9)
            executor = BatchedQuantizedExecutor(
                net,
                Q16_NARROW,
                replicas,
                activation_hooks=[lambda tensor, layer: model.inject(tensor, hook_rng)],
            )
            return executor.forward(x)

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)

    def test_scalar_executor_matches_across_backends(self, rng):
        net = build_grid_q_network(15, 3, hidden_sizes=(8,), rng=rng)
        x = np.eye(15)[2][None]

        def run():
            executor = QuantizedExecutor(net, Q8_GRID)
            trial_rng = np.random.default_rng(4)
            executor.apply_weight_faults(
                lambda name, tensor: ALL_MODELS[0].inject(tensor, trial_rng)
            )
            out = executor.forward(x)
            executor.restore_clean_weights()
            return out

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)

    def test_api_run_end_to_end(self):
        from repro import api

        def run():
            artifact = api.run(
                "fig5.inference",
                params={"approach": "nn", "fast": True},
                execution=api.ExecutionConfig(seed=3, repetitions=2, batch_size=4),
            )
            return artifact.result.rows

        ref, jit = both_backends(run)
        assert ref == jit


# --------------------------------------------------------------------------- #
# Edge properties at the int64 word boundaries (satellite: property tests)
# --------------------------------------------------------------------------- #
WIDE = QFormat(1, 30, 31)  # 62-bit words: bit 61 is the sign bit


def _scatter_both(raw, elements, bits, op_code):
    def run():
        out = raw.copy()
        kernels.scatter_bits(out, elements, bits, op_code)
        return out

    if kernels.numba_available():
        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)
        return ref
    with kernels.use_backend("numpy"):
        return run()


class TestWordEdgeProperties:
    @_EDGE_SETTINGS
    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=1, max_size=8
        ),
        op=st.sampled_from([OP_FLIP, OP_SET, OP_CLEAR]),
    )
    def test_sign_bit_of_wide_words(self, words, op):
        raw = np.array(words, dtype=np.int64)
        elements = np.arange(len(words), dtype=np.int64)
        bits = np.full(len(words), WIDE.total_bits - 1, dtype=np.int64)
        out = _scatter_both(raw, elements, bits, op)
        observed = (out >> (WIDE.total_bits - 1)) & 1
        if op == OP_SET:
            assert np.all(observed == 1)
        elif op == OP_CLEAR:
            assert np.all(observed == 0)
        else:
            assert np.array_equal(observed, 1 - ((raw >> (WIDE.total_bits - 1)) & 1))

    @_EDGE_SETTINGS
    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=1, max_size=8
        ),
        op=st.sampled_from([OP_FLIP, OP_SET, OP_CLEAR]),
    )
    def test_bit_zero(self, words, op):
        raw = np.array(words, dtype=np.int64)
        elements = np.arange(len(words), dtype=np.int64)
        bits = np.zeros(len(words), dtype=np.int64)
        out = _scatter_both(raw, elements, bits, op)
        # Only bit 0 may differ.
        assert np.array_equal(out >> 1, raw >> 1)

    def test_all_sites_all_bits(self, rng):
        raw = rng.integers(0, 1 << 16, size=8).astype(np.int64)
        elements = np.repeat(np.arange(8, dtype=np.int64), 16)
        bits = np.tile(np.arange(16, dtype=np.int64), 8)
        out = _scatter_both(raw, elements, bits, OP_FLIP)
        assert np.array_equal(out, raw ^ ((1 << 16) - 1))
        out = _scatter_both(raw, elements, bits, OP_SET)
        assert np.all(out == (1 << 16) - 1)
        out = _scatter_both(raw, elements, bits, OP_CLEAR)
        assert np.all(out == 0)

    def test_empty_pattern_is_identity(self):
        raw = np.arange(6, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        out = _scatter_both(raw, empty, empty, OP_FLIP)
        assert np.array_equal(out, raw)

    @needs_numba
    def test_single_replica_pattern(self, rng):
        # B=1 end to end through the stacked-pattern fusion.
        from repro.core.sites import apply_patterns_stacked
        from repro.quant import QTensor

        values = rng.normal(0, 0.5, size=(4, 5))

        def run():
            unit = QTensor(values, Q16_NARROW, name="buf")
            pattern = ALL_MODELS[0].sample_pattern(unit, np.random.default_rng(11))
            stacked = unit.replicate(1)
            apply_patterns_stacked([pattern], stacked)
            return stacked.raw.copy()

        ref, jit = both_backends(run)
        assert np.array_equal(ref, jit)

    @needs_numba
    @_EDGE_SETTINGS
    @given(
        values=st.lists(
            st.floats(
                min_value=-16.0, max_value=16.0, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_quantize_property_wide_format(self, values):
        arr = np.array(values, dtype=np.float64)
        ref, jit = both_backends(lambda: WIDE.quantize(arr))
        assert np.array_equal(ref, jit)
