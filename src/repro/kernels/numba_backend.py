"""Numba JIT implementations of the kernel ops.

Importing this module requires numba (an optional extra); the dispatch
package only imports it when the ``numba`` backend is selected, and falls
back to the numpy reference with a warning when the import fails.

Bit-identity notes — every kernel must reproduce the numpy reference
(:mod:`repro.kernels.numpy_backend`) bit-for-bit:

* ``float64 -> int64`` casts: the numpy reference clips in the float
  domain before casting, so only NaN reaches its cast, which yields
  ``INT64_MIN`` (x86 ``cvttsd2si`` semantics) and is then clamped to
  ``min_raw``.  LLVM's ``fptosi`` — what a bare numba cast compiles to — is
  *undefined* for NaN, so ``_quantize_raw`` branches to the ``INT64_MIN``
  sentinel explicitly and mirrors the float clip, matching numpy on every
  input including non-finite ones.
* ``np.rint`` is round-half-even in both numpy and numba.
* The fused matmul accumulates in a plain loop, which is only bit-identical
  to BLAS when every partial sum is exact; callers gate it behind
  :meth:`repro.quant.qformat.QFormat.supports_exact_matmul` (quantized
  operands are multiples of ``2**-fraction_bits`` whose products and sums
  stay inside float64's exact window), and use the ``np.matmul`` +
  ``bias_quantize_stacked`` tail otherwise.
* The injection kernels are serial on purpose: repeated element indices are
  read-modify-write dependent, so a parallel loop would race.
* ``relu`` uses ``if v < 0.0`` so NaN propagates exactly like
  ``np.maximum(x, 0.0)``.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.kernels.common import OP_FLIP, OP_SET

name = "numba"

#: What numpy's float64 -> int64 cast yields for NaN.
_I64_MIN = -9223372036854775808


@njit(cache=True)
def _quantize_raw(value, inv_scale, min_raw, max_raw):
    t = np.rint(value * inv_scale)
    if np.isnan(t):
        r = _I64_MIN
    else:
        lo = np.float64(min_raw)
        hi = np.float64(max_raw)
        if t < lo:
            t = lo
        if t > hi:
            t = hi
        r = np.int64(t)
    if r < min_raw:
        r = min_raw
    if r > max_raw:
        r = max_raw
    return r


# --------------------------------------------------------------------------- #
# Elementwise quantization
# --------------------------------------------------------------------------- #
@njit(cache=True)
def _quantize_flat(values, inv_scale, scale, min_raw, max_raw):
    out = np.empty(values.size, dtype=np.float64)
    for i in range(values.size):
        out[i] = _quantize_raw(values[i], inv_scale, min_raw, max_raw) * scale
    return out


@njit(cache=True)
def _encode_flat(values, inv_scale, min_raw, max_raw, word_mask):
    out = np.empty(values.size, dtype=np.int64)
    for i in range(values.size):
        out[i] = _quantize_raw(values[i], inv_scale, min_raw, max_raw) & word_mask
    return out


@njit(cache=True)
def _decode_flat(raw, word_mask, sign_bit, modulus, scale):
    out = np.empty(raw.size, dtype=np.float64)
    for i in range(raw.size):
        r = raw[i] & word_mask
        if sign_bit != 0 and (r & sign_bit) != 0:
            r = r - modulus
        out[i] = r * scale
    return out


def quantize(values, inv_scale, scale, min_raw, max_raw):
    arr = np.ascontiguousarray(values, dtype=np.float64)
    out = _quantize_flat(
        arr.reshape(-1), float(inv_scale), float(scale), np.int64(min_raw), np.int64(max_raw)
    )
    return out.reshape(arr.shape)


def encode(values, inv_scale, min_raw, max_raw, word_mask):
    arr = np.ascontiguousarray(values, dtype=np.float64)
    out = _encode_flat(
        arr.reshape(-1),
        float(inv_scale),
        np.int64(min_raw),
        np.int64(max_raw),
        np.int64(word_mask),
    )
    return out.reshape(arr.shape)


def decode(raw, word_mask, sign_bit, modulus, scale):
    arr = np.ascontiguousarray(raw, dtype=np.int64)
    out = _decode_flat(
        arr.reshape(-1),
        np.int64(word_mask),
        np.int64(sign_bit),
        np.int64(modulus),
        float(scale),
    )
    return out.reshape(arr.shape)


# --------------------------------------------------------------------------- #
# Bit injection (serial: repeated sites are read-modify-write dependent)
# --------------------------------------------------------------------------- #
@njit(cache=True)
def _scatter_flat(flat, elements, bits, op_code):
    one = np.int64(1)
    for i in range(elements.size):
        e = elements[i]
        mask = one << bits[i]
        if op_code == OP_FLIP:
            flat[e] = flat[e] ^ mask
        elif op_code == OP_SET:
            flat[e] = flat[e] | mask
        else:
            flat[e] = flat[e] & ~mask


@njit(cache=True)
def _inject_flat(flat, elements, bits, op_codes):
    one = np.int64(1)
    for i in range(elements.size):
        e = elements[i]
        mask = one << bits[i]
        code = op_codes[i]
        if code == OP_FLIP:
            flat[e] = flat[e] ^ mask
        elif code == OP_SET:
            flat[e] = flat[e] | mask
        else:
            flat[e] = flat[e] & ~mask


def scatter_bits(flat, elements, bits, op_code):
    _scatter_flat(
        flat,
        np.ascontiguousarray(elements, dtype=np.int64),
        np.ascontiguousarray(bits, dtype=np.int64),
        np.int64(op_code),
    )


def inject_sites(flat, elements, bits, op_codes):
    _inject_flat(
        flat,
        np.ascontiguousarray(elements, dtype=np.int64),
        np.ascontiguousarray(bits, dtype=np.int64),
        np.ascontiguousarray(op_codes, dtype=np.int64),
    )


# --------------------------------------------------------------------------- #
# Fused quantized-forward ops
# --------------------------------------------------------------------------- #
@njit(cache=True)
def _matmul_bias_quantize(x, w, b, inv_scale, scale, min_raw, max_raw):
    reps, rows, in_features = x.shape
    out_features = w.shape[2]
    out = np.empty((reps, rows, out_features), dtype=np.float64)
    for rep in range(reps):
        for row in range(rows):
            acc = np.zeros(out_features, dtype=np.float64)
            for k in range(in_features):
                xv = x[rep, row, k]
                for o in range(out_features):
                    acc[o] += xv * w[rep, k, o]
            for o in range(out_features):
                out[rep, row, o] = (
                    _quantize_raw(acc[o] + b[rep, o], inv_scale, min_raw, max_raw) * scale
                )
    return out


@njit(cache=True)
def _bias_quantize_shared(y, bias, inv_scale, scale, min_raw, max_raw):
    n, out_features = y.shape
    out = np.empty((n, out_features), dtype=np.float64)
    for i in range(n):
        for o in range(out_features):
            out[i, o] = (
                _quantize_raw(y[i, o] + bias[o], inv_scale, min_raw, max_raw) * scale
            )
    return out


@njit(cache=True)
def _bias_quantize_stacked(y, bias, inv_scale, scale, min_raw, max_raw):
    reps, rows, out_features = y.shape
    out = np.empty((reps, rows, out_features), dtype=np.float64)
    for rep in range(reps):
        for row in range(rows):
            for o in range(out_features):
                out[rep, row, o] = (
                    _quantize_raw(y[rep, row, o] + bias[rep, o], inv_scale, min_raw, max_raw)
                    * scale
                )
    return out


@njit(cache=True)
def _relu_quantize_flat(values, inv_scale, scale, min_raw, max_raw):
    out = np.empty(values.size, dtype=np.float64)
    for i in range(values.size):
        v = values[i]
        if v < 0.0:
            v = 0.0
        out[i] = _quantize_raw(v, inv_scale, min_raw, max_raw) * scale
    return out


def matmul_bias_quantize(x, w, b, inv_scale, scale, min_raw, max_raw):
    return _matmul_bias_quantize(
        np.ascontiguousarray(x, dtype=np.float64),
        np.ascontiguousarray(w, dtype=np.float64),
        np.ascontiguousarray(b, dtype=np.float64),
        float(inv_scale),
        float(scale),
        np.int64(min_raw),
        np.int64(max_raw),
    )


def bias_quantize(y, bias, inv_scale, scale, min_raw, max_raw):
    arr = np.ascontiguousarray(y, dtype=np.float64)
    bias = np.ascontiguousarray(bias, dtype=np.float64)
    out = _bias_quantize_shared(
        arr.reshape(-1, bias.size),
        bias,
        float(inv_scale),
        float(scale),
        np.int64(min_raw),
        np.int64(max_raw),
    )
    return out.reshape(arr.shape)


def bias_quantize_stacked(y, bias, inv_scale, scale, min_raw, max_raw):
    return _bias_quantize_stacked(
        np.ascontiguousarray(y, dtype=np.float64),
        np.ascontiguousarray(bias, dtype=np.float64),
        float(inv_scale),
        float(scale),
        np.int64(min_raw),
        np.int64(max_raw),
    )


def relu_quantize(values, inv_scale, scale, min_raw, max_raw):
    arr = np.ascontiguousarray(values, dtype=np.float64)
    out = _relu_quantize_flat(
        arr.reshape(-1), float(inv_scale), float(scale), np.int64(min_raw), np.int64(max_raw)
    )
    return out.reshape(arr.shape)
