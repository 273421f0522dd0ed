"""Reference numpy implementations of the kernel ops.

These bodies are the exact numpy expressions the quantization and
fault-injection code paths used before the kernel layer existed — they
*define* the numerical contract every other backend must reproduce
bit-for-bit (see ``tests/test_kernels.py``).

All ops take primitive scalars (``inv_scale``, ``min_raw``, ...) instead of
a :class:`~repro.quant.qformat.QFormat` so the kernel layer never imports
the quantization package (which imports this layer).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import OP_CLEAR, OP_FLIP, OP_SET

name = "numpy"


# --------------------------------------------------------------------------- #
# Elementwise quantization
# --------------------------------------------------------------------------- #
def _saturated_words(values, inv_scale, min_raw, max_raw):
    """Round half to even, then saturate to ``[min_raw, max_raw]``.

    The clip runs in the float domain before the int64 cast: numpy casts
    infinities and magnitudes of ``2**63`` or more to ``INT64_MIN``, which
    would saturate ``+inf`` to ``min_raw``.  NaN survives the float clip and
    still casts to ``INT64_MIN``; the integer clip maps it to ``min_raw``
    (and absorbs the rounding of ``float(max_raw)`` for words over 53 bits).
    """
    raw = np.rint(values * inv_scale)
    raw = np.minimum(np.maximum(raw, float(min_raw)), float(max_raw)).astype(np.int64)
    return np.minimum(np.maximum(raw, min_raw), max_raw)


def quantize(values, inv_scale, scale, min_raw, max_raw):
    """Round-to-nearest-even fixed-point quantization with saturation."""
    return _saturated_words(values, inv_scale, min_raw, max_raw).astype(np.float64) * scale


def encode(values, inv_scale, min_raw, max_raw, word_mask):
    """Quantize and mask to the two's-complement word bits."""
    return _saturated_words(values, inv_scale, min_raw, max_raw) & word_mask


def decode(raw, word_mask, sign_bit, modulus, scale):
    """Decode two's-complement words back to real values."""
    raw = raw & word_mask
    if sign_bit:
        signed = np.where(raw & sign_bit, raw - modulus, raw)
    else:
        signed = raw
    return signed.astype(np.float64) * scale


# --------------------------------------------------------------------------- #
# Bit injection
# --------------------------------------------------------------------------- #
def scatter_bits(flat, elements, bits, op_code):
    """Apply one bit operation to ``flat`` in place at the addressed sites.

    ``np.bitwise_*.at`` handles repeated element indices correctly (each
    occurrence applies), matching the serial per-site loop of the compiled
    backends.
    """
    masks = np.int64(1) << bits
    if op_code == OP_FLIP:
        np.bitwise_xor.at(flat, elements, masks)
    elif op_code == OP_SET:
        np.bitwise_or.at(flat, elements, masks)
    elif op_code == OP_CLEAR:
        np.bitwise_and.at(flat, elements, ~masks)
    else:  # pragma: no cover - guarded by the dispatch layer's callers
        raise ValueError(f"unknown bit op code {op_code!r}")


def inject_sites(flat, elements, bits, op_codes):
    """Apply mixed flip/set/clear operations to ``flat`` in place.

    Sites carrying *different* op codes must be distinct (guaranteed by
    :func:`repro.core.sites.apply_patterns_stacked`, where each replica's
    pattern addresses a disjoint flat range); repeated sites within one op
    kind behave like repeated ``scatter_bits`` applications.
    """
    for op_code in (OP_FLIP, OP_SET, OP_CLEAR):
        mask = op_codes == op_code
        if mask.any():
            scatter_bits(flat, elements[mask], bits[mask], op_code)


# --------------------------------------------------------------------------- #
# Fused quantized-forward ops
# --------------------------------------------------------------------------- #
def matmul_bias_quantize(x, w, b, inv_scale, scale, min_raw, max_raw):
    """Per-replica ``quantize(x @ w + b)`` for stacked weights.

    Shapes: ``x (R, rows, in)``, ``w (R, in, out)``, ``b (R, out)``.
    """
    return quantize(np.matmul(x, w) + b[:, None, :], inv_scale, scale, min_raw, max_raw)


def bias_quantize(y, bias, inv_scale, scale, min_raw, max_raw):
    """``quantize(y + bias)`` with a shared trailing-axis bias."""
    return quantize(y + bias, inv_scale, scale, min_raw, max_raw)


def bias_quantize_stacked(y, bias, inv_scale, scale, min_raw, max_raw):
    """``quantize(y + bias)`` with a per-replica ``(R, out)`` bias stack."""
    return quantize(y + bias[:, None, :], inv_scale, scale, min_raw, max_raw)


def relu_quantize(values, inv_scale, scale, min_raw, max_raw):
    """``quantize(relu(values))`` (NaN propagates, like ``np.maximum``)."""
    return quantize(np.maximum(values, 0.0), inv_scale, scale, min_raw, max_raw)
