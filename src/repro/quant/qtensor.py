"""Quantized tensors with a synchronized bit-level view.

A :class:`QTensor` keeps a real-valued numpy array together with its raw
two's-complement integer representation under a given
:class:`~repro.quant.qformat.QFormat`.  Fault injectors mutate the raw view
(bit flips, stuck-at patterns); consumers read the decoded value view.  The
two views are kept consistent: writing values re-encodes the raw words,
mutating raw words re-decodes the values.  Hot readers use the cached,
read-only :meth:`QTensor.decoded_view`, which every raw-word mutator drops
and :meth:`QTensor.set_element` updates in place.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.quant.bitops import (
    apply_bit_ops,
    apply_stuck_at,
    flip_bits,
    random_bit_positions,
)
from repro.quant.qformat import QFormat

__all__ = ["QTensor"]


class QTensor:
    """A fixed-point tensor addressable both by value and by bit.

    Parameters
    ----------
    values:
        Real-valued data to quantize into the tensor.
    qformat:
        The fixed-point format.
    name:
        Optional buffer name (e.g. ``"weight"``, ``"activation"``) used by
        the fault-injection framework to address fault locations.
    """

    def __init__(self, values: np.ndarray, qformat: QFormat, name: str = "") -> None:
        self.qformat = qformat
        self.name = name
        values = np.asarray(values, dtype=np.float64)
        self._shape = values.shape
        self._size = math.prod(self._shape)
        self._set_raw(qformat.encode(values))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_raw(cls, raw: np.ndarray, qformat: QFormat, name: str = "") -> "QTensor":
        """Build a QTensor directly from raw two's-complement words."""
        obj = cls.__new__(cls)
        obj.qformat = qformat
        obj.name = name
        raw = np.asarray(raw, dtype=np.int64) & qformat.word_mask
        obj._shape = raw.shape
        obj._size = math.prod(obj._shape)
        obj._set_raw(raw)
        return obj

    def _set_raw(self, raw: np.ndarray) -> None:
        """Install new raw words, dropping the decoded view of the old ones."""
        self._raw = raw
        self._decoded: Optional[np.ndarray] = None
        self._view: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # A pickled view and its base unpickle as two unrelated arrays, so
        # set_element would stop updating the view: rebuild it on first use.
        state = self.__dict__.copy()
        state["_decoded"] = state["_view"] = None
        return state

    @classmethod
    def zeros(cls, shape: Tuple[int, ...], qformat: QFormat, name: str = "") -> "QTensor":
        """Create an all-zero QTensor with the given shape."""
        return cls(np.zeros(shape, dtype=np.float64), qformat, name=name)

    def copy(self) -> "QTensor":
        """Deep copy of the tensor (raw words copied)."""
        return QTensor.from_raw(self._raw.copy(), self.qformat, name=self.name)

    def replicate(self, n_replicas: int) -> "QTensor":
        """Stack ``n_replicas`` copies along a new leading replica axis.

        The raw words are tiled, so every replica slice is bit-identical to
        this tensor — the starting point for batched fault injection, where
        each replica's bits are then corrupted independently (see
        :func:`repro.core.sites.apply_patterns_stacked`).
        """
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        raw = np.broadcast_to(self._raw, (n_replicas,) + self._shape).copy()
        return QTensor.from_raw(raw, self.qformat, name=self.name)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        """Decoded real-valued view (a fresh array each call)."""
        return self.qformat.decode(self._raw)

    def decoded_view(self) -> np.ndarray:
        """Decoded real-valued view, cached and read-only.

        Built on first use and kept until a mutator rewrites the raw words
        (the ``values``/``raw`` setters and the ``inject_*`` methods drop
        it; :meth:`set_element` updates it in place).  Writing into it
        raises; use :attr:`values` for a writable copy.
        """
        if self._view is None:
            self._decoded = self.qformat.decode(self._raw)
            self._view = self._decoded.view()
            self._view.flags.writeable = False
        return self._view

    def set_element(self, index, value: float) -> None:
        """Quantize one scalar into element ``index``.

        The word is exactly the one ``qformat.encode`` gives (round half to
        even, saturate, mask; see :meth:`QFormat.saturate_scalar
        <repro.quant.qformat.QFormat.saturate_scalar>`).  The raw word and
        the cached decoded view, if built, are updated in place.
        """
        fmt = self.qformat
        word = fmt.saturate_scalar(value)
        self._raw[index] = word & fmt._word_mask_int
        if self._decoded is not None:
            self._decoded[index] = word * fmt._scale

    @values.setter
    def values(self, new_values: np.ndarray) -> None:
        new_values = np.asarray(new_values, dtype=np.float64)
        if new_values.shape != self._shape:
            raise ValueError(
                f"shape mismatch: tensor is {self._shape}, got {new_values.shape}"
            )
        self._set_raw(self.qformat.encode(new_values))

    @property
    def raw(self) -> np.ndarray:
        """Raw two's-complement word view (a copy; use setters to mutate)."""
        return self._raw.copy()

    @raw.setter
    def raw(self, new_raw: np.ndarray) -> None:
        new_raw = np.asarray(new_raw, dtype=np.int64)
        if new_raw.shape != self._shape:
            raise ValueError(
                f"shape mismatch: tensor is {self._shape}, got {new_raw.shape}"
            )
        self._set_raw(new_raw & self.qformat.word_mask)

    # ------------------------------------------------------------------ #
    # Fault primitives
    # ------------------------------------------------------------------ #
    def inject_bit_flips(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
    ) -> None:
        """Flip the addressed bits in place (transient fault)."""
        self._set_raw(
            flip_bits(self._raw, element_indices, bit_positions, self.qformat.total_bits)
        )

    def inject_stuck_at(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
        stuck_value: int,
    ) -> None:
        """Force the addressed bits to 0 or 1 in place (permanent fault)."""
        self._set_raw(
            apply_stuck_at(
                self._raw,
                element_indices,
                bit_positions,
                stuck_value,
                self.qformat.total_bits,
            )
        )

    def inject_bit_ops(
        self,
        element_indices: np.ndarray,
        bit_positions: np.ndarray,
        op_codes: np.ndarray,
    ) -> None:
        """Apply mixed flip/set/clear operations in one fused pass.

        ``op_codes`` uses the :data:`~repro.quant.bitops.OP_FLIP` /
        ``OP_SET`` / ``OP_CLEAR`` codes; sites carrying different codes must
        be distinct (see :func:`~repro.quant.bitops.apply_bit_ops`).  This is
        the batched engine's single-copy injection primitive.
        """
        self._set_raw(
            apply_bit_ops(
                self._raw,
                element_indices,
                bit_positions,
                op_codes,
                self.qformat.total_bits,
            )
        )

    def inject_random_bit_flips(
        self, bit_error_rate: float, rng: np.random.Generator
    ) -> int:
        """Flip a random set of bits at the given BER.  Returns the flip count."""
        elements, bits = random_bit_positions(
            self.size, self.qformat.total_bits, bit_error_rate, rng
        )
        if elements.size:
            self.inject_bit_flips(elements, bits)
        return int(elements.size)

    def sample_fault_sites(
        self, bit_error_rate: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample (element, bit) fault sites at the given BER without injecting."""
        return random_bit_positions(
            self.size, self.qformat.total_bits, bit_error_rate, rng
        )

    # ------------------------------------------------------------------ #
    # Inspection helpers
    # ------------------------------------------------------------------ #
    def bit_counts(self) -> Tuple[int, int]:
        """Return (number of 0 bits, number of 1 bits) across the tensor.

        Used for the bit-level sparsity statistics of Fig. 2b / 2d, which
        explain why stuck-at-1 faults are more damaging than stuck-at-0.
        """
        total_bits = self.qformat.total_bits
        ones = 0
        flat = self._raw.reshape(-1)
        for bit in range(total_bits):
            ones += int(np.count_nonzero(flat & (np.int64(1) << bit)))
        zeros = self.size * total_bits - ones
        return zeros, ones

    def value_range(self) -> Tuple[float, float]:
        """Minimum and maximum decoded values."""
        vals = self.values
        return float(vals.min()), float(vals.max())

    def out_of_range_mask(self, low: float, high: float) -> np.ndarray:
        """Boolean mask of elements whose decoded value is outside [low, high]."""
        vals = self.values
        return (vals < low) | (vals > high)

    def sign_integer_words(self) -> np.ndarray:
        """Raw words masked to sign+integer bits only.

        The range-based anomaly detector compares these truncated words
        against the instrumented bounds so the comparator hardware can skip
        the fractional bits entirely (Sec. 5.2).
        """
        return self._raw & self.qformat.sign_and_integer_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"QTensor({self.qformat},{label} shape={self._shape})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTensor):
            return NotImplemented
        return (
            self.qformat == other.qformat
            and self._shape == other._shape
            and bool(np.array_equal(self._raw, other._raw))
        )

    def __hash__(self) -> int:  # QTensors are mutable; identity hash
        return id(self)
