"""Test-side codec helper: one MF payload as standalone bytes.

Production never builds a model payload on its own -- the enclave sizes
it with ``measure_mf_state`` and writes it behind the frame header with
``encode_mf_state_into`` -- but the codec tests want the bare payload.
"""

import numpy as np

from repro.ml.mf import MfState
from repro.net.serialization import encode_mf_state_into, measure_mf_state


def encode_mf_state(state: MfState, *, wire_dtype: str = "<f4") -> bytes:
    """Encode the seen rows of ``state`` (``"<f4"`` or ``"<f8"`` wire)."""
    size = measure_mf_state(
        int(np.count_nonzero(state.user_seen)),
        int(np.count_nonzero(state.item_seen)),
        state.k,
        float_bytes=4 if wire_dtype == "<f4" else 8,
    )
    buf = bytearray(size)
    encode_mf_state_into(state, buf, wire_dtype=wire_dtype)
    return bytes(buf)
