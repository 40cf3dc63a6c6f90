"""Seeded, purpose-labeled random streams.

All randomness in the package flows through PCG64 generators keyed by a
64-bit seed plus string/number labels naming the purpose ("split",
"synth", "noise", ...). Labels are hashed with SHA-256 into a
SeedSequence spawn key, so each purpose gets an independent stream and
the same (seed, labels) pair yields the same stream on every platform.

Gaussian draws come from ``Generator.normal`` (numpy's ziggurat over the
PCG64 stream), which is stable across platforms for a fixed numpy
version.
"""

import hashlib
from numbers import Integral

import numpy as np

__all__ = ["stream", "derive_seed", "is_seed"]

_MASK64 = (1 << 64) - 1


def is_seed(v) -> bool:
    """True for an integer other than bool in [0, 2**64); the streams key on
    a seed's low 64 bits, so any other integer aliases one of these."""
    return isinstance(v, Integral) and not isinstance(v, bool) and 0 <= v <= _MASK64


def _label_words(labels) -> list[int]:
    """Hash a label tuple to uint32 words for a SeedSequence spawn key."""
    h = hashlib.sha256()
    for label in labels:
        if isinstance(label, float):
            enc = f"f:{label!r}"
        elif isinstance(label, int):
            enc = f"i:{label}"
        else:
            enc = f"s:{label}"
        h.update(enc.encode("utf-8"))
        h.update(b"\x00")
    digest = h.digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the PCG64 generator for ``seed`` and a purpose-label path.

    Distinct labels give statistically independent streams; identical
    arguments always reproduce the same stream.
    """
    key = _label_words(labels) if labels else None
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=key or ())
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *labels) -> int:
    """Derive a 64-bit child seed from ``seed`` and a purpose-label path.

    Used where a seed must be stored or reported (e.g. the per-fraction
    noise seeds in an experiment's provenance block).
    """
    h = hashlib.sha256()
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    for word in _label_words(labels):
        h.update(int(word).to_bytes(4, "little"))
    return int.from_bytes(h.digest()[:8], "little")
