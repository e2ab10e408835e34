"""The artifact lattice as one table: how each kind is named, stored, checked.

The reproduction replaces ATMem's PEBS sampling with four deterministic
artifacts per trace key — ``trace -> reuse profile -> hit mask -> miss
profile`` — which the cache (:mod:`repro.sim.tracecache`) and the store
(:mod:`repro.sim.tracestore`) run through one pipeline.  An
:class:`ArtifactSpec` holds what differs between kinds: the file stem
``<kind>-v<version>[-<sub digest>]`` (sub-key: none for the trace, the
LLC geometry for masks and profiles, the line size for reuse — gaps are
capacity-independent); the columnar form (one ``.npy`` array written
chunk by chunk, plus a JSON sidecar record); whether an artifact still
``fits`` the caller's trace; its persisted byte size; and the
``stage.*`` timing of a build.  Because the format version is part of
the file name, an entry written under another layout is simply never
found: no version stamp is checked and no old layout needs rejecting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.errors import TraceError
from repro.mem.trace import AccessTrace
from repro.sim import profilepack, reusepack

#: Streamed trace commits write at most this many bytes per chunk.
TRACE_WRITE_CHUNK_BYTES = 32 << 20


def llc_digest(llc_sig: tuple) -> str:
    """Stable file-name component for an LLC geometry signature."""
    return hashlib.sha256(repr(llc_sig).encode("utf-8")).hexdigest()[:12]


def sidecar_int(sidecar: dict, field: str) -> int:
    """A non-negative integer sidecar field; raises on anything else.

    ``null``, strings, floats and booleans are all rejected — a sidecar
    that does not say exactly how long its array is cannot be trusted.
    """
    value = sidecar[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TraceError(f"sidecar field {field!r} is {value!r}, not a count")
    return value


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact kind of the lattice (see the module docstring)."""

    kind: str
    version: int
    #: ``stage.*`` timing recorded by a build of this kind.
    stage: str
    dtype: np.dtype
    #: ``sub -> file-name digest``; ``None`` for a kind without a sub-key.
    digest: Callable[[Hashable], str] | None
    #: ``(artifact, sub) -> (array chunks, array shape, sidecar record)``.
    encode: Callable[[Any, Hashable], tuple[Iterable[np.ndarray], tuple, dict]]
    #: ``sidecar -> array shape``; raises on a malformed record.
    layout: Callable[[dict], tuple]
    #: ``(array, sidecar) -> artifact``; raises on a structural defect.
    decode: Callable[[np.ndarray, dict], Any]
    #: ``(artifact, expected) -> bool``: still describes the caller's trace.
    fits: Callable[[Any, Any], bool]
    #: ``artifact -> persisted bytes``.
    nbytes: Callable[[Any], int]

    def stem(self, sub: Hashable = None) -> str:
        base = f"{self.kind}-v{self.version}"
        return base if self.digest is None else f"{base}-{self.digest(sub)}"


def _encode_mask(mask, sub):
    # Bit-packed on disk: 8x smaller than raw bool; the sidecar keeps the
    # unpacked length so loads can trim the pad bits.
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    packed = np.packbits(mask)
    return [packed], packed.shape, {"n": int(mask.size)}


def _decode_mask(packed, sidecar):
    mask = np.unpackbits(np.asarray(packed), count=sidecar["n"]).view(np.bool_)
    mask.flags.writeable = False
    return mask


def _encode_columnar(to_columnar):
    def encode(artifact, sub):
        array, record = to_columnar(artifact)
        return [array], array.shape, record

    return encode


TRACE = ArtifactSpec(
    kind="trace",
    version=1,
    stage="stage.trace_gen",
    dtype=np.dtype(np.int64),
    digest=None,
    # Streamed from the phase arrays: saving a multi-GB trace costs no
    # flat all_addresses copy, and the CRC folds over the same chunks.
    encode=lambda trace, sub: (
        trace.iter_chunks(TRACE_WRITE_CHUNK_BYTES),
        (trace.total_accesses,),
        {"total": trace.total_accesses, "phases": trace.phase_records()},
    ),
    layout=lambda sidecar: (sidecar_int(sidecar, "total"),),
    decode=lambda flat, sidecar: AccessTrace.from_columnar(flat, sidecar["phases"]),
    fits=lambda trace, expected: True,
    nbytes=lambda trace: 8 * trace.total_accesses,
)

MASK = ArtifactSpec(
    kind="mask",
    version=2,
    stage="stage.mask_derive",
    dtype=np.dtype(np.uint8),
    digest=llc_digest,
    encode=_encode_mask,
    layout=lambda sidecar: ((sidecar_int(sidecar, "n") + 7) // 8,),
    decode=_decode_mask,
    fits=lambda mask, n: mask.shape == (n,),
    nbytes=lambda mask: (int(mask.size) + 7) // 8,
)

PROFILE = ArtifactSpec(
    kind="profile",
    version=profilepack.PROFILE_FORMAT,
    stage="stage.profile_build",
    dtype=np.dtype(np.int64),
    digest=llc_digest,
    # CSR pages/counts stacked as int64 [2, nnz]; per-phase metadata
    # rides in the sidecar.
    encode=_encode_columnar(profilepack.profile_to_columnar),
    layout=lambda sidecar: (2, sidecar_int(sidecar, "nnz")),
    decode=profilepack.profile_from_columnar,
    # expected: (phase count, access count) of the trace being priced.
    fits=lambda p, expected: (p.n_phases, p.total_accesses) == tuple(expected),
    nbytes=lambda profile: 16 * profile.nnz,
)

REUSE = ArtifactSpec(
    kind="reuse",
    version=reusepack.REUSE_FORMAT,
    stage="stage.reuse_build",
    dtype=np.dtype(np.int64),
    digest=lambda line_size: llc_digest(("reuse", int(line_size))),
    # The program-order gaps and their (value, count) histogram as one
    # int64 [n + 2m] array: every capacity's threshold solves from the
    # histogram at load time (see repro.sim.reusepack.reuse_to_columnar).
    encode=_encode_columnar(reusepack.reuse_to_columnar),
    layout=lambda sidecar: (
        sidecar_int(sidecar, "n") + 2 * sidecar_int(sidecar, "m"),
    ),
    decode=reusepack.reuse_from_columnar,
    fits=lambda profile, n: profile.n == n,
    nbytes=lambda profile: 8 * profile.n + 16 * int(profile.values.size),
)

#: The lattice, in dependency order.
SPECS = (TRACE, REUSE, MASK, PROFILE)
