"""Address-stream generation for memory references.

Each memory *space* a loop touches is backed by a :class:`Region` of the
simulated address space whose size is the working set — that, together
with the access pattern, determines which cache level the reference runs
from.  Streams are precomputed as numpy arrays of one address per source
iteration; references in the same line group share a stream, so trailing
references hit the lines their leader brought in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.ir.loop import Loop
from repro.ir.memref import AccessPattern, MemRef

#: gap between regions so distinct spaces never share cache lines
_REGION_ALIGN = 1 << 22  # 4 MB


@dataclass(frozen=True)
class Region:
    """One space's slice of the simulated address space."""

    name: str
    base: int
    size: int


@dataclass(frozen=True)
class StreamSpec:
    """Workload-supplied runtime behaviour of one memory space."""

    #: working-set size in bytes (decides the cache level it runs from)
    size: int
    #: actual stride for SYMBOLIC_STRIDE references (unknown to the compiler)
    runtime_stride: int | None = None
    #: restart the access sequence at the base on every loop invocation
    #: (temporal reuse across invocations) instead of streaming onward
    reuse: bool = True
    #: node size for pointer-chase spaces
    node_size: int = 64


def stable_hash(text: str) -> int:
    """Deterministic small hash (``hash`` is salted per process)."""
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % 1_000_003
    return value


class AddressMap:
    """Allocates non-overlapping regions for memory spaces.

    Each region gets a deterministic pseudo-random phase so distinct
    arrays do not all start bank- and set-aligned — real heaps and static
    data are not mutually aligned to megabyte boundaries either.
    """

    def __init__(self) -> None:
        self._regions: dict[str, Region] = {}
        self._next_base = _REGION_ALIGN

    def region(self, name: str, size: int) -> Region:
        if name in self._regions:
            existing = self._regions[name]
            if existing.size != size:
                raise WorkloadError(
                    f"space {name!r} requested with sizes "
                    f"{existing.size} and {size}"
                )
            return existing
        phase = (stable_hash(name) % 256) * 16
        region = Region(name, self._next_base + phase, size)
        span = max(size + phase, 1)
        self._next_base += ((span // _REGION_ALIGN) + 2) * _REGION_ALIGN
        self._regions[name] = region
        return region


@dataclass
class LoopStreams:
    """Per-reference address streams for one loop."""

    #: reference uid -> address array (length n_iters + lookahead)
    by_ref: dict[int, np.ndarray] = field(default_factory=dict)
    lookahead: int = 0
    #: lazily-built plain-list form of each stream, shared across
    #: invocations by the fast replayer (scalar list indexing beats
    #: per-access numpy scalar extraction by an order of magnitude);
    #: keyed by ``id(array)`` so line-group members sharing one array
    #: convert once
    _list_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def addresses(self, ref: MemRef) -> np.ndarray:
        return self.by_ref[ref.uid]

    def as_list(self, uid: int) -> list:
        """The stream for ``uid`` as a list of Python ints (cached)."""
        arr = self.by_ref[uid]
        key = id(arr)
        lst = self._list_cache.get(key)
        if lst is None:
            lst = arr.tolist()
            self._list_cache[key] = (lst, arr)
        else:
            lst = lst[0]
        return lst


def _stream_key(ref: MemRef) -> tuple:
    return (ref.space, ref.pattern, ref.stride, ref.offset, ref.is_fp)


def _affine(region: Region, stride: int, n: int, offset: int = 0) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64) * stride + offset
    return region.base + (idx % max(region.size, 1))


def _chase(region: Region, node_size: int, n: int, rng) -> np.ndarray:
    slots = max(1, region.size // node_size)
    order = rng.permutation(slots)
    reps = n // slots + 1
    walk = np.tile(order, reps)[:n]
    return region.base + walk.astype(np.int64) * node_size


def _random_in_region(region: Region, elem: int, n: int, rng) -> np.ndarray:
    slots = max(1, region.size // max(elem, 1))
    idx = rng.integers(0, slots, size=n, dtype=np.int64)
    return region.base + idx * elem


def build_streams(
    loop: Loop,
    layout: dict[str, StreamSpec],
    n_iters: int,
    seed: int = 11,
    address_map: AddressMap | None = None,
    lookahead: int = 64,
) -> LoopStreams:
    """Generate one address per source iteration for every reference.

    ``n_iters`` is the total number of iterations that will be simulated
    (summed across invocations); ``lookahead`` extra elements cover
    prefetch distances reaching past the end.
    """
    rng = np.random.default_rng(seed)
    amap = address_map or AddressMap()
    streams = LoopStreams(lookahead=lookahead)
    total = n_iters + lookahead
    cache: dict[tuple, np.ndarray] = {}

    for inst in loop.body:
        ref = inst.memref
        if ref is None or ref.uid in streams.by_ref:
            continue
        spec = layout.get(ref.space)
        if spec is None:
            raise WorkloadError(
                f"loop {loop.name!r}: no StreamSpec for space {ref.space!r}"
            )
        key = _stream_key(ref)
        if key in cache:
            streams.by_ref[ref.uid] = cache[key]
            continue
        region = amap.region(ref.space, spec.size)

        if ref.pattern is AccessPattern.AFFINE:
            stream = _affine(region, ref.stride or ref.size, total, ref.offset)
        elif ref.pattern is AccessPattern.SYMBOLIC_STRIDE:
            stride = spec.runtime_stride or 4096
            stream = _affine(region, stride, total)
        elif ref.pattern is AccessPattern.INDIRECT:
            stream = _random_in_region(region, ref.size, total, rng)
        elif ref.pattern is AccessPattern.POINTER_CHASE:
            stream = _chase(region, spec.node_size, total, rng)
        elif ref.pattern is AccessPattern.INVARIANT:
            stream = np.full(total, region.base, dtype=np.int64)
        else:  # pragma: no cover - enum is closed
            raise WorkloadError(f"unknown pattern {ref.pattern}")

        cache[key] = stream
        streams.by_ref[ref.uid] = stream
    return streams
