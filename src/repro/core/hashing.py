"""Hash functions for context encoding (paper Section III-A).

I-SPY compresses the basic-block addresses that make up a miss context
into an n-bit ``context-hash`` immediate using two independent hash
functions, FNV-1 and MurmurHash3.  Each block address sets one bit per
hash function; the union over the context's blocks is the encoded
operand.  The same per-block bit positions feed the runtime counting
Bloom filter, so the subset test at run time is exact with respect to
the hashing scheme (false positives come only from bit collisions).

Both hash functions are implemented from scratch per their public
specifications.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .. import kernel

_FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = (1 << 64) - 1
_MASK_32 = (1 << 32) - 1


def fnv1_64(data: bytes) -> int:
    """FNV-1 (not FNV-1a): hash = (hash * prime) XOR byte."""
    value = _FNV_OFFSET_BASIS_64
    for byte in data:
        value = (value * _FNV_PRIME_64) & _MASK_64
        value ^= byte
    return value


def _rotl32(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK_32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit finalized hash."""
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    h = seed & _MASK_32
    full_blocks = len(data) // 4

    for i in range(full_blocks):
        k = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k = (k * c1) & _MASK_32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK_32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK_32

    tail = data[4 * full_blocks :]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _MASK_32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK_32
        h ^= k

    h ^= len(data)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK_32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK_32
    h ^= h >> 16
    return h


def _address_bytes(address: int) -> bytes:
    return address.to_bytes(8, "little", signed=False)


def context_bit_positions(
    address: int, hash_bits: int, hashes_per_block: int = 1
) -> Tuple[int, ...]:
    """The hash-bit positions a block *address* maps to.

    With one hash per block (the default) FNV-1 picks the position;
    with two, MurmurHash3 supplies the second.  A 32-entry LBR already
    sets up to 32 of the 16 runtime-hash bits, so one bit per block
    keeps the counting Bloom filter from saturating — with two, nearly
    every subset test would pass and conditioning would be vacuous.
    Positions may coincide; the counter-based filter copes.
    """
    if hash_bits <= 0:
        raise ValueError("hash_bits must be positive")
    if hashes_per_block not in (1, 2):
        raise ValueError("hashes_per_block must be 1 or 2")
    data = _address_bytes(address)
    positions = [fnv1_64(data) % hash_bits]
    if hashes_per_block == 2:
        positions.append(murmur3_32(data) % hash_bits)
    return tuple(positions)


def context_mask(
    addresses: Iterable[int], hash_bits: int, hashes_per_block: int = 1
) -> int:
    """Encode a set of block addresses into a context-hash bitmask."""
    mask = 0
    for address in addresses:
        for bit in context_bit_positions(address, hash_bits, hashes_per_block):
            mask |= 1 << bit
    return mask


def bit_position_table(
    addresses_by_block: Mapping[int, int],
    hash_bits: int,
    hashes_per_block: int = 1,
) -> Dict[int, Tuple[int, ...]]:
    """Precompute block-id -> hash-bit positions for a whole program.

    The simulator pushes tens of thousands of LBR entries; hashing each
    block once up front keeps the run-time model fast without changing
    its behaviour.  On the columnar tier the one-hash table is FNV-1
    over whole address arrays; the per-address loop is the reference
    (and serves ``hashes_per_block=2``).
    """
    if (
        kernel.numpy_enabled()
        and hashes_per_block == 1
        and hash_bits > 0
        and addresses_by_block
    ):
        return _fnv1_position_table(addresses_by_block, hash_bits)
    return {
        block_id: context_bit_positions(address, hash_bits, hashes_per_block)
        for block_id, address in addresses_by_block.items()
    }


def _fnv1_position_table(
    addresses_by_block: Mapping[int, int], hash_bits: int
) -> Dict[int, Tuple[int, ...]]:
    """:func:`fnv1_64` of every address's 8 little-endian bytes as
    wrapping ``uint64`` array arithmetic, then ``% hash_bits``."""
    import numpy as np

    addresses = np.array(list(addresses_by_block.values()), dtype=np.uint64)
    value = np.full(len(addresses), _FNV_OFFSET_BASIS_64, dtype=np.uint64)
    for shift in range(0, 64, 8):
        value *= np.uint64(_FNV_PRIME_64)
        value ^= (addresses >> np.uint64(shift)) & np.uint64(0xFF)
    positions = (value % np.uint64(hash_bits)).tolist()
    return {
        block_id: (position,)
        for block_id, position in zip(addresses_by_block, positions)
    }


def popcount(mask: int) -> int:
    """Number of set bits in *mask* (context sizes, Fig. 21 metrics)."""
    return bin(mask).count("1")
