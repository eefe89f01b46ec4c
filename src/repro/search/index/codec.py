"""Varint primitives shared by the segment codec and the C kernels.

Every integer in a segment file (:mod:`repro.search.index.segment`) is
an unsigned LEB128 varint; signed deltas are zigzag-mapped first so
small magnitudes of either sign get short codes.  :data:`MAGIC` is the
four-byte prelude every segment file starts with.
"""

from __future__ import annotations

import io

__all__ = ["MAGIC", "decode_uvarints"]

MAGIC = b"RIDX"


def _write_uvarint(out: io.BytesIO, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_uvarint(data: bytes, pos: int) -> tuple:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def decode_uvarints(data, pos: int, end: int) -> list:
    """Decode every LEB128 varint in ``data[pos:end]`` in one pass.

    This is the bulk counterpart of :func:`_read_uvarint`: one tight
    loop over the byte range with no per-integer function call or
    tuple allocation, several times faster on real postings blocks
    (``benchmarks/test_postings_decode.py`` measures it).  The caller
    is responsible for ``end`` landing on a varint boundary — the
    segment term dictionary records exact byte lengths, so it always
    does.  Malformed requests raise ``ValueError`` in both shapes: a
    ``[pos, end)`` range that does not fit the buffer (overrun) and a
    buffer that ends mid-varint (truncation) — never a bare
    ``IndexError`` from running off the end of ``data``.
    """
    size = len(data)
    if not 0 <= pos <= end <= size:
        raise ValueError(
            f"varint byte range [{pos}, {end}) does not fit the "
            f"{size}-byte buffer")
    values: list = []
    append = values.append
    result = 0
    shift = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        if byte & 0x80:
            result |= (byte & 0x7F) << shift
            shift += 7
        elif shift:
            append(result | (byte << shift))
            result = 0
            shift = 0
        else:
            append(byte)
    if shift:
        raise ValueError("byte range ends inside a varint")
    return values


def _zigzag(value: int) -> int:
    # Python ints are arbitrary-precision, so the C-style
    # ``(value << 1) ^ (value >> 63)`` sign trick is wrong here: for
    # non-negative values >= 2**63 the arithmetic shift yields a
    # non-zero mask and the encoding stops round-tripping.  Branch on
    # the sign instead — no width assumption.
    return (value << 1) if value >= 0 else ((-value) << 1) - 1
