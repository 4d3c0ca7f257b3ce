"""Binary wire codec.

Explicit little-endian framing in the XDR spirit — type-tagged values,
raw ndarray buffers with dtype/shape headers, **no pickle anywhere** —
so a malicious peer can at worst produce a :class:`CodecError`, never
code execution.

Frame layout::

    magic   4 bytes  b"NSRV"
    version u16      PROTOCOL_VERSION
    type    u16      Message.TYPE_CODE
    length  u64      body byte count
    body    ...      encoded field dict

Value encoding is a tagged union (tag u8 + payload); containers nest.
Tuples encode as lists; dataclass messages restore declared tuple fields
on decode.

Zero-copy discipline.  The encoder is scatter/gather at heart:
:func:`encode_message_iov` returns a list of buffers — small fields
packed into one shared scratch ``bytearray``, large ndarray payloads
referenced as ``memoryview``\\ s of the (C-contiguous) array — so a
megabyte matrix is never duplicated just to frame it.  ``b"".join`` of
the parts is byte-identical to the single-buffer encoding, which
:func:`encode_message` produces with exactly one payload copy.
:func:`frame_size` walks the value tree summing tag/header/``nbytes``
analytically, materializing nothing, so the simulated wire can charge a
frame without serializing it.  On decode, frames held in a *writable*
buffer (``bytearray``) yield ndarrays aliasing that buffer — no payload
copy; read-only input (``bytes``) still copies so decoded arrays stay
writable either way.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from ..errors import CodecError
from .messages import MESSAGE_TYPES, DataHandle, Message, NodeOutput

__all__ = [
    "PROTOCOL_VERSION",
    "encode_value",
    "decode_value",
    "encode_message",
    "encode_message_iov",
    "decode_message",
    "encoded_parts",
    "encoded_size",
    "frame_size",
    "MAGIC",
    "HEADER",
    "MAX_BODY",
]

PROTOCOL_VERSION = 1
MAGIC = b"NSRV"
HEADER = struct.Struct("<4sHHQ")

_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_LIST = 6
_T_DICT = 7
_T_NDARRAY = 8
_T_COMPLEX = 9
# 10 was the retired key-only reference tag; a bare key is a DataHandle
_T_HANDLE = 11
_T_NODEOUT = 12

_ALLOWED_DTYPES = {"float64", "int64", "complex128", "float32", "int32", "bool"}

# guards against absurd allocations from hostile length fields
_MAX_CONTAINER = 1_000_000
_MAX_NDIM = 8
_MAX_BODY = 1 << 34  # 16 GiB

#: public alias so transports can bound receive buffers before allocating
MAX_BODY = _MAX_BODY

#: payloads at least this large ride as their own iov entry instead of
#: being copied into the scratch buffer (below it, locality wins)
_IOV_PAYLOAD_MIN = 1024

_pack_i64 = struct.Struct("<q").pack
_pack_f64 = struct.Struct("<d").pack
_pack_c128 = struct.Struct("<dd").pack
_pack_u64 = struct.Struct("<Q").pack


def _pack_u32(n: int) -> bytes:
    return struct.pack("<I", n)


class _IovBuilder:
    """Accumulates an encoding as scratch-buffer runs + payload views.

    Scratch offsets are recorded as ``(start, end, None)`` and sliced
    only in :meth:`finish` — taking a ``memoryview`` of the scratch
    earlier would lock the bytearray against further appends.
    """

    __slots__ = ("scratch", "_segments", "_run_start")

    def __init__(self) -> None:
        self.scratch = bytearray()
        self._segments: list[tuple[int, int, Any]] = []
        self._run_start = 0

    def add_payload(self, buf) -> None:
        """Emit ``buf`` (bytes or a C-contiguous memoryview) in place."""
        end = len(self.scratch)
        if end > self._run_start:
            self._segments.append((self._run_start, end, None))
        self._segments.append((0, 0, buf))
        self._run_start = end

    def finish(self) -> list:
        end = len(self.scratch)
        if end > self._run_start:
            self._segments.append((self._run_start, end, None))
            self._run_start = end
        view = memoryview(self.scratch)
        return [
            view[s:e] if buf is None else buf
            for s, e, buf in self._segments
        ]


def _encode_iov(value: Any, b: _IovBuilder) -> None:
    """Append the tagged encoding of ``value`` to the builder."""
    out = b.scratch
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, (int, np.integer)):
        iv = int(value)
        if not -(2**63) <= iv < 2**63:
            raise CodecError(f"integer out of i64 range: {iv}")
        out.append(_T_INT)
        out += _pack_i64(iv)
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += _pack_f64(float(value))
    elif isinstance(value, (complex, np.complexfloating)):
        out.append(_T_COMPLEX)
        cv = complex(value)
        out += _pack_c128(cv.real, cv.imag)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        if isinstance(value, memoryview) and not (
            value.c_contiguous and value.format == "B"
        ):
            value = bytes(value)
        nbytes = value.nbytes if isinstance(value, memoryview) else len(value)
        out.append(_T_BYTES)
        out += _pack_u32(nbytes)
        if nbytes >= _IOV_PAYLOAD_MIN:
            b.add_payload(bytes(value) if isinstance(value, bytearray) else value)
        else:
            out += value
    elif isinstance(value, np.ndarray):
        name = value.dtype.name
        if name not in _ALLOWED_DTYPES:
            raise CodecError(f"unsupported ndarray dtype {name!r}")
        if value.ndim > _MAX_NDIM:
            raise CodecError(f"ndarray rank {value.ndim} exceeds {_MAX_NDIM}")
        contig = np.ascontiguousarray(value)
        out.append(_T_NDARRAY)
        dname = name.encode("ascii")
        out.append(len(dname))
        out += dname
        out.append(contig.ndim)
        for dim in contig.shape:
            out += _pack_i64(dim)
        out += _pack_u64(contig.nbytes)
        if contig.nbytes >= _IOV_PAYLOAD_MIN:
            # the memoryview keeps ``contig`` alive until the parts are
            # consumed; no byte materialization happens here
            b.add_payload(memoryview(contig).cast("B"))
        elif contig.nbytes:
            out += memoryview(contig).cast("B")
    elif isinstance(value, DataHandle):
        if len(value.shape) > _MAX_NDIM:
            raise CodecError(f"handle rank {len(value.shape)} exceeds {_MAX_NDIM}")
        out.append(_T_HANDLE)
        for text in (value.key, value.digest, value.server_id,
                     value.address, value.dtype):
            raw = text.encode("utf-8")
            out += _pack_u32(len(raw))
            out += raw
        out += _pack_u64(value.nbytes)
        out.append(len(value.shape))
        for dim in value.shape:
            out += _pack_i64(int(dim))
    elif isinstance(value, NodeOutput):
        raw = value.node.encode("utf-8")
        out.append(_T_NODEOUT)
        out += _pack_u32(len(raw))
        out += raw
        out += _pack_i64(value.index)
    elif isinstance(value, (list, tuple)):
        if len(value) > _MAX_CONTAINER:
            raise CodecError("container too large")
        out.append(_T_LIST)
        out += _pack_u32(len(value))
        for item in value:
            _encode_iov(item, b)
    elif isinstance(value, dict):
        if len(value) > _MAX_CONTAINER:
            raise CodecError("container too large")
        out.append(_T_DICT)
        out += _pack_u32(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_iov(key, b)
            _encode_iov(item, b)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def encode_value(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    b = _IovBuilder()
    _encode_iov(value, b)
    for part in b.finish():
        out += part


def encoded_parts(value: Any) -> list:
    """The tagged encoding of ``value`` as scatter/gather parts.

    Small fields share one scratch bytearray; each large ndarray payload
    is a ``memoryview`` of the (C-contiguous) array's own memory, so
    consumers that only *read* the encoding — content digests, checksums
    — never pay a serialization copy.  ``b"".join(parts)`` equals
    :func:`encode_value` byte for byte.
    """
    b = _IovBuilder()
    _encode_iov(value, b)
    return b.finish()


def encoded_size(value: Any) -> int:
    """Exact byte count :func:`encode_value` would produce — computed
    analytically, with the same validation, materializing no payloads."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, np.integer)):
        iv = int(value)
        if not -(2**63) <= iv < 2**63:
            raise CodecError(f"integer out of i64 range: {iv}")
        return 9
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, (complex, np.complexfloating)):
        return 17
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, memoryview):
        return 5 + value.nbytes
    if isinstance(value, np.ndarray):
        name = value.dtype.name
        if name not in _ALLOWED_DTYPES:
            raise CodecError(f"unsupported ndarray dtype {name!r}")
        if value.ndim > _MAX_NDIM:
            raise CodecError(f"ndarray rank {value.ndim} exceeds {_MAX_NDIM}")
        # ascontiguousarray promotes 0-d to shape (1,) on the wire
        ndim = value.ndim or 1
        return 1 + 1 + len(name) + 1 + 8 * ndim + 8 + value.nbytes
    if isinstance(value, DataHandle):
        if len(value.shape) > _MAX_NDIM:
            raise CodecError(f"handle rank {len(value.shape)} exceeds {_MAX_NDIM}")
        texts = sum(
            len(t.encode("utf-8"))
            for t in (value.key, value.digest, value.server_id,
                      value.address, value.dtype)
        )
        return 1 + 5 * 4 + texts + 8 + 1 + 8 * len(value.shape)
    if isinstance(value, NodeOutput):
        return 1 + 4 + len(value.node.encode("utf-8")) + 8
    if isinstance(value, (list, tuple)):
        if len(value) > _MAX_CONTAINER:
            raise CodecError("container too large")
        return 5 + sum(encoded_size(item) for item in value)
    if isinstance(value, dict):
        if len(value) > _MAX_CONTAINER:
            raise CodecError("container too large")
        total = 5
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            total += 5 + len(key.encode("utf-8")) + encoded_size(item)
        return total
    raise CodecError(f"cannot encode {type(value).__name__}")


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data):
        # a memoryview keeps per-``take`` slices copy-free whether the
        # frame arrived as bytes, bytearray or another view
        self.data = data if isinstance(data, memoryview) else memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise CodecError("truncated frame")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated frame")
        byte = self.data[self.pos]
        self.pos += 1
        return byte

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def _decode(reader: _Reader, depth: int = 0) -> Any:
    if depth > 32:
        raise CodecError("nesting too deep")
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        flag = reader.u8()
        if flag not in (0, 1):
            raise CodecError(f"bad bool byte {flag}")
        return bool(flag)
    if tag == _T_INT:
        return reader.i64()
    if tag == _T_FLOAT:
        return reader.f64()
    if tag == _T_COMPLEX:
        re_, im = struct.unpack("<dd", reader.take(16))
        return complex(re_, im)
    if tag == _T_STR:
        raw = reader.take(reader.u32())
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad utf-8: {exc}") from None
    if tag == _T_BYTES:
        return bytes(reader.take(reader.u32()))
    if tag == _T_NDARRAY:
        try:
            dname = bytes(reader.take(reader.u8())).decode("ascii")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad dtype name bytes: {exc}") from None
        if dname not in _ALLOWED_DTYPES:
            raise CodecError(f"unsupported ndarray dtype {dname!r}")
        ndim = reader.u8()
        if ndim > _MAX_NDIM:
            raise CodecError(f"ndarray rank {ndim} exceeds {_MAX_NDIM}")
        shape = tuple(reader.i64() for _ in range(ndim))
        if any(d < 0 for d in shape):
            raise CodecError(f"negative dimension in {shape}")
        nbytes = reader.u64()
        dtype = np.dtype(dname)
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected:
            raise CodecError(
                f"ndarray payload {nbytes} bytes, shape {shape} "
                f"implies {expected}"
            )
        raw = reader.take(nbytes)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if not arr.flags.writeable or not arr.flags.aligned:
            # copy only when forced: a read-only source buffer (bytes)
            # must not leak into mutable decoded arrays, and an array at
            # a misaligned frame offset would poison every downstream
            # BLAS call (unaligned loads are ~2x slower than one memcpy)
            arr = arr.copy()
        return arr
    if tag == _T_HANDLE:
        texts = []
        for _ in range(5):
            raw = reader.take(reader.u32())
            try:
                texts.append(bytes(raw).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CodecError(f"bad utf-8 in handle: {exc}") from None
        key, digest, server_id, address, dtype = texts
        nbytes = reader.u64()
        ndim = reader.u8()
        if ndim > _MAX_NDIM:
            raise CodecError(f"handle rank {ndim} exceeds {_MAX_NDIM}")
        shape = tuple(reader.i64() for _ in range(ndim))
        if any(d < 0 for d in shape):
            raise CodecError(f"negative dimension in {shape}")
        return DataHandle(
            key=key, digest=digest, nbytes=nbytes, server_id=server_id,
            address=address, shape=shape, dtype=dtype,
        )
    if tag == _T_NODEOUT:
        raw = reader.take(reader.u32())
        try:
            node = bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad utf-8 in node reference: {exc}") from None
        return NodeOutput(node=node, index=reader.i64())
    if tag == _T_LIST:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CodecError("container too large")
        return [_decode(reader, depth + 1) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CodecError("container too large")
        out: dict[str, Any] = {}
        for _ in range(count):
            key = _decode(reader, depth + 1)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            out[key] = _decode(reader, depth + 1)
        return out
    raise CodecError(f"unknown tag {tag}")


def decode_value(data) -> Any:
    """Decode a single tagged value; the buffer must be fully consumed.

    ``data`` may be bytes, bytearray or a memoryview; ndarrays decoded
    from a *writable* buffer alias it instead of copying.
    """
    reader = _Reader(data)
    value = _decode(reader)
    if not reader.done():
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing byte(s) after value"
        )
    return value


# ----------------------------------------------------------------------
# message framing
# ----------------------------------------------------------------------
def encode_message_iov(msg: Message) -> list:
    """Scatter/gather encoding: header + body as a list of buffers.

    Small fields share one scratch bytearray; each large ndarray payload
    is a ``memoryview`` of the array's own memory.  ``b"".join(parts)``
    equals :func:`encode_message` byte for byte.  The views pin their
    arrays, so the parts stay valid as long as the list is referenced —
    but mutating a source array before the parts are consumed mutates
    the wire bytes.
    """
    if type(msg).TYPE_CODE not in MESSAGE_TYPES:
        raise CodecError(f"unregistered message type {type(msg).__name__}")
    b = _IovBuilder()
    b.scratch += bytes(HEADER.size)  # reserved; patched once sizes are known
    _encode_iov(msg.to_fields(), b)
    parts = b.finish()
    body_len = sum(
        part.nbytes if isinstance(part, memoryview) else len(part)
        for part in parts
    ) - HEADER.size
    HEADER.pack_into(
        b.scratch, 0, MAGIC, PROTOCOL_VERSION, type(msg).TYPE_CODE, body_len
    )
    return parts


def encode_message(msg: Message) -> bytes:
    """Encode a message into one framed byte string (a single payload
    copy — the join; the scatter/gather path avoids even that)."""
    return b"".join(encode_message_iov(msg))


def decode_message(data) -> Message:
    """Decode one framed message; the buffer must hold exactly one frame.

    Accepts bytes, bytearray or a memoryview.  When the buffer is
    writable (a ``bytearray``), decoded ndarrays alias it zero-copy; the
    arrays keep the buffer alive, so only hand in a buffer you will not
    recycle — or pass ``bytes`` to force owning copies.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if len(view) < HEADER.size:
        raise CodecError(f"frame shorter than header ({len(view)} bytes)")
    magic, version, type_code, length = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise CodecError(f"protocol version {version}, expected {PROTOCOL_VERSION}")
    if length > _MAX_BODY:
        raise CodecError(f"body length {length} exceeds limit")
    if len(view) != HEADER.size + length:
        raise CodecError(
            f"frame length mismatch: header says {length}, "
            f"got {len(view) - HEADER.size}"
        )
    cls = MESSAGE_TYPES.get(type_code)
    if cls is None:
        raise CodecError(f"unknown message type code {type_code}")
    fields = decode_value(view[HEADER.size :])
    if not isinstance(fields, dict):
        raise CodecError("message body is not a field dict")
    return cls.from_fields(fields)


def frame_size(msg: Message) -> int:
    """Byte count of the encoded frame (what the simulated wire charges),
    computed analytically — no payload is serialized or copied."""
    if type(msg).TYPE_CODE not in MESSAGE_TYPES:
        raise CodecError(f"unregistered message type {type(msg).__name__}")
    return HEADER.size + encoded_size(msg.to_fields())
