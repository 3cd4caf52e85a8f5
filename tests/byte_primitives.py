"""Field-by-field byte primitives: the reference encoder the codec tests
compare the compiled wire layout (:class:`repro.broker.codec.WirePlan`)
against.  All multi-byte integers are big-endian ("network order")."""

from __future__ import annotations

import struct
from typing import List

from repro.broker.codec import utf8_field
from repro.errors import CodecError

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class ByteWriter:
    """Append-only binary buffer with typed writes."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def u8(self, value: int) -> "ByteWriter":
        self._chunks.append(_U8.pack(value))
        return self

    def u16(self, value: int) -> "ByteWriter":
        self._chunks.append(_U16.pack(value))
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._chunks.append(_U32.pack(value))
        return self

    def u64(self, value: int) -> "ByteWriter":
        self._chunks.append(_U64.pack(value))
        return self

    def i64(self, value: int) -> "ByteWriter":
        self._chunks.append(_I64.pack(value))
        return self

    def f64(self, value: float) -> "ByteWriter":
        self._chunks.append(_F64.pack(value))
        return self

    def boolean(self, value: bool) -> "ByteWriter":
        return self.u8(1 if value else 0)

    def string(self, value: str) -> "ByteWriter":
        data = utf8_field(value)
        self.u16(len(data))
        self._chunks.append(data)
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        self._chunks.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class ByteReader:
    """Sequential binary reader with typed reads and bounds checking."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise CodecError(
                f"truncated message: wanted {count} bytes at offset {self._offset}, "
                f"have {len(self._data) - self._offset}"
            )
        piece = self._data[self._offset : end]
        self._offset = end
        return piece

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def boolean(self) -> bool:
        return self.u8() != 0

    def string(self) -> str:
        length = self.u16()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string field: {exc}") from exc

    @property
    def exhausted(self) -> bool:
        return self._offset >= len(self._data)

    def expect_exhausted(self) -> None:
        if not self.exhausted:
            raise CodecError(
                f"{len(self._data) - self._offset} trailing bytes after message payload"
            )
