"""Small deterministic binary codec shared by checkpoint and graph files.

The encoding is a pure function of the value, so decode(encode(x)) == x and
encode(decode(b)) == b for any bytes this module produced. Dict key order is
preserved, which is what makes save -> load -> save byte-identical.

Wire format: one tag byte per value, multi-byte integers little-endian.
Arrays are written as dtype code, ndim, dims, then raw C-order bytes
(float32 or int64, little-endian). Files are replaced atomically, so an
interrupted write leaves the previous file in place.
"""

import contextlib
import os
import struct
import zlib

import numpy as np

from .errors import CorruptFile, VersionMismatch

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"y"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.int64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<i8")}

# lists and dicts nest at most this deep; real payloads nest about 5 deep
MAX_DEPTH = 64


def encode(value) -> bytes:
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _encode(value, out: bytearray):
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        out += _TAG_INT
        out += struct.pack("<q", value)
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += _TAG_BYTES
        out += struct.pack("<I", len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += struct.pack("<I", len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("dict keys must be str, got %r" % (key,))
            raw = key.encode("utf-8")
            out += struct.pack("<I", len(raw))
            out += raw
            _encode(item, out)
    elif isinstance(value, np.ndarray):
        dtype = np.dtype(value.dtype)
        if dtype not in _DTYPE_CODES:
            raise TypeError("unsupported array dtype %s" % dtype)
        arr = np.ascontiguousarray(value)
        out += _TAG_ARRAY
        out += struct.pack("<B", _DTYPE_CODES[dtype])
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.astype(_CODE_DTYPES[_DTYPE_CODES[dtype]], copy=False).tobytes(order="C")
    else:
        raise TypeError("cannot encode value of type %s" % type(value).__name__)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.depth = 0  # lists and dicts open around the value being read

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise CorruptFile("values nested more than %d deep" % MAX_DEPTH)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptFile("unexpected end of data")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def decode(data: bytes):
    reader = _Reader(data)
    value = _decode(reader)
    if reader.pos != len(data):
        raise CorruptFile("trailing bytes after payload")
    return value


def _decode(r: _Reader):
    tag = r.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return r.unpack("<q")
    if tag == _TAG_FLOAT:
        return r.unpack("<d")
    if tag == _TAG_STR:
        n = r.unpack("<I")
        try:
            return r.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile("invalid utf-8 string") from exc
    if tag == _TAG_BYTES:
        n = r.unpack("<I")
        return r.take(n)
    if tag == _TAG_LIST:
        n = r.unpack("<I")
        r.enter()
        items = [_decode(r) for _ in range(n)]
        r.depth -= 1
        return items
    if tag == _TAG_DICT:
        n = r.unpack("<I")
        r.enter()
        out = {}
        for _ in range(n):
            klen = r.unpack("<I")
            try:
                key = r.take(klen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptFile("invalid utf-8 dict key") from exc
            out[key] = _decode(r)
        r.depth -= 1
        return out
    if tag == _TAG_ARRAY:
        code = r.unpack("<B")
        if code not in _CODE_DTYPES:
            raise CorruptFile("unknown array dtype code %d" % code)
        ndim = r.unpack("<B")
        shape = tuple(r.unpack("<I") for _ in range(ndim))
        dtype = _CODE_DTYPES[code]
        count = 1
        for dim in shape:
            count *= dim
        raw = r.take(count * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        # native dtype view, writable copy
        return arr.astype(dtype.newbyteorder("="), copy=True)
    raise CorruptFile("unknown tag byte %r" % tag)


def write_file(path: str, data: bytes) -> None:
    """Replace the file at path with data, all at once or not at all.

    The data goes to a temp file in the same directory, which is flushed,
    fsynced and renamed over path; if any step fails the temp file is
    removed and the previous file at path is left as it was.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_container(path: str, magic: bytes, version: int, payload) -> None:
    """Write payload under a fixed header: magic, version, body checksum."""
    body = encode(payload)
    header = magic + struct.pack("<I", version) + struct.pack("<I", zlib.crc32(body))
    write_file(path, header + body)


def read_container(path: str, magic: bytes, version: int):
    """Read a container written by write_container, validating everything."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 12 or data[:4] != magic:
        raise CorruptFile("%s: bad or missing file header" % path)
    got_version = struct.unpack("<I", data[4:8])[0]
    if got_version != version:
        raise VersionMismatch("%s: format version %d, expected %d"
                              % (path, got_version, version))
    crc = struct.unpack("<I", data[8:12])[0]
    body = data[12:]
    if zlib.crc32(body) != crc:
        raise CorruptFile("%s: checksum mismatch" % path)
    return decode(body)
