"""Small deterministic codec shared by checkpoint and graph files.

A body is a 4-byte little-endian header length, a compact UTF-8 JSON header,
then the raw bytes of every array, in the order the header names them (the
layout of safetensors). In the header each ndarray is replaced, where it
stands, by a marker object {"__ndarray__": [dtype code, *shape]}; its bytes
are C-order float32 (code 0) or int64 (code 1), little-endian.

The encoding is a pure function of the value, so decode(encode(x)) == x and
encode(decode(b)) == b for any bytes this module produced; a NaN float comes
back as the canonical NaN. Dict key order is preserved, which is what makes
save -> load -> save byte-identical. encode raises TypeError on what it
cannot round-trip; decode raises CorruptFile on every malformed body.

Files wrap a body in a container: magic, format version, CRC-32 of the body.
They are replaced atomically, so an interrupted write leaves the previous
file in place.
"""

import contextlib
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import CorruptFile, VersionMismatch
from .vocab import all_str

_MARKER = "__ndarray__"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.int64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<i8")}

# lists and dicts nest at most this deep; real payloads nest about 5 deep
MAX_DEPTH = 64
_NESTED = "values nested more than %d deep" % MAX_DEPTH


def _check_tree(value, depth=0):
    """Raise TypeError on a dict key that is not a str or is the marker key
    and on a tuple (it would decode as a list), RecursionError on lists and
    dicts nested more than MAX_DEPTH deep."""
    if isinstance(value, dict):
        if not all_str(value) or _MARKER in value:
            raise TypeError("dict keys must be str other than %r" % _MARKER)
        items = value.values()
    elif isinstance(value, list):
        items = value
    elif isinstance(value, tuple):
        raise TypeError("cannot encode a tuple; it would decode as a list")
    else:
        return
    if depth == MAX_DEPTH:
        raise RecursionError(_NESTED)
    if not all_str(items):
        for item in items:
            _check_tree(item, depth + 1)


def _encode_parts(value) -> list:
    """The parts of a body: length prefix, header, then each array's buffer."""
    chunks = []

    def marker(arr):
        if not isinstance(arr, np.ndarray):
            raise TypeError("cannot encode value of type %s" % type(arr).__name__)
        if arr.dtype not in _DTYPE_CODES:
            raise TypeError("unsupported array dtype %s" % arr.dtype)
        code = _DTYPE_CODES[arr.dtype]
        chunks.append(np.ascontiguousarray(arr, _CODE_DTYPES[code]).data)
        return {_MARKER: [code, *arr.shape]}

    try:
        _check_tree(value)
        header = json.dumps(value, ensure_ascii=False, separators=(",", ":"),
                            default=marker).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        # lone surrogates, ints too long to print, cycles, nesting
        raise TypeError("cannot encode value: %s" % exc) from exc
    return [struct.pack("<I", len(header)), header, *chunks]


def encode(value) -> bytes:
    return b"".join(_encode_parts(value))


def decode(data: bytes):
    pos = end = 4 + int.from_bytes(data[:4], "little")
    if end > len(data):  # also a length prefix cut short
        raise CorruptFile("unexpected end of data")

    def array(obj):
        nonlocal pos
        if _MARKER not in obj:
            return obj
        spec = obj[_MARKER]
        if not (len(obj) == 1 and isinstance(spec, list) and spec
                and all(type(n) is int and n >= 0 for n in spec)
                and spec[0] in _CODE_DTYPES):
            raise CorruptFile("malformed array marker")
        dtype, shape = _CODE_DTYPES[spec[0]], spec[1:]
        count = math.prod(shape)
        if pos + count * dtype.itemsize > len(data):
            raise CorruptFile("unexpected end of data")
        arr = np.frombuffer(data, dtype, count, pos).reshape(shape)
        pos += count * dtype.itemsize
        # native dtype, writable copy
        return arr.astype(dtype.newbyteorder("="))

    try:
        value = json.loads(str(data[4:end], "utf-8"), object_hook=array)
        _check_tree(value)
    except RecursionError as exc:
        raise CorruptFile(_NESTED) from exc
    except ValueError as exc:
        raise CorruptFile("invalid header: %s" % exc) from exc
    if pos != len(data):
        raise CorruptFile("trailing bytes after payload")
    return value


def check_fields(value, table, what: str, error) -> bool:
    """Raise error unless value is a dict with exactly the keys of table, each
    value passing its field's predicate (a type stands for isinstance); return
    True. A predicate may raise error itself, checking a nested table, to
    name a field inside its value."""
    if not isinstance(value, dict):
        raise error("%s is not a mapping" % what)
    for name, well_formed in table.items():
        try:
            ok = name in value and (isinstance(value[name], well_formed)
                                    if isinstance(well_formed, type) else well_formed(value[name]))
        except error as exc:  # a nested table named a field inside this one
            raise error("%s field %r: %s" % (what, name, exc)) from None
        if not ok:
            raise error("%s field %r is missing or malformed" % (what, name))
    if len(value) > len(table):  # value holds every field of table, and more
        raise error("%s has unknown fields %s" % (what, sorted(set(value) - set(table))))
    return True


def finite_number(value) -> bool:  # a bool is no number here
    return type(value) in (int, float) and abs(value) < math.inf


def finite_array(value) -> bool:
    return (isinstance(value, np.ndarray) and value.dtype == np.float32
            and bool(np.isfinite(value).all()))


def finite_arrays(value) -> bool:  # a dict of finite arrays, as model weights are stored
    return isinstance(value, dict) and all(map(finite_array, value.values()))


def write_file(path: str, data: bytes) -> None:
    """Replace the file at path with data, all at once or not at all.

    The data goes to the temp file path + ".tmp", which is flushed, fsynced
    and renamed over path, then the directory is fsynced so the rename
    outlives a power loss. A failure before the rename removes the temp file
    and leaves the previous file at path as it was. A path has one writer at
    a time, so the temp name is fixed: the next save overwrites what a killed
    one left there and renames it away.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def pack_container(magic: bytes, version: int, payload) -> bytes:
    """payload under a fixed header: magic, version, body checksum. The body
    parts are checksummed one by one and joined once with the header, so a
    save holds one copy of the file, not two."""
    parts = _encode_parts(payload)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([magic, struct.pack("<II", version, crc), *parts])


def unpack_container(data: bytes, magic: bytes, version: int, source: str):
    """The payload of a pack_container blob, validating everything; header
    errors name source."""
    if len(data) < 12 or data[:4] != magic:
        raise CorruptFile("%s: bad or missing file header" % source)
    got_version, crc = struct.unpack_from("<II", data, 4)
    if got_version != version:
        raise VersionMismatch("%s: format version %d, expected %d"
                              % (source, got_version, version))
    body = memoryview(data)[12:]
    if zlib.crc32(body) != crc:
        raise CorruptFile("%s: checksum mismatch" % source)
    return decode(body)


def read_container(path: str, magic: bytes, version: int):
    with open(path, "rb") as handle:
        return unpack_container(handle.read(), magic, version, path)
