"""The artifact codec: round trips, what encode refuses, what decode rejects."""

import json
import math
import os
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import corpora
from textforge import binio
from textforge.errors import CorruptFile
from textforge.exporter import export_pipeline
from textforge.graph import serialize
from textforge.pipeline import instantiate_task
from textforge.registry import parse_task_config

MARKER = binio._MARKER

# NaN comes back as the canonical NaN, so only that one is generated
scalars = (st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 63 - 1)
           | st.floats(allow_nan=False) | st.just(math.nan) | st.text())
arrays = hnp.arrays(st.sampled_from([np.float32, np.int64]),
                    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4))
trees = st.recursive(
    scalars | arrays,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text().filter(lambda k: k != MARKER), children,
                                        max_size=4)),
    max_leaves=24)


def assert_same(a, b):
    """Same types, values, key order; floats and arrays bit for bit."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert b.flags.writeable
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert a == b


def body(header) -> bytes:
    """A body of the given JSON header (str or bytes) and no array bytes."""
    raw = header.encode("utf-8") if isinstance(header, str) else header
    return struct.pack("<I", len(raw)) + raw


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_value_survives_encode_decode(self, value):
        assert_same(value, binio.decode(binio.encode(value)))

    @settings(max_examples=300, deadline=None)
    @given(trees)
    def test_bytes_survive_decode_encode(self, value):
        data = binio.encode(value)
        assert binio.encode(binio.decode(data)) == data

    def test_layout(self):
        w = np.arange(6, dtype=np.float32).reshape(2, 3)
        ids = np.array([7], dtype=np.int64)
        data = binio.encode({"w": w, "n": [1, "é"], "ids": ids})
        header = ('{"w":{"%s":[0,2,3]},"n":[1,"é"],"ids":{"%s":[1,1]}}'
                  % (MARKER, MARKER)).encode("utf-8")
        assert data == body(header) + w.astype("<f4").tobytes() + ids.astype("<i8").tobytes()


class TestContainer:
    @settings(max_examples=100, deadline=None)
    @given(trees)
    def test_layout(self, value):
        data = binio.encode(value)
        blob = binio.pack_container(b"TEST", 7, value)
        assert blob == b"TEST" + struct.pack("<II", 7, zlib.crc32(data)) + data
        assert_same(value, binio.unpack_container(blob, b"TEST", 7, "test"))

    def test_save_holds_one_copy_of_the_file(self):
        payload = {"w": np.ones((1000, 1000), dtype=np.float32), "n": list(range(100))}
        tracemalloc.start()
        try:
            blob = binio.pack_container(b"TEST", 1, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) > 4_000_000
        assert peak < 1.25 * len(blob)


class TestEncodeRefuses:
    @pytest.mark.parametrize("value", [
        {1: "int key"},
        {"a": {None: 0}},
        {MARKER: [0]},
        [{"x": 1, MARKER: 2}],
        np.zeros(2, dtype=np.float64),
        np.zeros(2, dtype=np.int32),
        np.float32(1.0),
        {"set": {1, 2}},
        {"a": (1, 2)},  # would decode as a list
        [("x", "y")],
        b"bytes",
        "\ud800",
    ])
    def test_type_error(self, value):
        with pytest.raises(TypeError):
            binio.encode(value)

    def test_too_deep(self):
        value = None
        for _ in range(binio.MAX_DEPTH):
            value = [value]
        assert binio.decode(binio.encode(value)) == value
        with pytest.raises(TypeError, match="nested"):
            binio.encode([value])


F32_MARKER = '{"%s":[0,2]}' % MARKER

CORRUPT = {
    "empty": b"",
    "short length prefix": b"\x05\x00",
    "header past the end": struct.pack("<I", 10) + b"[1,2]",
    "header not UTF-8": body(b"\xff\xfe"),
    "header not JSON": body("[1,"),
    "empty header": body(""),
    "int too long to parse": body("1" * 5000),
    "extra JSON": body("[1] 2"),
    "unknown dtype code": body('{"%s":[7,2]}' % MARKER) + bytes(8),
    "dim a string": body('{"%s":[0,"2"]}' % MARKER) + bytes(8),
    "dim a float": body('{"%s":[0,2.0]}' % MARKER) + bytes(8),
    "dim a bool": body('{"%s":[0,true]}' % MARKER) + bytes(4),
    "negative dim": body('{"%s":[0,-2]}' % MARKER),
    "marker without a code": body('{"%s":[]}' % MARKER),
    "marker not a list": body('{"%s":0}' % MARKER),
    "marker with a second key": body('{"%s":[0,2],"x":1}' % MARKER) + bytes(8),
    "more dims than numpy takes": body('{"%s":[0,%s]}' % (MARKER, ",".join(["0"] * 80))),
    "array bytes past the end": body(F32_MARKER) + bytes(7),
    "second array past the end": body("[%s,%s]" % (F32_MARKER, F32_MARKER)) + bytes(12),
    "trailing array bytes": body(F32_MARKER) + bytes(9),
    "trailing bytes": body("null") + b"\x00",
}


class TestDecodeRejects:
    @pytest.mark.parametrize("case", sorted(CORRUPT))
    def test_corrupt_file(self, case):
        with pytest.raises(CorruptFile):
            binio.decode(CORRUPT[case])


@pytest.fixture(scope="module")
def graph_body(tmp_path_factory):
    """The codec body of a real exported graph, without its container header."""
    base = tmp_path_factory.mktemp("graph")
    cfg = corpora.doc_config(str(base), n_train=16, n_eval=8)
    blob = serialize(export_pipeline(instantiate_task(parse_task_config(json.dumps(cfg)))))
    return blob[12:]


def test_every_truncation_is_rejected(graph_body):
    for n in range(len(graph_body)):
        with pytest.raises(CorruptFile):
            binio.decode(graph_body[:n])


def test_byte_flips_decode_or_raise_corrupt_file(graph_body):
    """Every byte of the length prefix and the header, and a sample of the
    array bytes, flipped three ways: each mutant decodes or raises CorruptFile."""
    end = 4 + struct.unpack_from("<I", graph_body)[0]
    rng = np.random.default_rng(0)
    positions = list(range(end)) + rng.integers(end, len(graph_body), 200).tolist()
    outcomes = {"decoded": 0, "rejected": 0}
    for pos in positions:
        for mask in (0x01, 0x20, 0xFF):
            mutant = bytearray(graph_body)
            mutant[pos] ^= mask
            try:
                binio.decode(bytes(mutant))
                outcomes["decoded"] += 1
            except CorruptFile:
                outcomes["rejected"] += 1
    assert outcomes["decoded"] and outcomes["rejected"]


def test_write_file_takes_over_the_temp_file_a_killed_save_left(tmp_path):
    path = str(tmp_path / "model.ckpt")
    binio.write_file(path, b"old")
    with open(path + ".tmp", "wb") as handle:
        handle.write(b"junk from a save killed before its rename" * 100)
    binio.write_file(path, b"new")
    assert os.listdir(tmp_path) == ["model.ckpt"]
    with open(path, "rb") as handle:
        assert handle.read() == b"new"


def test_write_file_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def synced(fd):
        mode = os.fstat(fd).st_mode
        events.append(("fsync", "dir" if stat.S_ISDIR(mode) else "file"))
        fsync(fd)

    def replaced(src, dst):
        events.append(("replace", dst))
        replace(src, dst)
    monkeypatch.setattr(os, "fsync", synced)
    monkeypatch.setattr(os, "replace", replaced)
    path = str(tmp_path / "out.bin")
    binio.write_file(path, b"new")
    assert events == [("fsync", "file"), ("replace", path), ("fsync", "dir")]
    assert os.listdir(tmp_path) == ["out.bin"]
    with open(path, "rb") as handle:
        assert handle.read() == b"new"

    # a failed directory sync is raised and leaves no temp file behind
    def dir_fails(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError("directory sync failed")
        fsync(fd)
    monkeypatch.setattr(os, "fsync", dir_fails)
    with pytest.raises(OSError, match="directory sync failed"):
        binio.write_file(path, b"newer")
    assert os.listdir(tmp_path) == ["out.bin"]
