"""Unit tests for trace file I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.io import TraceFormatError, load_trace, save_trace
from repro.traces.synthetic import SyntheticConfig, generate_synthetic


@pytest.fixture
def trace():
    return generate_synthetic(SyntheticConfig(duration=5.0, rate=40.0,
                                              num_extents=32, seed=8))


def test_roundtrip(tmp_path, trace):
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.num_extents == trace.num_extents
    assert np.allclose(loaded.times, trace.times)
    assert np.array_equal(loaded.kinds, trace.kinds)
    assert np.array_equal(loaded.extents, trace.extents)
    assert np.array_equal(loaded.sizes, trace.sizes)


def test_gzip_roundtrip(tmp_path, trace):
    path = tmp_path / "trace.csv.gz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    # File must actually be gzip.
    with open(path, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,kind,extent,offset,size\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_bad_kind_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        "0.5,Q,1,0,4096\n"
    )
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        "0.5,R,1\n"
    )
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_missing_num_extents_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# repro-trace v1 name=x\ntime,kind,extent,offset,size\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_unexpected_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# repro-trace v1 name=x num_extents=4\na,b\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_empty_trace_roundtrip(tmp_path):
    from repro.traces.model import TraceBuilder

    path = tmp_path / "empty.csv"
    save_trace(TraceBuilder("empty", 8).build(), path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.num_extents == 8


# -- header escaping (names with whitespace / '=' / '%') ---------------------


@pytest.mark.parametrize("name", [
    "a b",                 # space: was truncated at the first token split
    "x=y",                 # '=': was split as a key=value header token
    "oltp+2.5s",           # '+' and '.' in a transform-style suffix
    "a b=c 100%",          # both, plus a literal % (escaping metachar)
    "trace\tname",         # tab is whitespace too
    "ünïcode",             # non-ASCII survives the UTF-8 + quote round-trip
])
def test_adversarial_name_roundtrip(tmp_path, name):
    from repro.traces.transforms import concat
    from tests.conftest import make_trace

    trace = concat([make_trace([0.0, 1.0], num_extents=8)], name=name)
    path = tmp_path / "named.csv"
    save_trace(trace, path)
    assert load_trace(path).name == name


def test_transform_produced_names_roundtrip(tmp_path):
    """Names the transforms produce survive a save/load."""
    from repro.traces.transforms import concat, sample_fraction
    from tests.conftest import make_trace

    base = make_trace([0.0, 1.0], num_extents=8)
    for trace in (sample_fraction(base, 0.5), concat([base, base], gap_s=1.0, name="a b")):
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        assert load_trace(path).name == trace.name


def test_plain_names_written_verbatim(tmp_path, trace):
    """Names without metacharacters keep the old on-disk representation,
    so files from older writers stay loadable and vice versa."""
    path = tmp_path / "plain.csv"
    save_trace(trace, path)
    header = path.read_text().splitlines()[0]
    assert f"name={trace.name}" in header


# -- field-conversion errors carry file/line context -------------------------


def test_bad_num_extents_header_has_context(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=eight\n"
        "time,kind,extent,offset,size\n"
    )
    with pytest.raises(TraceFormatError, match=r"bad\.csv:1: num_extents"):
        load_trace(path)


@pytest.mark.parametrize("row,label", [
    ("zero,R,1,0,4096", "time"),
    ("0.5,R,one,0,4096", "extent"),
    ("0.5,R,1,nil,4096", "offset"),
    ("0.5,R,1,0,4k", "size"),
])
def test_bad_numeric_field_has_context(tmp_path, row, label):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# repro-trace v1 name=x num_extents=4\n"
        "time,kind,extent,offset,size\n"
        f"{row}\n"
    )
    with pytest.raises(TraceFormatError, match=rf"bad\.csv:3: {label}"):
        load_trace(path)


# -- hypothesis round-trip properties ----------------------------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=0, max_size=24,
)

_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32),
        st.booleans(),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=2**53),  # large byte offsets
        st.integers(min_value=1, max_value=2**40),
    ),
    max_size=20,
)


def _build(name, rows):
    import numpy as np

    from repro.traces.model import Trace

    rows = sorted(rows, key=lambda r: r[0])
    return Trace(
        name=name,
        num_extents=64,
        times=np.asarray([r[0] for r in rows], dtype=np.float64),
        kinds=np.asarray([0 if r[1] else 1 for r in rows], dtype=np.int8),
        extents=np.asarray([r[2] for r in rows], dtype=np.int64),
        offsets=np.asarray([r[3] for r in rows], dtype=np.int64),
        sizes=np.asarray([r[4] for r in rows], dtype=np.int64),
    )


@settings(max_examples=40, deadline=None)
@given(name=_names, rows=_rows, gz=st.booleans())
def test_roundtrip_property(tmp_path_factory, name, rows, gz):
    trace = _build(name, rows)
    path = tmp_path_factory.mktemp("hyp") / ("t.csv.gz" if gz else "t.csv")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.num_extents == trace.num_extents
    assert len(loaded) == len(trace)
    # Times are written with 9 fractional digits; everything else exactly.
    assert np.allclose(loaded.times, trace.times, atol=1e-9, rtol=0)
    assert np.array_equal(loaded.kinds, trace.kinds)
    assert np.array_equal(loaded.extents, trace.extents)
    assert np.array_equal(loaded.offsets, trace.offsets)
    assert np.array_equal(loaded.sizes, trace.sizes)
