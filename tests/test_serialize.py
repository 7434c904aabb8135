"""The binary container: exact round trips, a closed failure on every malformed
file and the pinned bytes of each saved record; the report-table writer's exact
bytes; and the JSON writer's refusal of non-finite numbers."""

import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import eeg, nn, pipeline, serialize
from eegspeech.errors import DataError, NumericError

ARRAYS = {"a": np.arange(4, dtype=np.float64).reshape(2, 2), "b": np.array([7, -1], dtype=np.int64)}


def _container(tmp_path, arrays=ARRAYS):
    path = tmp_path / "x.bin"
    serialize.save_container(path, "test", {"k": 1}, arrays)
    return path


def _with_header(path, edit) -> None:
    """Rewrite the header JSON of the container at `path` in place, keeping its blobs."""
    raw = path.read_bytes()
    hlen = int(np.frombuffer(raw[12:20], dtype=np.uint64)[0])
    header = json.loads(raw[20 : 20 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(raw[:12] + np.uint64(len(text)).tobytes() + text + raw[20 + hlen :])


def test_round_trip_is_exact(tmp_path, rng):
    arrays = {"x": rng.standard_normal((3, 5)), "y": rng.standard_normal(4).astype(np.float32),
              "empty": np.zeros((0, 155))}
    kind, meta, back = serialize.load_container(_container(tmp_path, arrays), expect_kind="test")
    assert (kind, meta) == ("test", {"k": 1})
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and np.array_equal(back[name], arr)


def test_wrong_kind_is_data_error(tmp_path):
    with pytest.raises(DataError, match="expected 'other'"):
        serialize.load_container(_container(tmp_path), expect_kind="other")


@pytest.mark.parametrize("shape", [[-1, 2], [2, -2], [2.0, 2], ["2", 2], [True, 4], None, 4])
def test_bad_shape_entry_is_data_error(tmp_path, shape):
    path = _container(tmp_path)
    _with_header(path, lambda h: h["arrays"][0].update(shape=shape))
    with pytest.raises(DataError, match="bad array entry"):
        serialize.load_container(path)


def test_trailing_bytes_are_data_error(tmp_path):
    path = _container(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="1 bytes after the last array"):
        serialize.load_container(path)


def test_truncated_blob_is_data_error(tmp_path):
    path = _container(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match="truncated container"):
        serialize.load_container(path)


def test_header_length_past_end_is_data_error(tmp_path):
    path = _container(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:12] + np.uint64(len(raw)).tobytes() + raw[20:])
    with pytest.raises(DataError, match="truncated container header"):
        serialize.load_container(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_ENTRY = st.fixed_dictionaries({
    "name": st.text(max_size=4) | _JSON,
    "dtype": st.sampled_from(["float32", "float64", "int64", "float16"]) | _JSON,
    "shape": st.lists(st.integers(-3, 6) | _JSON, max_size=3) | _JSON,
})
_HEADER = st.fixed_dictionaries(
    {"kind": st.text(max_size=4) | _JSON, "meta": _JSON, "arrays": st.lists(_ENTRY, max_size=3) | _JSON}
) | _JSON


@given(header=_HEADER, blob=st.binary(max_size=200), version=st.sampled_from([1, 1, 1, 2]))
@settings(max_examples=300, deadline=None)
def test_fuzz_crafted_headers_raise_only_data_error(header, blob, version, tmp_path_factory):
    text = json.dumps(header).encode()
    path = tmp_path_factory.mktemp("c") / "fuzz.bin"
    path.write_bytes(serialize.MAGIC + np.uint32(version).tobytes() + np.uint64(len(text)).tobytes() + text + blob)
    try:
        serialize.load_container(path)
    except DataError:
        pass


@given(cut=st.integers(0, 400), flips=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 255)), max_size=4),
       tail=st.binary(max_size=16))
@settings(max_examples=300, deadline=None)
def test_fuzz_damaged_containers_raise_only_data_error(cut, flips, tail, tmp_path_factory):
    path = _container(tmp_path_factory.mktemp("c"))
    raw = bytearray(path.read_bytes())
    for pos, mask in flips:
        if pos < len(raw):
            raw[pos] ^= mask
    path.write_bytes(bytes(raw[: max(cut, 0)]) + tail)
    try:
        serialize.load_container(path)
    except DataError:
        pass


@pytest.mark.parametrize("comment, head", [(None, b""), ("batch_size=4 epochs=2", b"# batch_size=4 epochs=2\n")],
                         ids=["plain", "commented"])
def test_write_csv_round_trip(tmp_path, comment, head):
    path = tmp_path / "table.csv"
    header, rows = ("scope", "component", "cumulative_fraction"), [("pooled", "1", "0.25"), ("pooled", "2", "")]
    serialize.write_csv(path, header, iter(rows), comment)
    assert path.read_bytes() == head + b"scope,component,cumulative_fraction\npooled,1,0.25\npooled,2,\n"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ") == (comment is not None)
    assert list(csv.reader(lines[comment is not None:])) == [list(header), *map(list, rows)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_number(tmp_path, value):
    path = tmp_path / "metrics.json"
    serialize.write_json(path, {"rows": [{"rmse": 1.0}]})
    before = path.read_bytes()
    with pytest.raises(NumericError, match=path.name):
        serialize.write_json(path, {"rows": [{"rmse": value}]})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def _pinned_kpca(path) -> None:
    # small exact arrays, so no BLAS result enters the bytes
    eeg.save_kpca(eeg.KpcaModel(
        train_vectors=np.arange(12.0).reshape(4, 3) / 8, coefficients=np.arange(8.0).reshape(4, 2) / 16 - 0.25,
        eigenvalues=np.array([2.0, 0.5]), degree=3, gamma=0.125, coef0=1.0,
        row_means=np.array([0.25, 0.5, 0.75, 1.0]), grand_mean=0.375, total_variance=3.5, effective_rank=2,
    ), path)


def _pinned_synthesis(path) -> None:
    nn.build_synthesis_model(seed=3, filters=(8, 4), kernel_size=3, dropout_rate=0.2).save(path)


def _pinned_bundle(path) -> None:
    model = nn.build_regression_model(out_dim=6, seed=3, hidden=8, in_dim=30, dropout_rate=0.2)
    pipeline.RegressorBundle(
        "tonnetz", model,
        pipeline.Scaler(np.linspace(-1.0, 1.0, 30), np.linspace(0.5, 2.0, 30)),
        pipeline.Scaler(np.linspace(-0.5, 0.5, 6), np.linspace(1.0, 3.0, 6)),
    ).save(path)


# SHA-256 of each record as written, and again after a load -> save round trip
PINNED = {
    "kpca": "5cb916ed902f19ae133f9f9a5eb7b61474423df8184cbdbb6203d1fff8521eaa",
    "synthesis": "b2b46662353917604e5d1eb6245326942a99ed503bd421d1d29ea9acbd50c607",
    "bundle": "70b03b6731c737bc589106db66001f1062a85849b07faa15dcc2446985875c11",
}


@pytest.mark.parametrize("record, write, resave", [
    ("kpca", _pinned_kpca, lambda p: eeg.save_kpca(eeg.load_kpca(p), p)),
    ("synthesis", _pinned_synthesis, lambda p: nn.load_model(p).save(p)),
    ("bundle", _pinned_bundle, lambda p: pipeline.RegressorBundle.load(p).save(p)),
])
def test_saved_record_bytes_are_pinned(tmp_path, record, write, resave):
    # a changed header, field or array order moves these digests: change the format on purpose
    path = tmp_path / "record"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[record]
    resave(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[record]
