"""Format round trips and rejection paths for PNM, checkpoints, config."""

import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ivgf import io_formats, pipeline
from ivgf.errors import ConfigError, DimensionError, FormatError, NonFiniteError
from ivgf.io_formats import (
    Config,
    decode_checkpoint,
    encode_checkpoint,
    encode_pgm_labels,
    encode_pnm,
    load_checkpoint,
    load_config,
    parse_config,
    read_pgm_labels,
    read_pnm,
)
from ivgf.params import ParamStore
from ivgf.tensor import Tensor
from oracles import traced_peak


class TestReadPnm:
    def test_p5_range_endpoints(self):
        img = read_pnm(b"P5\n2 1\n255\n" + bytes([0, 255]))
        assert img.shape == (3, 1, 2)
        assert np.array_equal(img.data[:, 0, 0], [0.0, 0.0, 0.0])
        assert np.array_equal(img.data[:, 0, 1], [1.0, 1.0, 1.0])

    def test_p6_pixel_order(self):
        payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 10, 10, 10])
        img = read_pnm(b"P6\n2 2\n255\n" + payload)
        assert img.data[0, 0, 0] == 1.0 and img.data[1, 0, 0] == 0.0  # first pixel is red
        assert img.data[1, 0, 1] == 1.0  # second pixel green
        assert img.data[2, 1, 0] == 1.0  # third pixel blue

    def test_header_comment_and_whitespace_variants(self):
        payload = bytes(range(12))
        canonical = read_pnm(b"P6\n2 2\n255\n" + payload)
        variants = [
            b"P6\n# a comment\n2 2\n255\n" + payload,
            b"P6  2\t2\r\n255\n" + payload,
            b"P6\n2\n# inline\n2\n255\n" + payload,
            b"P6 # right after magic\n2 2 255\n" + payload,
        ]
        for raw in variants:
            assert np.array_equal(read_pnm(raw).data, canonical.data)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_pnm(b"P4\n2 2\n255\n" + bytes(12))

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            read_pnm(b"P6\n2 2\n65535\n" + bytes(24))

    def test_short_payload_reports_offset(self):
        with pytest.raises(FormatError, match="byte offset"):
            read_pnm(b"P6\n2 2\n255\n" + bytes(11))


class TestWritePnm:
    def test_zero_image_payload(self):
        data = encode_pnm(np.zeros((3, 2, 2)))
        assert data == b"P6\n2 2\n255\n" + bytes(12)

    def test_half_rounds_up(self):
        data = encode_pnm(np.full((3, 1, 1), 0.5))
        assert data[-3:] == bytes([128, 128, 128])  # 127.5 rounds away from zero

    def test_round_trip_within_quantization(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 4, 5))
        back = read_pnm(encode_pnm(img))
        assert np.max(np.abs(back.data - img)) <= 0.5 / 255 + 1e-12

    def test_read_write_read_is_exact(self):
        rng = np.random.default_rng(1)
        quantized = read_pnm(encode_pnm(rng.uniform(0, 1, (3, 3, 3))))
        again = read_pnm(encode_pnm(quantized.data))
        assert np.array_equal(quantized.data, again.data)

    def test_out_of_range_rejected(self):
        for value in (1.2, -0.1, np.nan, np.inf):  # a NaN pixel is out of range too
            image = np.full((3, 2, 2), 0.5)
            image[1, 0, 1] = value
            with pytest.raises(FormatError, match="clamp"):
                encode_pnm(image)

    @pytest.mark.parametrize("ids, error", [
        (np.array([[0, 256]]), FormatError),
        (np.array([[-1, 3]]), FormatError),
        (np.zeros((0, 4), dtype=np.int64), DimensionError),
    ])
    def test_label_ids_outside_one_byte_rejected(self, ids, error):
        with pytest.raises(error):
            encode_pgm_labels(ids)

    def test_grayscale_goes_to_p5(self):
        data = encode_pnm(np.full((1, 2, 2), 1.0))
        assert data == b"P5\n2 2\n255\n" + bytes([255] * 4)

    def test_label_round_trip(self, tmp_path):
        ids = np.array([[0, 1], [255, 3]])
        path = tmp_path / "mask.pgm"
        path.write_bytes(encode_pgm_labels(ids))
        assert np.array_equal(read_pgm_labels(path), ids)

    @settings(max_examples=50, deadline=None)
    @given(pixels=hnp.arrays(np.uint8, st.tuples(st.sampled_from([1, 3]), st.integers(1, 6), st.integers(1, 6))))
    def test_8_bit_images_round_trip_exactly(self, pixels):
        data = encode_pnm(pixels / 255.0)
        assert data[:2] == (b"P5" if pixels.shape[0] == 1 else b"P6")
        back = read_pnm(data).data  # P5 comes back as three equal channels
        assert np.array_equal(back, np.broadcast_to(pixels, back.shape) / 255.0)
        assert encode_pnm(back[: pixels.shape[0]]) == data

    @settings(max_examples=50, deadline=None)
    @given(ids=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)))
    def test_8_bit_label_maps_round_trip_exactly(self, tmp_path_factory, ids):
        path = tmp_path_factory.getbasetemp() / "labels.pgm"
        path.write_bytes(encode_pgm_labels(ids))
        back = read_pgm_labels(path)
        assert back.dtype == np.int64 and np.array_equal(back, ids)


# headers close to valid ones reach the size, maxval, separator and payload
# checks; raw bytes cover everything else
_PNM_LIKE = st.one_of(
    st.binary(max_size=48),
    st.builds(
        lambda magic, w, h, maxval, sep, payload: magic + b" %d %d %d" % (w, h, maxval) + sep + payload,
        st.sampled_from([b"P5", b"P6", b"P4", b"P5#c\n"]),
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([255, 0, 65535]),
        st.sampled_from([b"", b" ", b"\n", b"#", b"\r\n"]),
        st.binary(max_size=48),
    ),
)


class TestPnmHeader:
    @pytest.mark.parametrize(
        "raw", [b"P5 2 2 255#" + bytes(4), b"P5 0 3 255\n"], ids=["comment_as_separator", "zero_width"]
    )
    def test_labels_reject_headers_that_images_reject(self, tmp_path, raw):
        path = tmp_path / "mask.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_pnm(raw)
        with pytest.raises(FormatError):
            read_pgm_labels(path)

    def test_labels_reject_p6(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="magic"):
            read_pgm_labels(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=_PNM_LIKE)
    def test_arbitrary_bytes_raise_only_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(raw)
        rejected = []
        for parse in (lambda: read_pnm(raw), lambda: read_pgm_labels(path)):
            try:
                parse()
                rejected.append(False)
            except FormatError:
                rejected.append(True)
        if raw[:2] == b"P5":  # a P5 label map is accepted exactly when the image is
            assert rejected[0] == rejected[1]


def _one_entry_checkpoint(name: bytes, dims, payload: bytes) -> bytes:
    return (b"IVGF" + struct.pack("<III", 1, 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload)


# a valid header and entry count, so that entry parsing is reached; raw bytes
# cover the header checks
_CHECKPOINT_LIKE = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda count, body: b"IVGF" + struct.pack("<II", 1, count) + body,
        st.integers(0, 3),
        st.binary(max_size=64),
    ),
    st.builds(
        _one_entry_checkpoint,
        st.binary(max_size=6),
        st.lists(st.sampled_from([0, 1, 2, 3, 2**16, 2**31, 2**32 - 1]), max_size=4),
        st.binary(max_size=48),
    ),
)


class TestCheckpoint:
    def _store(self, tensors):
        store = ParamStore()
        for name, arr in tensors.items():
            store.add(name, Tensor(arr))
        return store

    def test_empty_store_round_trip(self):
        data = encode_checkpoint(ParamStore())
        assert data == b"IVGF" + (1).to_bytes(4, "little") + (0).to_bytes(4, "little")
        assert len(decode_checkpoint(data)) == 0

    def test_single_tensor_round_trip(self, tmp_path):
        store = self._store({"layer.w": np.array([[1.5, -2.25], [0.125, 3.0]])})
        path = tmp_path / "model.ckpt"
        path.write_bytes(encode_checkpoint(store))
        loaded = load_checkpoint(path)
        assert list(loaded) == ["layer.w"]
        assert loaded["layer.w"].shape == (2, 2)
        assert np.array_equal(loaded["layer.w"], store["layer.w"].data)

    def test_values_survive_within_float32(self):
        rng = np.random.default_rng(2)
        arrays = {"a.w": rng.uniform(-3, 3, (4, 5)), "b.b": rng.uniform(-1, 1, 7)}
        loaded = decode_checkpoint(encode_checkpoint(self._store(arrays)))
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr.astype(np.float32).astype(np.float64))

    def test_name_order_preserved(self):
        arrays = {"z.w": np.ones(2), "a.w": np.zeros(3), "m.w": np.ones(1)}
        loaded = decode_checkpoint(encode_checkpoint(self._store(arrays)))
        assert list(loaded) == ["z.w", "a.w", "m.w"]

    def test_bad_magic_rejected(self):
        data = bytearray(encode_checkpoint(self._store({"a": np.ones(2)})))
        data[0] = ord("X")
        with pytest.raises(FormatError, match="magic"):
            decode_checkpoint(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_checkpoint(ParamStore()))
        data[4] = 9
        with pytest.raises(FormatError, match="version"):
            decode_checkpoint(bytes(data))

    def test_truncation_rejected(self):
        data = encode_checkpoint(self._store({"a": np.ones(4)}))
        for cut in (len(data) - 1, len(data) - 5, 10):
            with pytest.raises(FormatError, match="truncated"):
                decode_checkpoint(data[:cut])

    def test_trailing_bytes_rejected(self):
        data = encode_checkpoint(self._store({"a": np.ones(4)}))
        with pytest.raises(FormatError, match="trailing"):
            decode_checkpoint(data + b"\x00")

    def test_byte_flip_changes_exactly_one_value(self):
        arrays = {"a.w": np.full(6, 0.5), "b.w": np.full(3, 0.5)}
        data = bytearray(encode_checkpoint(self._store(arrays)))
        data[-6] ^= 0x01  # inside the last entry's payload
        loaded = decode_checkpoint(bytes(data))
        diff_a = np.count_nonzero(loaded["a.w"] != 0.5)
        diff_b = np.count_nonzero(loaded["b.w"] != 0.5)
        assert diff_a + diff_b == 1

    def test_non_finite_parameters_refused(self):
        with pytest.raises(NonFiniteError, match="not finite"):
            encode_checkpoint(self._store({"a": np.array([1.0, np.nan])}))

    def test_name_not_utf8_rejected(self):
        data = _one_entry_checkpoint(b"\xffa", (2,), bytes(8))
        with pytest.raises(FormatError, match="UTF-8"):
            decode_checkpoint(data)

    def test_dims_whose_product_overflows_int64_rejected(self):
        # 2**21 * 2**21 * 2**22 wraps to 0 in int64; the exact product fails the length check
        data = _one_entry_checkpoint(b"a", (2**21, 2**21, 2**22), b"")
        with pytest.raises(FormatError, match="truncated"):
            decode_checkpoint(data)

    @pytest.mark.parametrize("dims", [(1,) * 65, (0, 2**31, 2**31)], ids=["65_dims", "empty_but_huge"])
    def test_shape_numpy_cannot_hold_rejected(self, dims):
        data = _one_entry_checkpoint(b"a", dims, bytes(4 if all(dims) else 0))
        with pytest.raises(FormatError, match="shape numpy cannot hold"):
            decode_checkpoint(data)

    @settings(max_examples=200, deadline=None)
    @given(raw=_CHECKPOINT_LIKE)
    def test_arbitrary_bytes_raise_only_format_error(self, raw):
        try:
            decode_checkpoint(raw)
        except FormatError:
            pass

    def test_parameter_overflowing_float32_refused(self):
        # finite in float64, inf once cast to the stored float32
        with pytest.raises(NonFiniteError, match="'b'"):
            encode_checkpoint(self._store({"a": np.ones(2), "b": np.array([1.0, 1e39])}))

    def test_load_writes_in_place(self):
        store = self._store({"a": np.zeros(2), "b": np.zeros((2, 2))})
        before = {name: p.data for name, p in store.items()}
        store.load_arrays({"a": np.array([1.0, 2.0]), "b": np.eye(2)})
        for name, p in store.items():
            assert p.data is before[name]
        assert np.array_equal(store["b"].data, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_of_non_finite_value_refused_and_nothing_written(self, bad):
        store = self._store({"a": np.zeros(2), "b": np.zeros(3)})
        with pytest.raises(NonFiniteError, match="'b'"):
            store.load_arrays({"a": np.ones(2), "b": np.array([1.0, 2.0, bad])})
        assert not store["a"].data.any() and not store["b"].data.any()

    def test_entries_are_read_only_float32_views_of_the_bytes(self):
        data = encode_checkpoint(self._store({"a": np.ones((2, 3)), "b": np.zeros(4)}))
        loaded = decode_checkpoint(data)
        assert len(loaded) == 2
        for name in loaded:
            entry = loaded[name]
            assert entry.dtype == np.dtype("<f4") and not entry.flags.writeable
            assert not entry.flags.owndata  # a view, not a copy
        assert loaded.arrays().keys() == {"a", "b"}

    @settings(max_examples=60, deadline=None)
    @given(entries=st.dictionaries(
        st.text(max_size=8),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        max_size=5,
    ))
    def test_round_trip_is_exact_on_float32_values_and_keeps_order(self, entries):
        store = self._store({name: arr.astype(np.float64) for name, arr in entries.items()})
        loaded = decode_checkpoint(encode_checkpoint(store))
        assert list(loaded) == list(entries)
        target = self._store({name: np.full(arr.shape, 7.0) for name, arr in entries.items()})
        target.load_arrays(loaded.arrays())
        for name, arr in entries.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.astype("<f4").tobytes()  # keeps -0.0 apart from 0.0
            assert target[name].data.tobytes() == arr.astype(np.float64).tobytes()

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_refused_last_entry_of_a_real_file_leaves_every_parameter(self, tmp_path, fault):
        cfg = Config(backbone_base_width=8, head_width=8, data_image_size=32)
        saved = pipeline.build_model(cfg, 2).store
        path = tmp_path / "model.ckpt"
        if fault == "nan":
            data = bytearray(encode_checkpoint(saved))
            data[-4:] = struct.pack("<f", float("nan"))  # last value of the last entry
            path.write_bytes(bytes(data))
        else:
            *head, last = list(dict(saved.items()))
            arrays = {name: saved[name].data for name in head}
            arrays[last] = saved[last].data[..., None]
            path.write_bytes(encode_checkpoint(self._store(arrays)))
        store = pipeline.build_model(cfg, 1).store
        before = {name: p.data.tobytes() for name, p in store.items()}
        error = NonFiniteError if fault == "nan" else DimensionError
        with pytest.raises(error, match=repr(list(dict(store.items()))[-1])):
            store.load_arrays(load_checkpoint(path).arrays())
        assert {name: p.data.tobytes() for name, p in store.items()} == before

    def test_load_peak_memory_is_about_one_file(self, tmp_path):
        # the file's bytes are the one buffer: no float64 copy, no per-entry slices
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")
        store = pipeline.build_model(cfg, 1).store
        path = tmp_path / "model.ckpt"
        path.write_bytes(encode_checkpoint(pipeline.build_model(cfg, 2).store))
        _, peak, _ = traced_peak(lambda: store.load_arrays(load_checkpoint(path).arrays()))
        assert peak < 1.25 * path.stat().st_size

    def test_build_peak_memory_is_about_the_parameters(self):
        # parameters are drawn in place, FILL_CHUNK values at a time: no whole-size temporaries
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "toy.cfg")
        store, peak, _ = traced_peak(lambda: pipeline.build_model(cfg, 3).store)
        assert peak <= sum(p.data.nbytes for p in store.values()) + 2 * 2**20


# lines that name real keys reach the value parsers and the cross-key checks;
# raw text covers the line syntax
_CONFIG_LIKE = st.one_of(
    st.text(max_size=80),
    st.lists(
        st.builds(
            lambda key, sep, value: f"{key}{sep}{value}",
            st.sampled_from([line.split(" = ")[0] for line in Config().dump().splitlines()]),
            st.sampled_from([" = ", "=", " ", " = # "]),
            st.one_of(st.text(max_size=12), st.integers(-(2**70), 2**70).map(str),
                      st.floats(allow_nan=True).map(repr), st.sampled_from(["true", "false", "serial", "1e999"])),
        ),
        max_size=6,
    ).map("\n".join),
)


class TestConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == Config()
        assert cfg.train_lr == 1e-4 and cfg.train_weight_decay == 0.05

    def test_values_and_comments(self):
        cfg = parse_config(
            """
            # toy setup
            fem.mode = serial
            agf.heads = 8   # inline comment
            train.lr = 0.003
            aug.enabled = false
            """
        )
        assert cfg.fem_mode == "serial"
        assert cfg.agf_heads == 8
        assert cfg.train_lr == 0.003
        assert cfg.aug_enabled is False

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("fem.mode = parallel\nfem.depth = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("train.lr = 0.1\ntrain.lr = 0.2\n")

    def test_type_mismatch_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*train.lr"):
            parse_config("train.lr = fast\n")

    def test_out_of_range_value(self):
        with pytest.raises(ConfigError, match="aug.p_cutmix"):
            parse_config("aug.p_cutmix = 1.5\n")

    def test_enum_value_rejected(self):
        with pytest.raises(ConfigError, match="fem.mode"):
            parse_config("fem.mode = diagonal\n")

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="divide"):
            parse_config("agf.heads = 3\n")  # base width 32

    def test_image_size_must_be_divisible_by_32(self):
        with pytest.raises(ConfigError, match="divisible by 32"):
            parse_config("data.image_size = 48\n")

    def test_cutout_cells_bounded_by_grid(self):
        with pytest.raises(ConfigError, match="cutout_cells"):
            parse_config("aug.grid_rows = 2\naug.grid_cols = 2\naug.cutout_cells = 5\n")

    @pytest.mark.parametrize("classes", ["256", "300"])
    def test_classes_must_stay_below_the_ignore_label(self, classes):
        with pytest.raises(ConfigError, match=r"line 2: bad value for 'head.classes': must lie in \[2, 255\]"):
            parse_config(f"head.width = 8\nhead.classes = {classes}\n")
        assert parse_config("head.classes = 255\n").head_classes == 255

    @pytest.mark.parametrize("line, message", [
        ("agf.heads = 0", "must be >= 1"),
        ("tem.adapters = -1", "must be >= 0"),
        ("data.image_size = 31", "must lie in [32, 65536]"),
        ("head.classes = 1", "must lie in [2, 255]"),
        ("aug.p_cutmix = -0.5", "must lie in [0.0, 1.0]"),
        ("aug.p_cutout = nan", "must lie in [0.0, 1.0]"),
        ("aug.p_cutout = -0.1", "must lie in [0.0, 1.0]"),
        ("aug.grid_rows = 0", "must be >= 1"),
        ("train.lr = 0", "must be > 0"),
        ("train.lr = inf", "must be > 0"),
        ("train.weight_decay = -1e-9", "must be >= 0"),
        ("train.weight_decay = nan", "must be >= 0"),
        ("aug.fill_value = -inf", "must be finite"),
        ("aug.enabled = yes", "expected true or false"),
        ("fem.mode = diagonal", "expected one of parallel, serial, channel_only, spatial_only"),
        ("agf.heads = 1.5", "invalid literal for int() with base 10: '1.5'"),
        ("train.lr = fast", "could not convert string to float: 'fast'"),
    ])
    def test_each_rule_kind_states_its_message(self, line, message):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as exc:
            parse_config(f"# rules\n{line}\n")
        assert str(exc.value) == f"line 2: bad value for {key!r}: {message}"

    def test_every_key_names_a_config_field_and_dump_lists_them_all(self):
        keys = set(io_formats._KEYS)
        assert {key.replace(".", "_") for key in keys} == {f.name for f in dataclasses.fields(Config)}
        assert [line.split(" = ")[0] for line in Config().dump().splitlines()] == sorted(keys)

    def test_a_seed_beyond_float_range_parses(self):
        digits = "9" * 400
        cfg = parse_config(f"train.seed = {digits}\n")
        assert cfg.train_seed == int(digits)
        assert parse_config(cfg.dump()) == cfg

    def test_dump_round_trips(self):
        cfg = parse_config("fem.mode = serial\ntrain.lr = 0.003\n")
        again = parse_config(cfg.dump())
        assert again == cfg

    @settings(max_examples=200, deadline=None)
    @given(text=_CONFIG_LIKE)
    def test_arbitrary_text_raises_only_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass

    def test_widths_schedule(self):
        assert Config().widths() == (32, 64, 128, 256)
        assert Config(backbone_base_width=8).widths() == (8, 16, 32, 64)
