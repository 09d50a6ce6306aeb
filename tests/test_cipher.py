import hashlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_image, reference_encrypt, reference_round
from permbreak.cipher import (
    PermutationMap,
    ShapeError,
    apply_inverse,
    apply_map,
    compose_permutation,
    decrypt,
    encrypt,
    expand_to_bits,
    load_permutation,
    pack_to_image,
    save_permutation,
)
from permbreak.keystream import Key, build_schedule, random_key

REFERENCE_KEY = Key(0.2009, 3.98, 20, 51, 4)

small_images = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 255),
)


def random_schedule(rng, rows, cols):
    row_perm = rng.permutation(rows)
    col_perms = np.stack([rng.permutation(cols) for _ in range(rows)])
    return row_perm, col_perms


class TestBitExpansion:
    def test_five_is_bits_one_and_four(self):
        assert expand_to_bits([[5]]).tolist() == [[1, 0, 1, 0, 0, 0, 0, 0]]

    def test_zero_pixel_gives_zero_row(self):
        assert expand_to_bits([[0]]).tolist() == [[0] * 8]

    def test_two_pixel_row(self):
        bits = expand_to_bits([[255, 128]])
        assert bits.tolist() == [[1] * 8 + [0] * 7 + [1]]

    def test_pack_all_ones(self):
        assert pack_to_image(np.ones((1, 8), dtype=np.uint8)).tolist() == [[255]]

    def test_pack_single_second_bit(self):
        assert pack_to_image([[0, 1, 0, 0, 0, 0, 0, 0]]).tolist() == [[2]]

    @given(small_images)
    def test_pack_inverts_expand(self, img):
        assert np.array_equal(pack_to_image(expand_to_bits(img)), img)

    def test_pack_rejects_ragged_width(self):
        with pytest.raises(ShapeError):
            pack_to_image(np.zeros((2, 12), dtype=np.uint8))

    def test_expand_rejects_out_of_range_values(self):
        with pytest.raises(ShapeError):
            expand_to_bits([[256]])

    @pytest.mark.parametrize("value", [0.9, 1.7, -1])
    def test_pack_rejects_non_bit_entries(self, value):
        # a cast before the check would pack 0.9 to [[0]] and 1.7 to [[255]]
        with pytest.raises(ShapeError):
            pack_to_image(np.full((1, 8), value))

    @pytest.mark.parametrize("img", [[[5.0]], [[-1]], [[]], [5]])
    def test_expand_rejects_non_image_grids(self, img):
        with pytest.raises(ShapeError):
            expand_to_bits(np.asarray(img))

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, bool])
    def test_integer_and_bool_grids_act_like_uint8(self, dtype):
        bits = np.array([[1, 0, 1, 0, 0, 0, 0, 1]])
        assert pack_to_image(bits.astype(dtype)).tolist() == [[133]]
        img = np.array([[100, 1, 0]]).astype(dtype)
        assert expand_to_bits(img).tolist() == expand_to_bits(img.astype(np.uint8)).tolist()


class TestRounds:
    """The per-round definition (the reference oracle) and encrypt/decrypt
    against it."""

    def test_identity_schedule_is_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(4, 16), dtype=np.uint8)
        row_perm = np.arange(4)
        col_perms = np.tile(np.arange(16), (4, 1))
        assert np.array_equal(reference_round(bits, row_perm, col_perms), bits)

    def test_row_swap(self):
        bits = np.vstack([np.zeros(8, dtype=np.uint8), np.ones(8, dtype=np.uint8)])
        row_perm = np.array([1, 0])
        col_perms = np.tile(np.arange(8), (2, 1))
        assert np.array_equal(reference_round(bits, row_perm, col_perms), bits[::-1])

    def test_all_zero_input_stays_zero(self):
        rng = np.random.default_rng(1)
        row_perm, col_perms = random_schedule(rng, 3, 24)
        zero = np.zeros((3, 24), dtype=np.uint8)
        assert np.array_equal(reference_round(zero, row_perm, col_perms), zero)

    def test_decrypt_round_inverts_encrypt_round(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            key = random_key(rng)
            img = random_image(rng, 5, 5)
            assert np.array_equal(decrypt(reference_encrypt(img, key), key), img)

    def test_decrypt_round_matches_inverted_position_table(self):
        # build a one-round key's position bijection explicitly, invert it
        # as a table, and check decrypt against that brute-force inverse
        rng = np.random.default_rng(3)
        key = Key(0.7, 3.99, 2, 3, 1)
        rows, width = 4, 2
        cols = 8 * width
        img = random_image(rng, rows, width)
        row_perm, col_perms, _ = build_schedule(key, rows, cols)
        scrambled = expand_to_bits(encrypt(img, key))
        undone = np.empty_like(scrambled)
        for i in range(rows):
            for l in range(cols):
                undone[int(row_perm[i]), int(col_perms[i, l])] = scrambled[i, l]
        assert np.array_equal(expand_to_bits(decrypt(pack_to_image(scrambled), key)), undone)

    def test_shape_mismatch_rejected(self):
        # a one-round key's composed map, forward and inverse, refuses a
        # bit grid of any other shape
        pmap = compose_permutation(Key(0.7, 3.99, 2, 3, 1), 3, 1)
        with pytest.raises(ShapeError):
            apply_map(pmap, np.zeros((4, 8), dtype=np.uint8))
        with pytest.raises(ShapeError):
            apply_inverse(pmap, np.zeros((3, 9), dtype=np.uint8))

    @given(
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(1, 4),
        height=st.integers(1, 6),
        width=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_encrypt_matches_reference_bit_exactly(self, seed, rounds, height, width):
        rng = np.random.default_rng(seed)
        key = replace(random_key(rng), rounds=rounds)
        img = random_image(rng, height, width)
        expected = reference_encrypt(img, key)
        assert np.array_equal(encrypt(img, key), expected)
        assert np.array_equal(encrypt(img, replace(key, x0=1.0 - key.x0)), expected)
        assert np.array_equal(decrypt(expected, key), img)


class TestEncryptDecrypt:
    def test_round_trip_on_50_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            key = random_key(rng)
            img = random_image(rng, 8, 8)
            assert np.array_equal(decrypt(encrypt(img, key), key), img)

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 5),
        width=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed, height, width):
        rng = np.random.default_rng(seed)
        key = random_key(rng)
        img = random_image(rng, height, width)
        assert np.array_equal(decrypt(encrypt(img, key), key), img)

    def test_single_round_key_is_one_round(self):
        key = Key(0.2009, 3.98, 20, 51, 1)
        img = random_image(np.random.default_rng(6), 4, 4)
        row_perm, col_perms, _ = build_schedule(key, 4, 32)
        expected = pack_to_image(reference_round(expand_to_bits(img), row_perm, col_perms))
        assert np.array_equal(encrypt(img, key), expected)

    def test_zero_image_is_fixed_point(self):
        zero = np.zeros((6, 6), dtype=np.uint8)
        assert np.array_equal(encrypt(zero, REFERENCE_KEY), zero)
        assert np.array_equal(decrypt(zero, REFERENCE_KEY), zero)

    def test_saturated_image_is_fixed_point(self):
        full = np.full((6, 6), 255, dtype=np.uint8)
        assert np.array_equal(encrypt(full, REFERENCE_KEY), full)

    def test_mirrored_seed_encrypts_identically(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            key = random_key(rng)
            mirrored = Key(1.0 - key.x0, key.mu, key.row_offset, key.col_offset, key.rounds)
            img = random_image(rng, 8, 8)
            assert np.array_equal(encrypt(img, key), encrypt(img, mirrored))

    def test_bit_count_is_conserved(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            key = random_key(rng)
            img = random_image(rng, 8, 8)
            enc = encrypt(img, key)
            assert expand_to_bits(enc).sum() == expand_to_bits(img).sum()

    def test_reseeding_changes_later_rounds(self):
        # rounds must not reuse round 1's schedule verbatim
        one = Key(0.2009, 3.98, 20, 51, 1)
        two = Key(0.2009, 3.98, 20, 51, 2)
        img = random_image(np.random.default_rng(9), 8, 8)
        once = encrypt(img, one)
        assert not np.array_equal(encrypt(img, two), encrypt(once, one))
        _, first_cols, final_state = build_schedule(two, 8, 64)
        _, second_cols, _ = build_schedule(replace(two, x0=final_state), 8, 64)
        assert not np.array_equal(first_cols, second_cols)


class TestComposePermutation:
    def test_matches_encrypt_on_20_random_images(self):
        rng = np.random.default_rng(10)
        pmap = compose_permutation(REFERENCE_KEY, 8, 8)
        for _ in range(20):
            img = random_image(rng, 8, 8)
            assert np.array_equal(
                apply_map(pmap, expand_to_bits(img)), expand_to_bits(encrypt(img, REFERENCE_KEY))
            )

    def test_single_round_is_inverse_of_gather(self):
        key = Key(0.7, 3.99, 2, 3, 1)
        rows, width = 3, 2
        cols = 8 * width
        row_perm, col_perms, _ = build_schedule(key, rows, cols)
        pmap = compose_permutation(key, rows, width)
        for i in range(rows):
            for l in range(cols):
                src = int(row_perm[i]) * cols + int(col_perms[i, l])
                assert pmap.target[src] == i * cols + l

    def test_target_is_bijection(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pmap = compose_permutation(random_key(rng), 4, 4)
            assert sorted(pmap.target.tolist()) == list(range(4 * 32))

    def test_inverse_of_truth_decrypts(self):
        rng = np.random.default_rng(12)
        key = random_key(rng)
        img = random_image(rng, 8, 8)
        pmap = compose_permutation(key, 8, 8)
        cipher_bits = expand_to_bits(encrypt(img, key))
        assert np.array_equal(pack_to_image(apply_inverse(pmap, cipher_bits)), img)


class TestComposeCache:
    def test_same_key_and_shape_reuse_one_map(self):
        assert compose_permutation(REFERENCE_KEY, 3, 2) is compose_permutation(REFERENCE_KEY, 3, 2)

    def test_cached_target_is_read_only(self):
        pmap = compose_permutation(REFERENCE_KEY, 3, 2)
        with pytest.raises(ValueError):
            pmap.target[0] = pmap.target[1]

    @pytest.mark.parametrize("shape", [(3, 4), (5, 2)])
    def test_alternating_keys_match_reference(self, shape):
        rng = np.random.default_rng(15)
        key_a, key_b = random_key(rng), random_key(rng)
        img = random_image(rng, *shape)
        for key in (key_a, key_b, key_a):
            expected = reference_encrypt(img, key)
            assert np.array_equal(encrypt(img, key), expected)
            assert np.array_equal(decrypt(expected, key), img)


class TestPermutationMap:
    def test_identity_map_round_trip(self):
        pmap = PermutationMap(2, 8, np.arange(16, dtype=np.int64))
        grid = np.arange(16, dtype=np.uint8).reshape(2, 8)
        assert np.array_equal(apply_map(pmap, grid), grid)
        assert np.array_equal(apply_inverse(pmap, grid), grid)

    def test_apply_then_inverse_round_trip(self):
        rng = np.random.default_rng(13)
        pmap = PermutationMap(4, 8, rng.permutation(32).astype(np.int64))
        grid = rng.integers(0, 2, size=(4, 8), dtype=np.uint8)
        assert np.array_equal(apply_inverse(pmap, apply_map(pmap, grid)), grid)

    def test_rejects_non_bijection(self):
        with pytest.raises(ShapeError):
            PermutationMap(1, 4, np.array([0, 0, 1, 2]))

    @pytest.mark.parametrize(
        "target",
        [np.array([0.0, 1.0]), np.array([True, False])],
        ids=["float", "bool"],
    )
    def test_rejects_non_integer_target(self, target):
        with pytest.raises(ShapeError, match="integers"):
            PermutationMap(1, 2, target)

    @pytest.mark.parametrize("target", [[0, -1, 2], [0, 1, 3]], ids=["negative", "past_end"])
    def test_rejects_entry_outside_grid(self, target):
        with pytest.raises(ShapeError, match=r"outside \[0, 3\)"):
            PermutationMap(1, 3, np.array(target, dtype=np.int64))

    def test_rejects_mismatched_grid(self):
        pmap = PermutationMap(2, 8, np.arange(16, dtype=np.int64))
        with pytest.raises(ShapeError):
            apply_map(pmap, np.zeros((2, 9), dtype=np.uint8))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        # 37x37 pixels is 10952 lines: more than two chunks of the writer
        # and not a multiple of its chunk length.
        for height, width in ((3, 2), (37, 37)):
            pmap = compose_permutation(random_key(rng), height, width)
            path = tmp_path / "map.txt"
            save_permutation(pmap, path)
            loaded = load_permutation(path)
            assert loaded.rows == pmap.rows and loaded.cols == pmap.cols
            assert np.array_equal(loaded.target, pmap.target)

    def test_saved_header_and_quadruples(self, tmp_path):
        pmap = PermutationMap(1, 8, np.roll(np.arange(8, dtype=np.int64), -1))
        path = tmp_path / "map.txt"
        save_permutation(pmap, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "1 8"
        assert lines[1].split() == ["0", "0", "0", "1"]
        assert len(lines) == 9

    # sha256 of save_permutation's output, recorded with the np.savetxt writer.
    @pytest.mark.parametrize(
        "make, head, digest",
        [
            (
                lambda: compose_permutation(REFERENCE_KEY, 37, 37),
                b"37 296\n0 0 35 75\n",
                "95fcba01ca4d034b7937f2473ec807b7707edcdfc1010ec63bbacdacc408f5c6",
            ),
            (
                lambda: PermutationMap(1, 1, np.arange(1, dtype=np.int64)),
                b"1 1\n0 0 0 0\n",
                "d57dde15b8c3ea6c108742be0146611a65fc342e67ef6343ea726a6432240ade",
            ),
            (
                lambda: PermutationMap(1, 8, np.roll(np.arange(8, dtype=np.int64), -1)),
                b"1 8\n0 0 0 1\n",
                "f7bb8df561c7987d649b277d2ec9b8b6950c007e4a2e4f0026dd5aaa3d2ae563",
            ),
        ],
        ids=["37x37_three_chunks", "1x1_identity", "1x8_roll"],
    )
    def test_saved_bytes_match_golden(self, tmp_path, make, head, digest):
        path = tmp_path / "map.txt"
        save_permutation(make(), path)
        data = path.read_bytes()
        assert data.startswith(head)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("header", ["0 5", "-1 -1", "a b", "2", "2 8 1", "", "1_0 8"])
    def test_load_rejects_bad_header(self, tmp_path, header):
        path = tmp_path / "map.txt"
        path.write_text(header + "\n0 0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"header of two integers >= 1, got '{header}'"):
                load_permutation(path)

    def test_load_rejects_missing_body_without_warning(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 8\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="expected 8 quadruples"):
                load_permutation(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 8\n0 0 0 1\n")
        with pytest.raises(ShapeError):
            load_permutation(path)

    def test_load_rejects_aliased_column(self, tmp_path):
        # column 2 of row 0 would alias cell (1, 0) and load as the identity
        path = tmp_path / "map.txt"
        path.write_text("2 2\n0 0 0 0\n0 1 0 1\n0 2 1 0\n1 1 1 1\n")
        with pytest.raises(ShapeError, match=r"quadruple 3 \(0 2 1 0\).*outside the 2x2 grid"):
            load_permutation(path)

    def test_load_rejects_negative_index(self, tmp_path):
        # column -1 would alias the last cell and load as the identity
        path = tmp_path / "map.txt"
        path.write_text("1 2\n0 -1 0 1\n0 0 0 0\n")
        with pytest.raises(ShapeError, match=r"quadruple 1 \(0 -1 0 1\).*outside"):
            load_permutation(path)

    def test_load_rejects_index_past_the_grid(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n0 0 0 0\n0 1 5 1\n")
        with pytest.raises(ShapeError, match=r"quadruple 2 \(0 1 5 1\).*outside"):
            load_permutation(path)

    def test_load_rejects_duplicated_source_line(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n0 0 0 1\n0 0 0 1\n")
        message = rf"^{re.escape(str(path))}: quadruple 2 \(0 0 0 1\) repeats"
        with pytest.raises(ShapeError, match=message):
            load_permutation(path)

    def test_load_rejects_non_ascii_byte_naming_the_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n0 0 0 1\n0 \u0663 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not ascii text: byte 0xd9"):
            load_permutation(path)


@st.composite
def mutated_map_text(draw, text):
    """One mutation of a saved map file's text."""
    lines = text.splitlines()
    rows, cols = (int(v) for v in lines[0].split())
    token = st.one_of(
        st.integers(-10, -1).map(str),
        st.integers(max(rows, cols), 10**20).map(str),
        st.sampled_from(["", "x", "1.5", "0x1", "1e3", "nan", "#", "+1", "٣", "\x00"]),
    )
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "field", "header"]))
    line = draw(st.integers(1, len(lines) - 1))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "drop":
        lines = lines[:line] + lines[line + 1 :]
    elif kind == "duplicate":
        lines = lines[: line + 1] + lines[line:]
    elif kind == "field":
        fields = lines[line].split(" ")
        fields[draw(st.integers(0, 3))] = draw(token)
        lines[line] = " ".join(fields)
    else:
        header_token = st.one_of(st.integers(0, 5).map(str), token)
        lines[0] = " ".join(draw(st.lists(header_token, max_size=3)))
    return "\n".join(lines) + "\n"


class TestLoadPermutationFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_file_is_rejected_or_loads_its_header_shape(self, tmp_path_factory, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        target = np.array(data.draw(st.permutations(range(rows * cols))), dtype=np.int64)
        path = tmp_path_factory.mktemp("fuzz") / "map.txt"
        save_permutation(PermutationMap(rows, cols, target), path)
        text = data.draw(mutated_map_text(path.read_text()))
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pmap = load_permutation(path)
            except ValueError as exc:  # ShapeError, or a decode error; the CLI reports both
                assert str(exc).startswith(f"{path}: ")
                return
        rows, cols = (int(v) for v in text.split("\n", 1)[0].split())
        assert (pmap.rows, pmap.cols) == (rows, cols)
        assert np.array_equal(np.sort(pmap.target), np.arange(rows * cols))
