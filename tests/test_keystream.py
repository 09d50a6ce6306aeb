import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import folded_step, naive_rank
from permbreak import keystream
from permbreak.keystream import (
    MAX_OFFSET,
    MAX_ROUNDS,
    MU_MIN,
    InvalidKeyDomain,
    Key,
    build_schedule,
    format_key,
    generate_sequence,
    parse_key,
    random_key,
    trajectory_histogram,
)

REFERENCE_KEY = Key(0.2009, 3.98, 20, 51, 4)

seeds = st.floats(min_value=1e-12, max_value=1.0 - 1e-12, allow_nan=False)
mus = st.floats(min_value=MU_MIN + 1e-9, max_value=4.0 - 1e-9, allow_nan=False)


def one_step(x, mu):
    return generate_sequence(Key(x, mu, 1, 1, 1), 1)[0]


class TestLogisticStep:
    def test_peak_value(self):
        # x(1-x) is maximal at 1/4, scaled by mu
        assert one_step(0.5, 3.98) == 0.995

    def test_high_precision_reference(self):
        # frozen from an independent arbitrary-precision evaluation
        assert one_step(0.2009, 3.98) == approx(0.6389459762, rel=1e-12)

    @given(x=seeds, mu=mus)
    def test_mirrored_seeds_agree_exactly(self, x, mu):
        assert one_step(x, mu) == one_step(1.0 - x, mu)

    @given(x=seeds, mu=mus)
    def test_stays_inside_unit_interval(self, x, mu):
        assert 0.0 < one_step(x, mu) < 1.0

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.3, 1.5])
    def test_rejects_x_outside_domain(self, x):
        with pytest.raises(InvalidKeyDomain):
            one_step(x, 3.98)

    @pytest.mark.parametrize("mu", [3.5, MU_MIN, 4.0, 4.2])
    def test_rejects_mu_outside_domain(self, mu):
        with pytest.raises(InvalidKeyDomain):
            one_step(0.4, mu)


class TestKeyDomain:
    def test_reference_key_accepted(self):
        assert REFERENCE_KEY.rounds == 4

    @pytest.mark.parametrize(
        "fields",
        [
            dict(x0=0.0),
            dict(x0=1.0),
            dict(mu=3.5),
            dict(mu=4.0),
            dict(row_offset=0),
            dict(col_offset=0),
            dict(rounds=0),
            dict(rounds=1.5),
            dict(row_offset=MAX_OFFSET + 1),
            dict(col_offset=MAX_OFFSET + 1),
            dict(col_offset=99999999999999),
            dict(rounds=MAX_ROUNDS + 1),
            dict(rounds=100000000),
        ],
    )
    def test_rejects_out_of_domain_components(self, fields):
        base = dict(x0=0.2009, mu=3.98, row_offset=20, col_offset=51, rounds=4)
        base.update(fields)
        with pytest.raises(InvalidKeyDomain):
            Key(**base)

    def test_caps_are_inclusive(self):
        key = Key(0.2009, 3.98, MAX_OFFSET, MAX_OFFSET, MAX_ROUNDS)
        assert (key.row_offset, key.col_offset, key.rounds) == (MAX_OFFSET, MAX_OFFSET, MAX_ROUNDS)

    def test_parse_format_roundtrip(self):
        key = parse_key("0.2009 3.98 20 51 4")
        assert key == REFERENCE_KEY
        assert parse_key(format_key(key)) == key

    @pytest.mark.parametrize("line", ["", "0.5 3.98 20 51", "a b c d e", "0.5 3.98 20 51 4 9"])
    def test_parse_rejects_malformed_lines(self, line):
        with pytest.raises(InvalidKeyDomain):
            parse_key(line)

    @pytest.mark.parametrize("field", ["1_0", "+10", "٣", "²", "-1", "10.0", "0x10"])
    @pytest.mark.parametrize("position", [2, 3, 4])
    def test_integer_fields_must_be_ascii_digits(self, field, position):
        # int() alone would read '1_0' and '+10' as 10 and '٣' as 3
        fields = "0.5 3.9 10 10 10".split()
        fields[position] = field
        with pytest.raises(InvalidKeyDomain, match="must be ASCII digits"):
            parse_key(" ".join(fields))

    @pytest.mark.parametrize("line", ["0.1_5 3.9 1 1 1", "٠.٥ 3.9 1 1 1", "0.5 3.9_8 1 1 1", "0.5 ٣.٩ 1 1 1"])
    def test_real_fields_must_be_ascii_without_separators(self, line):
        # float() alone would read each value, and each lies inside its interval
        with pytest.raises(InvalidKeyDomain, match="x0 mu must be ASCII"):
            parse_key(line)


@st.composite
def mutated_key_line(draw):
    """One mutation of a valid key line: truncation, or a bad, duplicated
    or dropped field."""
    fields = format_key(random_key(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))).split()
    kind = draw(st.sampled_from(["truncate", "token", "duplicate", "drop"]))
    at = draw(st.integers(0, len(fields) - 1))
    if kind == "token":
        fields[at] = draw(
            st.one_of(
                st.sampled_from(["", "nan", "inf", "-0.5", "1e999", "1_0", "+1", "0x1", "٣"]),
                st.integers(-5, 10**30).map(str),
                st.floats(allow_nan=True).map(repr),
            )
        )
    elif kind == "duplicate":
        fields.insert(at, fields[at])
    elif kind == "drop":
        del fields[at]
    line = " ".join(fields)
    return line[: draw(st.integers(0, len(line)))] if kind == "truncate" else line


class TestParseKeyFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mutated_key_line())
    def test_mutated_line_is_rejected_or_round_trips(self, line):
        try:
            key = parse_key(line)
        except InvalidKeyDomain:
            return
        assert parse_key(format_key(key)) == key


class TestGenerateSequence:
    def test_two_manual_iterations(self):
        values = generate_sequence(Key(0.5, 3.98, 1, 1, 1), 2)
        assert values[0] == 0.995
        assert values[1] == approx(0.0198005, rel=1e-12)

    def test_single_element_is_one_step(self):
        key = Key(0.3, 3.9, 1, 1, 1)
        assert generate_sequence(key, 1).tolist() == [folded_step(0.3, 3.9)]

    def test_matches_chained_logistic_steps(self):
        key = Key(0.2009, 3.98, 1, 1, 1)
        values = generate_sequence(key, 200)
        x = key.x0
        for k in range(200):
            x = folded_step(x, key.mu)
            assert values[k] == x

    def test_deterministic(self):
        a = generate_sequence(REFERENCE_KEY, 500)
        b = generate_sequence(REFERENCE_KEY, 500)
        assert np.array_equal(a, b)

    @given(x0=seeds, mu=mus)
    @settings(max_examples=50)
    def test_mirrored_seed_gives_identical_sequence(self, x0, mu):
        a = generate_sequence(Key(x0, mu, 1, 1, 1), 64)
        b = generate_sequence(Key(1.0 - x0, mu, 1, 1, 1), 64)
        assert np.array_equal(a, b)

    def test_values_strictly_inside_unit_interval(self):
        # 100 random keys, 10^4 iterates each
        for i in range(100):
            key = random_key(np.random.default_rng(i))
            values = generate_sequence(key, 10_000)
            assert values.min() > 0.0
            assert values.max() < 1.0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            generate_sequence(REFERENCE_KEY, 0)


def row_ranking(segment) -> list[int]:
    """build_schedule's row ranking when the orbit's row segment is ``segment``."""
    orbit = np.concatenate(([0.5], np.asarray(segment, dtype=np.float64)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keystream, "generate_sequence", lambda key, length: orbit[:length])
        row_perm, _, _ = build_schedule(Key(0.5, 3.9, 1, 1, 1), len(segment), 1)
    return row_perm.tolist()


class TestRankVector:
    """The row ranking of build_schedule: largest sample first."""

    def test_hand_sorted_example(self):
        assert row_ranking([0.3, 0.9, 0.5]) == [1, 2, 0]

    def test_ties_break_to_earlier_index(self):
        assert row_ranking([0.5, 0.5]) == [0, 1]

    def test_single_element(self):
        assert row_ranking([0.7]) == [0]

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(REFERENCE_KEY, 0, 8)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=64))
    def test_matches_selection_oracle(self, segment):
        assert row_ranking(segment) == naive_rank(segment)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=64))
    def test_is_permutation_in_descending_value_order(self, segment):
        indices = row_ranking(segment)
        assert sorted(indices) == list(range(len(segment)))
        ranked = np.asarray(segment)[indices]
        assert all(ranked[i] >= ranked[i + 1] for i in range(len(ranked) - 1))


class TestBuildSchedule:
    def test_single_row_grid(self):
        row_perm, col_perms, _ = build_schedule(REFERENCE_KEY, 1, 8)
        assert row_perm.tolist() == [0]
        assert sorted(col_perms[0].tolist()) == list(range(8))

    def test_matches_straight_line_transcription(self):
        # independently re-derive the schedule with plain loops and the
        # selection oracle, then compare field by field
        key = REFERENCE_KEY
        rows, cols = 2, 8
        total = max(key.row_offset + rows, key.col_offset + rows * cols)
        xs = []
        x = key.x0
        for _ in range(total):
            y = 1.0 - x
            if x < y < 1.0:
                x = y
            x = key.mu * x * (1.0 - x)
            xs.append(x)
        expected_rows = naive_rank(xs[key.row_offset : key.row_offset + rows])
        expected_cols = [
            naive_rank(xs[key.col_offset + cols * i : key.col_offset + cols * (i + 1)])
            for i in range(rows)
        ]

        row_perm, col_perms, final_state = build_schedule(key, rows, cols)
        assert row_perm.tolist() == expected_rows
        assert [row.tolist() for row in col_perms] == expected_cols
        assert final_state == xs[-1]

    def test_every_column_ranking_is_a_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            key = random_key(rng)
            _, col_perms, _ = build_schedule(key, 4, 16)
            for row in col_perms:
                assert sorted(row.tolist()) == list(range(16))

    def test_final_state_is_last_orbit_value(self):
        key = REFERENCE_KEY
        rows, cols = 3, 24
        length = max(key.row_offset + rows, key.col_offset + rows * cols)
        _, _, final_state = build_schedule(key, rows, cols)
        assert final_state == generate_sequence(key, length)[-1]


class TestTrajectoryHistogram:
    def test_known_weak_parameters_are_visibly_nonuniform(self):
        counts = trajectory_histogram(0.3333, 3.5786, 10_000, 50)
        assert counts.sum() == 10_000
        assert counts.max() > 2 * counts.min()

    def test_second_seed_same_support_structure(self):
        a = trajectory_histogram(0.3333, 3.5786, 10_000, 50)
        b = trajectory_histogram(0.5656, 3.5786, 10_000, 50)
        assert b.max() > 2 * b.min()
        # both orbits settle onto the same attractor; compare the bins that
        # hold real mass so the short initial transient does not count
        assert np.array_equal(a >= 100, b >= 100)

    def test_single_bin_collects_everything(self):
        assert trajectory_histogram(0.3333, 3.5786, 500, 1).tolist() == [500]

    def test_rejects_more_bins_than_samples(self):
        with pytest.raises(ValueError):
            trajectory_histogram(0.3333, 3.5786, 10, 50)
