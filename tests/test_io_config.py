import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia import pointsio
from rpia.config import (
    GENERATORS,
    INNER_SOLVERS,
    PROBLEMS,
    ExperimentConfig,
    SweepGrid,
    config_from_mapping,
    load_config,
)
from rpia.datasets import boy_surface, rose_curve
from rpia.errors import IncompleteGrid, InvalidConfig, ParseError
from rpia.pointsio import Table, load_grid, load_points, save_grid, save_points, write_csv

from conftest import csv_writer_bytes


class TestPointsRoundTrip:
    def test_curve_round_trip_is_bit_exact(self, tmp_path):
        points = rose_curve(100).points
        path = tmp_path / "curve.csv"
        save_points(path, points)
        npt.assert_array_equal(load_points(path), points)

    def test_saved_files_match_csv_writer(self, tmp_path):
        points = rose_curve(40).points
        save_points(tmp_path / "curve.csv", points)
        assert (tmp_path / "curve.csv").read_bytes() == csv_writer_bytes(
            ["x", "y"], [tuple(map(float, p)) for p in points]
        )
        grid = boy_surface(6, 5).grid
        save_grid(tmp_path / "grid.csv", grid)
        rows = [
            (h, l, *map(float, grid[h, l]))
            for h in range(grid.shape[0]) for l in range(grid.shape[1])
        ]
        assert (tmp_path / "grid.csv").read_bytes() == csv_writer_bytes(
            ["row", "col", "x", "y", "z"], rows
        )

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_points(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_points(path)

    @pytest.mark.parametrize("header, load", [
        ("x,y", load_points), ("row,col,x,y,z", load_grid),
    ], ids=["points", "grid"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, header, load):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: no data rows")):
            load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_points(path)

    @pytest.mark.parametrize("text, load", [
        ("x,y\n1.0,2.0\n-inf,2.0\n", load_points),
        ("row,col,x,y,z\n0,0,1,1,1\n0,1,1,nan,1\n", load_grid),
    ], ids=["points", "grid"])
    def test_non_finite_value_names_line(self, tmp_path, text, load):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="line 3: non-finite value"):
            load(path)

    def test_grid_round_trip_is_bit_exact(self, tmp_path):
        grid = boy_surface(6, 5).grid
        path = tmp_path / "grid.csv"
        save_grid(path, grid)
        npt.assert_array_equal(load_grid(path), grid)

    def test_incomplete_grid(self, tmp_path):
        grid = boy_surface(3, 3).grid
        path = tmp_path / "grid.csv"
        save_grid(path, grid)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one cell
        with pytest.raises(IncompleteGrid):
            load_grid(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "row,col,x,y,z\n0,0,1,1,1\n0,0,2,2,2\n0,1,1,1,1\n1,0,1,1,1\n1,1,1,1,1\n"
        )
        with pytest.raises(IncompleteGrid, match="duplicate"):
            load_grid(path)

    def test_negative_index(self, tmp_path):
        # two cells whose bounding grid 2 x 1 the count check alone would pass
        path = tmp_path / "grid.csv"
        path.write_text("row,col,x,y,z\n-1,0,1,1,1\n1,0,2,2,2\n")
        with pytest.raises(ParseError, match="line 2: negative grid index"):
            load_grid(path)


def formatted(values) -> bytes:
    """A one-column float table's lines as the writer lays them out."""
    return pointsio._format_rows([np.asarray(values, dtype=float)], {}).tobytes()


def percent_g17(values) -> bytes:
    """The same lines formatted one value at a time by Python."""
    return "".join("%.17g\r\n" % v for v in np.asarray(values, dtype=float).tolist()).encode()


class TestFloatFormat:
    """The vectorized ``%.17g`` equals ``'%.17g' % v`` byte for byte."""

    @settings(max_examples=400)
    @given(st.floats())
    def test_any_float(self, value):
        assert formatted([value]) == percent_g17([value])

    @settings(max_examples=150)
    @given(st.lists(
        st.one_of(st.floats(), st.floats(1e-6, 1e17), st.floats(-1e17, -1e-6)),
        min_size=1, max_size=80,
    ))
    def test_arrays_mixing_fast_and_fallback_values(self, values):
        assert formatted(values) == percent_g17(values)

    def test_log_uniform_sample(self):
        rng = np.random.default_rng(7)
        values = 10 ** rng.uniform(-8, 19, 50_000) * rng.choice([-1.0, 1.0], 50_000)
        assert formatted(values) == percent_g17(values)

    def test_neighbours_of_powers_of_ten(self):
        powers = np.array([10.0**m for m in range(-8, 19)] + [float(10**m) for m in range(19)])
        below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
        values = np.concatenate([powers, below, above, np.nextafter(below, 0.0)])
        assert formatted(values) == percent_g17(values)
        assert formatted(-values) == percent_g17(-values)

    def test_values_rounding_up_to_the_next_power_of_ten(self):
        # Nines past double precision round to a power of ten (1e+17 for the
        # first); their neighbours keep all seventeen digits.
        nines = np.array(
            [99999999999999999.0, 9999999999999999.9]
            + [float(f"9.99999999999999999e{m}") for m in range(-8, 18)]
        )
        values = np.concatenate([nines, np.nextafter(nines, 0.0)])
        assert formatted(values) == percent_g17(values)

    def test_exact_ties_round_half_to_even(self):
        # q / 4 is exact; at 16 integer digits a quarter is a tie at the
        # seventeenth digit.
        q = np.random.default_rng(3).integers(2**50, 2**53, 50_000)
        values = np.concatenate([q / 4.0, [2**50 + 0.25, 2**50 + 0.75]])
        assert formatted(values) == percent_g17(values)
        assert formatted([1125899906842624.25, 1125899906842624.75]) == (
            b"1125899906842624.2\r\n1125899906842624.8\r\n"
        )

    @pytest.mark.parametrize("value, text", [
        (1e-5, "1.0000000000000001e-05"),
        (1e-6, "9.9999999999999995e-07"),
        (0.0001, "0.0001"),
        (1.5e-6, "1.5e-06"),
        (-0.00012, "-0.00012"),
        (123.0, "123"),
        (1e16, "10000000000000000"),
        (0.5, "0.5"),
    ])
    def test_formats_at_the_ends_of_the_fast_range(self, value, text):
        assert formatted([value]) == percent_g17([value]) == (text + "\r\n").encode()


class TestWriteCsv:
    def test_non_finite_and_integer_columns_match_csv_writer(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.5, -2.5e-7, 1e300]
        ints = [0, 1, -7, 10**17, -(10**17), 2**63 - 1, 42, 1, 0]
        path = tmp_path / "table.csv"
        write_csv(path, ["value", "count"], Table(floats, ints))
        assert path.read_bytes() == csv_writer_bytes(["value", "count"], list(zip(floats, ints)))

    @pytest.mark.parametrize("column", [[True, False], ["a", "b"], [1 + 2j, 0j]])
    def test_non_numeric_columns_are_refused(self, column):
        with pytest.raises(ValueError, match="table column 1 holds"):
            Table(np.zeros(2), column)

    def test_numeric_columns_of_any_width(self, tmp_path):
        # Each dtype is formatted on its own: a float32 as the double it
        # widens to, a uint64 past the int64 range in full.
        columns = [
            np.array([0.1, -3.25, np.nan], np.float32),
            np.array([2**64 - 1, 7, 0], np.uint64),
            np.array([-5, 2**62, 0], np.int64),
            np.array([65535, 300, 1], np.uint16),
        ]
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b", "c", "d"], Table(*columns))
        rows = [(float(a), b, c, d) for a, b, c, d in zip(*(col.tolist() for col in columns))]
        assert path.read_bytes() == csv_writer_bytes(["a", "b", "c", "d"], rows)

    def test_empty_table_writes_the_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["seed", "rel_change"], Table(np.array([], int), np.array([])))
        assert path.read_bytes() == csv_writer_bytes(["seed", "rel_change"], [])

    def test_columns_of_different_shapes_are_refused(self):
        with pytest.raises(ValueError, match="one shape"):
            Table(np.zeros(3), np.zeros(4))

    def test_writing_a_grid_keeps_memory_bounded(self, tmp_path):
        # Rows are formatted a chunk at a time: the work arrays stay far
        # below the table's own size (301 x 301 x 3 floats, 2.1 MB).
        grid = np.random.default_rng(0).standard_normal((301, 301, 3))
        tracemalloc.start()
        try:
            save_grid(tmp_path / "grid.csv", grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestConfig:
    def test_defaults_and_seed_fallbacks(self):
        curve_cfg = ExperimentConfig()
        assert curve_cfg.seeds == tuple(range(10))
        surface_cfg = ExperimentConfig(problem="surface", generator="boy", p=8, n_ctrl_v=4)
        assert surface_cfg.seeds == tuple(range(3))

    def test_mapping_aliases_and_lambda_parsing(self):
        cfg = config_from_mapping(
            {"lambda": "estimate", "m": 50, "n_ctrl": 10, "seeds": [4, 2]}
        )
        assert cfg.lam == "estimate"
        assert cfg.seeds == (4, 2)
        cfg = config_from_mapping({"lambda": 1.5e-6})
        assert cfg.lam == 1.5e-6
        cfg = config_from_mapping({"lambda": {"sweep": {"lo": 1e-9, "hi": 1e-3, "points": 25}}})
        assert isinstance(cfg.lam, SweepGrid)
        assert cfg.lam.points == 25

    def test_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(InvalidConfig):
            config_from_mapping({"no_such_key": 1})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"lambda": "noise"})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"lambda": -0.5})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"seeds": []})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"problem": "volume"})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"generator": "file"})  # needs input_path
        with pytest.raises(InvalidConfig):
            config_from_mapping({"generator": "boy", "problem": "curve"})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"generator": "rose", "problem": "surface",
                                 "p": 10, "n_ctrl_v": 4})
        with pytest.raises(InvalidConfig):
            config_from_mapping({"lambda": {"sweep": {"lo": 1e-9, "hi": 1e-3, "points": 1}}})

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_non_positive_block_size_v(self, value):
        with pytest.raises(InvalidConfig, match="block_size_v"):
            config_from_mapping({"problem": "surface", "generator": "boy", "p": 8,
                                 "n_ctrl_v": 4, "block_size_v": value})

    @pytest.mark.parametrize("key, value", [("p", 5), ("n_ctrl_v", 9), ("block_size_v", 7)])
    def test_curve_refuses_surface_keys(self, key, value):
        # a curve has one direction: these keys would be dropped without a word
        with pytest.raises(InvalidConfig, match=key):
            config_from_mapping({"problem": "curve", "generator": "rose", key: value})
        with pytest.raises(InvalidConfig, match=key):
            ExperimentConfig().with_overrides(**{key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["lambda", "noise_amplitude", "penalty_scale", "tolerance", "eps_lambda"]
    )
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            config_from_mapping({field: value})

    @pytest.mark.parametrize("field, value", [
        ("m", "abc"), ("m", 100.0), ("m", True), ("p", 8.5), ("n_ctrl", "12"),
        ("n_ctrl_v", False), ("block_size", 2.0), ("block_size_v", "5"),
        ("max_iter", 100.0), ("head_count", True), ("trajectory_stride", 1.5),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            config_from_mapping({field: value})

    @pytest.mark.parametrize("field", ["noise_amplitude", "penalty_scale", "tolerance", "eps_lambda"])
    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0]])
    def test_real_fields_reject_other_types(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            config_from_mapping({field: value})

    @pytest.mark.parametrize("value", [True, False, None, [1e-6], "tiny"])
    def test_lambda_rejects_bools_and_non_numbers(self, value):
        with pytest.raises(InvalidConfig, match="lambda"):
            config_from_mapping({"lambda": value})

    def test_lambda_takes_numeric_strings(self):
        # YAML reads ``1e-6`` (no decimal point) as a string; the CLI passes strings
        assert config_from_mapping({"lambda": "1e-6"}).lam == 1e-6
        grid = config_from_mapping({"lambda": {"sweep": {"lo": "1e-9", "hi": 1e-3, "points": 3}}})
        assert grid.lam == SweepGrid(1e-9, 1e-3, 3)

    @pytest.mark.parametrize("key, value", [
        ("lo", True), ("hi", "wide"), ("points", 3.0), ("points", "3"), ("points", True),
    ])
    def test_sweep_grid_fields_reject_other_types(self, key, value):
        sweep = {"lo": 1e-9, "hi": 1e-3, "points": 3, key: value}
        with pytest.raises(InvalidConfig, match=f"sweep grid {key}"):
            config_from_mapping({"lambda": {"sweep": sweep}})

    @pytest.mark.parametrize("value", [1, 7, True, ["a.csv"]])
    def test_input_must_be_a_path(self, value):
        # an integer path would be opened as a file descriptor
        with pytest.raises(InvalidConfig, match="input"):
            config_from_mapping({"generator": "file", "input": value})

    @pytest.mark.parametrize("seeds", [["x"], [True, 2], [2.7], [-1], [0, -3], [], "0", 3])
    def test_seeds_must_be_non_negative_integers(self, seeds):
        with pytest.raises(InvalidConfig, match="seeds"):
            config_from_mapping({"seeds": seeds})

    @pytest.mark.parametrize("seeds", [[0, 0], [3, 1, 3], (2, 5, 7, 5)])
    def test_seeds_must_not_repeat(self, seeds):
        # a repeated seed fits the same noise draw twice and counts it twice
        # in the mean and spread of the fit errors
        repeated = next(s for k, s in enumerate(seeds) if s in seeds[:k])
        with pytest.raises(InvalidConfig, match=f"seeds must not repeat, got {repeated} twice"):
            config_from_mapping({"seeds": seeds})

    def test_repeated_seed_override_is_refused(self):
        with pytest.raises(InvalidConfig, match="seeds must not repeat"):
            config_from_mapping({"seeds": [0, 1]}).with_overrides(seeds=(1, 1))

    def test_choices_come_from_one_list(self):
        from rpia import cli

        options = {opt.name: opt for opt in cli.fit.params}
        assert tuple(options["problem"].type.choices) == PROBLEMS
        assert tuple(options["generator"].type.choices) == GENERATORS
        assert tuple(options["inner_solver"].type.choices) == INNER_SOLVERS
        gen_data = {opt.name: opt for opt in cli.gen_data.params}
        assert tuple(gen_data["generator"].type.choices) == tuple(
            g for g in GENERATORS if g != "file"
        )

    @pytest.mark.parametrize(
        "lo, hi", [(float("nan"), 1e-3), (1e-9, float("nan")), (1e-9, float("inf"))]
    )
    def test_sweep_grid_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(InvalidConfig, match="sweep grid"):
            SweepGrid(lo, hi, 5)

    def test_sweep_grid_values(self):
        grid = SweepGrid(1e-9, 1e-3, 25)
        values = grid.values()
        assert values.size == 25
        npt.assert_allclose(values[0], 1e-9)
        npt.assert_allclose(values[-1], 1e-3)
        ratios = values[1:] / values[:-1]
        npt.assert_allclose(ratios, ratios[0])
        degenerate = SweepGrid(1e-6, 1e-6, 1)
        npt.assert_allclose(degenerate.values(), [1e-6])

    def test_yaml_loading(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "problem: curve\ngenerator: blob\nm: 80\nn_ctrl: 12\nlambda: 1.0e-7\nseeds: [1, 2]\n"
        )
        cfg = load_config(path)
        assert cfg.generator == "blob"
        assert cfg.lam == 1e-7
        assert cfg.seeds == (1, 2)
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [unclosed\n")
        with pytest.raises(InvalidConfig):
            load_config(bad)

    def test_overrides(self):
        cfg = ExperimentConfig(m=100, n_ctrl=10)
        updated = cfg.with_overrides(m=200, block_size=None)
        assert updated.m == 200
        assert updated.block_size == cfg.block_size

    def test_shipped_configs_parse(self):
        from pathlib import Path

        config_dir = Path(__file__).resolve().parents[1] / "configs"
        found = sorted(config_dir.glob("*.yaml"))
        assert found
        for path in found:
            load_config(path)
