"""Tests for the repro.sweep subsystem: spec, engine, report, CLI.

The load-bearing property is *byte-identity*: the batched engine, the
scalar oracle engine, and every worker count must
serialise to exactly the same report.
"""

from __future__ import annotations

import json

import pytest

from repro.config import DDCConfig, REFERENCE_DDC
from repro.errors import ConfigurationError
from repro.explore import ExploreSpec
from repro.sweep import (
    SweepPoint,
    SweepSpec,
    evaluate_point,
    run_sweep,
)
from repro.sweep.__main__ import main as sweep_main


SMALL = SweepSpec(duty_cycle_steps=11)
TWO_POINT = SweepSpec.from_axes(
    {"nco_frequency_hz": (5e6, 10e6)}, duty_cycle_steps=9
)

#: The sweep's axes and the explorer's discrete axes are one grid with
#: one validation, so every grid rejection is checked on both specs.
GRID_SPECS = {
    "sweep": lambda axes=(), **kw: SweepSpec(axes=axes, **kw),
    "explore": lambda axes=(), **kw: ExploreSpec(discrete_axes=axes, **kw),
}
both_grid_specs = pytest.mark.parametrize(
    "make", list(GRID_SPECS.values()), ids=list(GRID_SPECS)
)


class TestSweepSpec:
    def test_default_is_single_reference_point(self):
        assert SMALL.n_points == 1
        points = SMALL.points()
        assert points == [SweepPoint(0)]
        assert SMALL.config_at(points[0]) is REFERENCE_DDC
        assert points[0].label() == "reference"

    def test_cartesian_product_order_is_deterministic(self):
        spec = SweepSpec.from_axes(
            {"fir_taps": (63, 125), "data_width": (12, 14, 16)}
        )
        assert spec.n_points == 6
        labels = [p.label() for p in spec.points()]
        # Last axis fastest (itertools.product order).
        assert labels[:3] == [
            "fir_taps=63,data_width=12",
            "fir_taps=63,data_width=14",
            "fir_taps=63,data_width=16",
        ]
        assert [p.index for p in spec.points()] == list(range(6))

    def test_config_at_applies_overrides(self):
        spec = SweepSpec.from_axes({"fir_taps": (63,)})
        cfg = spec.config_at(spec.points()[0])
        assert isinstance(cfg, DDCConfig) and cfg.fir_taps == 63
        # other fields untouched
        assert cfg.cic2_decimation == REFERENCE_DDC.cic2_decimation

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            SweepSpec.from_axes({"warp_factor": (9,)})

    @both_grid_specs
    def test_duplicate_axis_rejected(self, make):
        with pytest.raises(ConfigurationError, match="duplicate"):
            make((("fir_taps", (63,)), ("fir_taps", (125,))))

    @both_grid_specs
    def test_empty_axis_values_rejected(self, make):
        with pytest.raises(ConfigurationError, match="non-empty"):
            make((("fir_taps", ()),))

    @both_grid_specs
    def test_bad_steps_and_standby_rejected(self, make):
        with pytest.raises(ConfigurationError, match="duty_cycle_steps"):
            make(duty_cycle_steps=1)
        for fraction in (1.5, -0.1):
            with pytest.raises(ConfigurationError, match="standby_fraction"):
                make(standby_fraction=fraction)
        with pytest.raises(ConfigurationError, match="architectures"):
            make(architectures=())

    def test_duty_cycles_match_scalar_grid(self):
        d = SweepSpec(duty_cycle_steps=5).duty_cycles()
        assert list(d) == [i / 4 for i in range(5)]


class TestEngine:
    def test_batch_equals_scalar_bit_for_bit(self):
        point = SMALL.points()[0]
        batch = evaluate_point(SMALL, point, engine="batch")
        scalar = evaluate_point(SMALL, point, engine="scalar")
        assert batch == scalar  # dataclass equality: every float bitwise

    def test_reference_grid_reproduces_section7(self):
        result = evaluate_point(SMALL, SMALL.points()[0])
        assert result.static_winner == "Customised Low Power DDC"
        # The duty-cycle map ends in the ASIC region (Section 7.1) and
        # starts with a reusable fabric (Section 7.2).
        assert result.winning_regions[-1][2] == "Customised Low Power DDC"
        first_winner = result.winning_regions[0][2]
        reusable = dict(zip(result.names, result.reusable))
        assert reusable[first_winner]

    def test_architecture_subset_preserves_model_order(self):
        spec = SweepSpec(
            duty_cycle_steps=5,
            architectures=("Montium TP", "Customised Low Power DDC"),
        )
        result = evaluate_point(spec, spec.points()[0])
        # model order, not the subset's order
        assert result.names == ("Customised Low Power DDC", "Montium TP")

    def test_unknown_architecture_rejected(self):
        spec = SweepSpec(duty_cycle_steps=5, architectures=("HAL 9000",))
        with pytest.raises(ConfigurationError, match="HAL 9000"):
            evaluate_point(spec, spec.points()[0])

    def test_subset_survives_points_where_a_member_cannot_map(self):
        """An architecture subset drops per-point, like unrestricted
        sweeps do — one unmappable point must not abort the sweep."""
        spec = SweepSpec.from_axes(
            {"cic5_decimation": (21, 42), "fir_decimation": (8, 4)},
            duty_cycle_steps=5,
            architectures=("Montium TP", "Customised Low Power DDC"),
        )
        results = run_sweep(spec).points
        assert results[0].names == (
            "Customised Low Power DDC", "Montium TP"
        )
        # Off-reference point: Montium cannot map; the ASIC carries on.
        assert results[3].names == ("Customised Low Power DDC",)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            evaluate_point(SMALL, SMALL.points()[0], engine="warp")
        with pytest.raises(ConfigurationError, match="engine"):
            run_sweep(SMALL, engine="warp")

    def test_unmappable_points_drop_architectures_not_the_sweep(self):
        # 2688 = 16*42*4: valid DDCConfig, but off the Montium's reference
        # schedule — the sweep must keep going without it.
        spec = SweepSpec.from_axes(
            {"cic5_decimation": (21, 42), "fir_decimation": (8, 4)},
            duty_cycle_steps=5,
        )
        results = run_sweep(spec).points
        ref = results[0]  # (21, 8): the reference plan
        off = results[3]  # (42, 4)
        assert "Montium TP" in ref.names
        assert "Montium TP" not in off.names
        assert off.names  # others still competed

    def test_crossovers_are_within_unit_interval(self):
        result = evaluate_point(SMALL, SMALL.points()[0])
        assert result.crossovers  # the Section 7 story has crossings
        for a, b, d in result.crossovers:
            assert 0.0 <= d <= 1.0
            assert a in result.names and b in result.names


class TestRunSweepParallel:
    def test_thread_pool_byte_identical_to_serial(self):
        serial = run_sweep(TWO_POINT).to_json()
        assert run_sweep(TWO_POINT, workers=2).to_json() == serial
        assert run_sweep(TWO_POINT, workers=10**6).to_json() == serial

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(TWO_POINT, workers=-1)

    def test_points_come_back_in_point_order(self):
        report = run_sweep(TWO_POINT, workers=2)
        assert [p.index for p in report.points] == [0, 1]
        assert report.points[0].overrides == (("nco_frequency_hz", 5e6),)


class TestReport:
    def test_json_document_schema(self):
        doc = json.loads(run_sweep(SMALL).to_json())
        assert doc["schema"] == "repro-sweep/v1"
        assert doc["spec"]["n_points"] == 1
        assert len(doc["duty_cycles"]) == 11
        point = doc["points"][0]
        assert point["static_winner"] == "Customised Low Power DDC"
        assert len(point["powers_w"]) == 11
        assert len(point["powers_w"][0]) == len(point["names"])

    def test_csv_long_form_grid(self):
        report = run_sweep(SMALL)
        lines = report.to_csv().splitlines()
        n_archs = len(report.points[0].names)
        assert lines[0] == "point,label,duty_cycle,candidate,power_w,winner"
        assert len(lines) == 1 + 11 * n_archs
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "0.0"

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            run_sweep(SMALL).render("xml")

    def test_summary_names_regions(self):
        text = run_sweep(SMALL).summary()
        assert "reference" in text
        assert "Customised Low Power DDC" in text


class TestCLI:
    def test_default_emits_table7_grid_json(self, capsys):
        assert sweep_main(["--steps", "11"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-sweep/v1"
        assert [p["static_winner"] for p in doc["points"]] == [
            "Customised Low Power DDC"
        ]

    def test_writes_csv_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert sweep_main(
            ["--steps", "5", "--format", "csv", "--output", str(out)]
        ) == 0
        assert out.read_text().startswith("point,label,duty_cycle")

    def test_verify_mode_passes(self, capsys):
        assert sweep_main(["--steps", "21", "--verify"]) == 0
        assert "verify OK" in capsys.readouterr().out

    def test_axis_and_architecture_flags(self, capsys):
        rc = sweep_main(
            [
                "--steps", "5",
                "--axis", "nco_frequency_hz=5e6,10e6",
                "--architectures",
                "Customised Low Power DDC,Altera Cyclone II",
                "--summary",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 configuration point(s)" in text

    def test_bad_axis_is_a_clean_error(self, capsys):
        assert sweep_main(["--axis", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_architecture_is_a_clean_error(self, capsys):
        assert sweep_main(
            ["--steps", "5", "--architectures", "HAL 9000"]
        ) == 2
        assert "HAL 9000" in capsys.readouterr().err