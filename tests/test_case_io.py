from __future__ import annotations

import math
import warnings

import pytest

from gridctl import case_io
from gridctl.case_io import DanglingBranch, MalformedCase, build_grid, parse_case
from gridctl.power_flow_models import flow_model, solve_model
from gridctl.pwl import NonConvexCost

from conftest import ALL_CASES, get_case

# (buses, distinct lines, generators, total demand) per bundled case
EXPECTED = {
    "case6ww": (6, 11, 3, 210.00),
    "case9": (9, 9, 3, 315.00),
    "case14": (14, 20, 5, 259.00),
    "case30": (30, 41, 6, 189.20),
    "case39": (39, 46, 10, 6254.23),
    "case57": (57, 78, 7, 1250.80),
    "case118": (118, 179, 54, 4242.00),
}

# parsed records per bundled case: (buses, generators, branches) in service,
# and sums of Pd, Pmax, r, x, rateA, tap and of every gencost coefficient
PARSED = {
    "case6ww": ((6, 3, 11), (210.0, 530.0, 0.94, 2.61, 570.0, 11.0, 685.95663)),
    "case9": ((9, 3, 9), (315.0, 820.0, 0.1184, 0.8595, 2100.0, 9.0, 1092.5175)),
    "case14": ((14, 5, 20), (259.0, 772.4, 1.23268, 4.02683, 198000.0, 19.879, 160.3230293)),
    "case30": ((30, 6, 41), (189.2, 335.0, 3.12, 8.24, 1954.0, 41.0, 14.15834)),
    "case39": ((39, 10, 46), (6254.23, 7367.0, 0.0596, 0.8773, 33780.0, 46.391, 5.1)),
    "case57": ((57, 7, 80), (1250.8, 1975.88, 5.5644, 19.4436, 792000.0, 79.447, 200.4120598)),
    "case118": ((118, 54, 186), (4242.0, 9966.2, 5.10337, 19.85673, 1841400.0, 185.59,
                                 1786.0817768762536)),
}

MINI = """
function mpc = mini
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 10  5 0 0 1 1 0 0 1 1.1 0.9;  % consumer
];
mpc.gen = [
    1 0 0 10 -10 1 100 1 50 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 25 25 25 0 0 1;
];
mpc.gencost = [
    2 0 0 3 0.02 2 0;
];
"""


def test_case30_raw_counts():
    raw = parse_case(case_io.read_case_text("case30"))
    assert len(raw.buses) == 30
    assert len(raw.branches) == 41
    assert len(raw.generators) == 6


@pytest.mark.parametrize("name", ALL_CASES)
def test_parsed_contents_are_pinned(name):
    raw = parse_case(case_io.read_case_text(name))
    counts, sums = PARSED[name]
    assert (len(raw.buses), len(raw.generators), len(raw.branches)) == counts
    assert (sum(b.demand for b in raw.buses),
            sum(g.p_max for g in raw.generators),
            sum(b.resistance for b in raw.branches),
            sum(b.reactance for b in raw.branches),
            sum(b.rate_a for b in raw.branches),
            sum(b.tap for b in raw.branches),
            sum(c for g in raw.generators for c in g.cost_coefficients)) == pytest.approx(
        sums, rel=1e-12)


def test_case57_total_demand():
    raw = parse_case(case_io.read_case_text("case57"))
    assert raw.total_demand == pytest.approx(1250.80, abs=5e-3)


@pytest.mark.parametrize("name", ALL_CASES)
def test_built_grids_match_instance_statistics(name):
    nb, nl, ng, pd = EXPECTED[name]
    grid = get_case(name)
    assert len(grid.buses) == nb
    assert len(grid.branches) == nl
    assert len(grid.generators) == ng
    assert grid.total_demand == pytest.approx(pd, abs=5e-3)


def test_demand_round_trip_is_exact():
    for name in ALL_CASES:
        raw = parse_case(case_io.read_case_text(name))
        grid = get_case(name)
        assert grid.total_demand == sum(b.demand for b in raw.buses)


def test_dangling_branch_rejected():
    bad = MINI.replace("1 2 0.01 0.1", "1 999 0.01 0.1")
    with pytest.raises(DanglingBranch):
        parse_case(bad)


def test_missing_matrix_rejected():
    bad = MINI.replace("mpc.gencost", "mpc.ignored")
    with pytest.raises(MalformedCase, match="gencost"):
        parse_case(bad)


def test_non_numeric_cell_reports_line():
    bad = MINI.replace("1 2 0.01 0.1 0 25", "1 2 oops 0.1 0 25")
    with pytest.raises(MalformedCase, match="line") as err:
        parse_case(bad)
    assert err.value.line == 12
    assert str(err.value).startswith("line 12: non-numeric cell in mpc.branch")


@pytest.mark.parametrize("old, new, line", [
    ("2 1 10  5", "2 1 NaN  5", 6),  # a NaN Pd would drop the bus's demand
    ("1 2 0.01 0.1 0 25", "1 2 0.01 0.1 0 Inf", 12),
])
def test_non_finite_cell_reports_line(old, new, line):
    with pytest.raises(MalformedCase, match="non-finite cell") as err:
        parse_case(MINI.replace(old, new))
    assert err.value.line == line


def test_bad_base_mva_reports_line():
    with pytest.raises(MalformedCase, match="bad baseMVA") as err:
        parse_case(MINI.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 1.0.0;"))
    assert err.value.line == 3


def test_base_mva_needs_no_semicolon():
    raw = parse_case(MINI.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 100"))
    assert repr(raw) == repr(parse_case(MINI))


def test_zero_demand_case_is_rejected_by_name():
    raw = parse_case(MINI.replace("2 1 10  5", "2 1 0  5"))
    with pytest.raises(MalformedCase, match="mini: total demand is 0"):
        build_grid(raw)


@pytest.mark.parametrize("old, new", [
    ("mpc.bus = [\n    1 3", "mpc.bus = [    1 3"),  # a row on the opening line
    ("0 0 1 1.1 0.9;  % consumer", "0 0 1 1.1 0.9  % consumer"),  # a row ended by a line break
])
def test_row_layouts_parse_alike(old, new):
    assert MINI.count(old) == 1
    assert repr(parse_case(MINI.replace(old, new))) == repr(parse_case(MINI))


def test_unclosed_matrix_rejected():
    with pytest.raises(MalformedCase, match="mpc.bus") as err:
        parse_case(MINI.replace("% consumer\n];", "% consumer\n;"))
    assert err.value.line == 4
    # the last matrix of the file needs its closing bracket too
    with pytest.raises(MalformedCase, match="line 14: mpc.gencost is not closed"):
        parse_case(MINI.replace("2 0 0 3 0.02 2 0;\n];", "2 0 0 3 0.02 2 0;\n"))


def test_short_row_rejected():
    bad = MINI.replace("1 2 0.01 0.1 0 25 25 25 0 0 1", "1 2 0.01")
    with pytest.raises(MalformedCase, match="column"):
        parse_case(bad)


def test_mini_grid_shapes():
    grid = build_grid(parse_case(MINI))
    assert grid.buses == (1, 2)
    assert grid.consumers == {2: 10.0}
    assert set(grid.generators) == {1}
    br = grid.branches[0]
    assert br.capacity == 25.0
    assert br.susceptance == pytest.approx(100.0 / 0.1)


def test_generator_cost_sampling_secant_construction():
    grid = build_grid(parse_case(MINI))
    cost = grid.generators[1].cost
    # 0.02 p^2 + 2 p at 5 points on [0, 50]: secants over quarters of 12.5 MW,
    # slope 2 + 0.02 (p0 + p1) each
    assert len(cost.pieces) == 4
    assert [a for a, _ in cost.pieces] == pytest.approx([2.25, 2.75, 3.25, 3.75])
    for p in (0.0, 12.5, 25.0, 37.5, 50.0):
        assert cost(p) == pytest.approx(0.02 * p * p + 2 * p)
    slopes = [a for a, _ in cost.pieces]
    assert slopes == sorted(slopes)


def test_linear_gencost_single_piece():
    text = MINI.replace("2 0 0 3 0.02 2 0", "2 0 0 2 5 0")
    grid = build_grid(parse_case(text))
    assert grid.generators[1].cost.pieces == ((5.0, 0.0),)


def test_pwl_gencost_model_1():
    text = MINI.replace("2 0 0 3 0.02 2 0", "1 0 0 3 0 0 20 50 50 200")
    grid = build_grid(parse_case(text))
    cost = grid.generators[1].cost
    assert cost(20.0) == pytest.approx(50.0)
    assert cost(50.0) == pytest.approx(200.0)


def test_model_1_cost_prices_production_up_to_pmax():
    # breakpoints end at 20 MW, Pmax is 50: the LP and flow_cost both extend
    # the last piece to Pmax, so serving 30 MW costs 2 * 30
    text = (MINI.replace("2 0 0 3 0.02 2 0", "1 0 0 2 0 0 20 40")
            .replace("1 2 0.01 0.1 0 25", "1 2 0.01 0.1 0 0")
            .replace("2 1 10  5", "2 1 30  5"))
    grid = build_grid(parse_case(text))
    assert grid.generators[1].cost.domain_max == 20.0
    sol = solve_model(grid, flow_model(), 1.0)
    assert sol.objective == pytest.approx(60.0)
    assert sol.costs.generation == pytest.approx(60.0)
    # loss 0.01 * 30^2 / 100 sits on a sample point of [0, 2 * 30]
    assert solve_model(grid, flow_model(), 0.5).costs.weighted == pytest.approx(30.045)


def test_unsupported_cost_model_rejected():
    text = MINI.replace("2 0 0 3 0.02 2 0", "3 0 0 3 0.02 2 0")
    with pytest.raises(MalformedCase, match="cost model"):
        parse_case(text)


def test_nonconvex_cost_rejected():
    text = MINI.replace("2 0 0 3 0.02 2 0", "2 0 0 3 -0.02 9 0")
    with pytest.raises(NonConvexCost):
        build_grid(parse_case(text))


def test_zero_resistance_line_is_lossless():
    text = MINI.replace("1 2 0.01 0.1", "1 2 0 0.1")
    grid = build_grid(parse_case(text))
    assert grid.branches[0].loss(17.3) == 0.0


def test_zero_rate_a_means_unlimited():
    text = MINI.replace("1 2 0.01 0.1 0 25", "1 2 0.01 0.1 0 0")
    grid = build_grid(parse_case(text))
    assert math.isinf(grid.branches[0].capacity)


def test_loss_curve_is_sampled_ohmic_loss():
    grid = build_grid(parse_case(MINI))
    loss = grid.branches[0].loss
    # domain capped at min(capacity, 2 * total demand) = min(25, 20) = 20
    assert loss.domain_max == pytest.approx(20.0)
    for k in range(5):
        f = 20.0 * k / 4
        assert loss(f) == pytest.approx(0.01 * f * f / 100.0, abs=1e-12)


def test_parallel_circuits_merge():
    text = MINI.replace(
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;",
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;\n    1 2 0.02 0.2 0 15 15 15 0 0 1;",
    )
    grid = build_grid(parse_case(text))
    assert len(grid.branches) == 1
    br = grid.branches[0]
    assert br.susceptance == pytest.approx(100 / 0.1 + 100 / 0.2)
    assert br.capacity == pytest.approx(40.0)
    # parallel resistances: 1/(1/0.01 + 1/0.02); PWL exact at sample points
    r_eq = 1.0 / (1 / 0.01 + 1 / 0.02)
    assert br.loss.domain_max == pytest.approx(20.0)  # min(40, 2 * demand)
    assert br.loss(15.0) == pytest.approx(r_eq * 15 * 15 / 100, rel=1e-9)


def test_out_of_service_generator_dropped():
    # a second unit on bus 1 is out of service (GEN_STATUS, gen column 8 = 0)
    text = MINI.replace(
        "    1 0 0 10 -10 1 100 1 50 0;",
        "    1 0 0 10 -10 1 100 1 50 0;\n    1 0 0 10 -10 1 100 0 80 0;",
    ).replace("    2 0 0 3 0.02 2 0;", "    2 0 0 3 0.02 2 0;\n    2 0 0 2 1 0;")
    raw = parse_case(text)
    assert [(g.bus, g.p_max) for g in raw.generators] == [(1, 50.0)]
    grid = build_grid(raw)
    assert grid.generators[1].capacity == 50.0


def test_out_of_service_branch_dropped():
    # a parallel circuit that is out of service (BR_STATUS, branch column 11 = 0)
    text = MINI.replace(
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;",
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;\n    1 2 0.02 0.2 0 15 15 15 0 0 0;",
    )
    raw = parse_case(text)
    assert len(raw.branches) == 1
    br = build_grid(raw).branches[0]
    assert br.capacity == 25.0
    assert br.susceptance == pytest.approx(100.0 / 0.1)


def test_tap_ratio_divides_the_susceptance():
    # case14's transformer 4-7 has x = 0.20912 and tap ratio 0.978 (MATPOWER makeBdc)
    grid = get_case("case14")
    (br,) = [b for b in grid.branches if {b.u, b.v} == {4, 7}]
    assert br.susceptance == pytest.approx(100.0 / (0.20912 * 0.978), rel=1e-12)
    # each parallel circuit brings its own tap; a ratio of 0 means 1
    text = MINI.replace(
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;",
        "    1 2 0.01 0.1 0 25 25 25 0.5 0 1;\n    1 2 0.02 0.2 0 15 15 15 0 0 1;",
    )
    assert build_grid(parse_case(text)).branches[0].susceptance == pytest.approx(
        100 / (0.1 * 0.5) + 100 / 0.2)


def test_phase_shift_and_negative_tap_rejected():
    with pytest.raises(MalformedCase, match="phase shift"):
        parse_case(MINI.replace("25 25 25 0 0 1;", "25 25 25 0 -3 1;"))
    with pytest.raises(MalformedCase, match="negative tap"):
        parse_case(MINI.replace("25 25 25 0 0 1;", "25 25 25 -0.9 0 1;"))
    # a shift on a circuit out of service is never used
    text = MINI.replace(
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;",
        "    1 2 0.01 0.1 0 25 25 25 0 0 1;\n    1 2 0.02 0.2 0 15 15 15 0 4 0;",
    )
    assert len(parse_case(text).branches) == 1


def test_positive_pmin_warns_naming_the_generators():
    # PMIN (gen column 10) is flagged, not modelled
    with pytest.warns(UserWarning, match=r"bus 1 \(50 MW\), bus 2 \(37.5 MW\), bus 3 \(45 MW\)"):
        raw = parse_case(case_io.read_case_text("case6ww"))
    assert [g.bus for g in raw.generators] == [1, 2, 3]


def test_zero_pmin_parses_without_warning():
    # PMIN 0 in service, and PMIN 20 on a unit out of service
    text = MINI.replace(
        "    1 0 0 10 -10 1 100 1 50 0;",
        "    1 0 0 10 -10 1 100 1 50 0;\n    1 0 0 10 -10 1 100 0 80 20;",
    ).replace("    2 0 0 3 0.02 2 0;", "    2 0 0 3 0.02 2 0;\n    2 0 0 2 1 0;")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = parse_case(text)
    assert [(g.bus, g.p_max) for g in raw.generators] == [(1, 50.0)]


def test_case57_and_case118_have_merged_parallels():
    raw57 = parse_case(case_io.read_case_text("case57"))
    raw118 = parse_case(case_io.read_case_text("case118"))
    assert len(raw57.branches) == 80  # two parallel circuit pairs in the file
    assert len(raw118.branches) == 186  # seven parallel circuit pairs


def test_bundled_case_names():
    assert case_io.bundled_case_names() == sorted(ALL_CASES)
