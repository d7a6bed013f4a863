"""Resource reports, PDC rates, angle tables, and sensitivity sweeps."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wstates import (
    PdcModel,
    SensitivityRecord,
    angle_schedule,
    angle_sensitivity,
    build_w_circuit,
    gate_growth_table,
    pdc_rates,
    plate_angle_table,
    predicted_counts,
    resource_report,
    w_reference,
)
from wstates.errors import CapacityError
from wstates.base import N_MAX, ROW_CAP

TABLE_ROWS = [(3, 4, 2, 2), (4, 8, 3, 5), (5, 13, 4, 9), (6, 19, 5, 14), (7, 26, 6, 20)]


def test_resource_report_n3():
    report = resource_report(3)
    assert report.elementary_cnots == 4
    assert abs(report.log10_success_probability - 4 * math.log10(1 / 9)) < 1e-12
    assert report.success_probability == pytest.approx((1 / 9) ** 4, rel=1e-12)


def test_resource_report_perfect_gates():
    report = resource_report(3, gate_success_prob=1.0)
    assert report.log10_success_probability == 0.0
    assert report.success_probability == 1.0


def test_resource_report_n100_log_domain():
    report = resource_report(100)
    assert report.elementary_cnots == 5048
    # 5048 * log10(1/9), evaluated once and frozen
    assert report.log10_success_probability == pytest.approx(-4817.016187649712, abs=1e-6)
    assert report.success_probability is None  # would underflow


def test_log10_probability_scales_with_count():
    for n in (3, 8, 20, 100):
        report = resource_report(n)
        expected = report.elementary_cnots * math.log10(report.gate_success_prob)
        assert report.log10_success_probability == expected


def test_elementary_cnots_match_lowered_circuit_everywhere():
    # resource_report reads the count off the closed form; the real builds
    # and lowerings are checked against it in test_synthesis and
    # test_lowering.  Sweep the whole stated range.
    for n in range(3, 101):
        report = resource_report(n)
        assert report.elementary_cnots == (n * (n + 1) - 4) // 2


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, 9.0])
def test_resource_report_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        resource_report(3, gate_success_prob=p)


def test_resource_report_rejects_small_n():
    with pytest.raises(ValueError, match="unsupported size"):
        resource_report(2)


def test_reports_stop_where_the_gate_count_leaves_the_floats():
    n = N_MAX
    assert resource_report(n).elementary_cnots == (n * (n + 1) - 4) // 2
    for huge in (n + 1, 10**309):
        with pytest.raises(ValueError, match="need n <= 1.896e"):
            resource_report(huge)
        with pytest.raises(ValueError, match="need n <= 1.896e"):
            pdc_rates(huge, PdcModel(gamma=0.5))


def test_pdc_rates_examples():
    desired, error = pdc_rates(3, PdcModel(gamma=0.1, delta=1e-4))
    assert desired == pytest.approx(-3.0)            # gamma**3
    assert error == pytest.approx(-7.0)              # gamma**3 * delta
    desired, error = pdc_rates(3, PdcModel(gamma=1.0))
    assert desired == 0.0


@given(
    st.integers(3, 500),
    st.floats(1e-6, 1.0),
    st.floats(1e-12, 0.5, exclude_max=True),
)
def test_pdc_error_gap_is_log_delta(n, gamma, delta):
    model = PdcModel(gamma=gamma, delta=delta)
    desired, error = pdc_rates(n, model)
    assert error - desired == pytest.approx(math.log10(delta), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "gamma,delta", [(0.0, 1e-4), (-0.1, 1e-4), (1.2, 1e-4), (0.5, 0.0), (0.5, 1.0)]
)
def test_pdc_model_validation(gamma, delta):
    with pytest.raises(ValueError):
        PdcModel(gamma=gamma, delta=delta)


def test_pdc_rates_rejects_small_n():
    with pytest.raises(ValueError):
        pdc_rates(2, PdcModel(gamma=0.5))


def test_plate_angle_table_reference_points():
    table = dict(plate_angle_table(200))
    assert table[4] == pytest.approx(15.0, abs=1e-9)
    assert table[100] == pytest.approx(21.065207380683304, abs=1e-9)
    assert table[200] == pytest.approx(21.486298193000728, abs=1e-9)
    # the sometimes-quoted 22.05 deg is not what the formula gives at n=100
    assert abs(table[100] - 22.05) > 0.9


def test_plate_angles_increase_toward_22_5():
    table = plate_angle_table(500)
    angles = [deg for _, deg in table]
    assert all(a < b for a, b in zip(angles, angles[1:]))
    assert angles[-1] < 22.5


def test_plate_angle_table_is_the_first_coupler_of_the_schedule():
    for n, deg in plate_angle_table(500):
        assert deg == math.degrees(angle_schedule(n).entries[0].plate_angle)


def test_plate_angle_table_validation():
    with pytest.raises(ValueError):
        plate_angle_table(2)


def test_gate_growth_table_matches_reference_rows():
    assert list(gate_growth_table(7)) == TABLE_ROWS
    rows = dict((r[0], r[1:]) for r in gate_growth_table(10))
    assert rows[10] == (53, 9, 44)


def test_gate_growth_table_rejects_small_n_max():
    with pytest.raises(ValueError, match=r"^need n_max >= 3, got 2$"):
        gate_growth_table(2)


@pytest.mark.parametrize("table", [plate_angle_table, gate_growth_table])
def test_tables_are_iterators_checked_when_called(table):
    rows = table(ROW_CAP + 2)  # 2**21 rows, none made until asked for
    assert iter(rows) is rows
    assert next(rows)[0] == 3 and next(rows)[0] == 4
    with pytest.raises(CapacityError):
        table(ROW_CAP + 3)


def test_gate_growth_is_quadratic():
    total_1000 = list(gate_growth_table(1000))[-1][1]
    assert total_1000 / 1000**2 == pytest.approx(0.500498)


def test_sensitivity_zero_offset_is_exact():
    for n, backend in ((12, "dense"), (100, "sparse")):
        (record,) = angle_sensitivity(n, 1, (0.0,), backend=backend)
        assert abs(record.fidelity - 1.0) < 1e-12
        assert not record.failed()


def test_sensitivity_decreases_with_offset_n100():
    deltas = (0.0, 0.1, 0.2, 0.5, 1.0, 2.0)
    records = angle_sensitivity(100, 1, deltas, backend="sparse")
    fids = [r.fidelity for r in records]
    assert [r.delta_plate_angle for r in records] == list(deltas)
    assert all(a > b for a, b in zip(fids, fids[1:]))


def test_sensitivity_matches_overlap_formula():
    # Perturbing coupler j only rotates the control=1 sector, whose weight
    # telescopes to (n-j+1)/n, so F = (p0 + p1*cos(4*delta))**2.
    for n, j in ((8, 1), (8, 3), (12, 5)):
        p1 = (n - j + 1) / n
        for record in angle_sensitivity(n, j, (0.0, 0.3, 1.0, 5.0), backend="dense"):
            eps = 4 * math.radians(record.delta_plate_angle)
            expected = ((1 - p1) + p1 * math.cos(eps)) ** 2
            assert record.fidelity == pytest.approx(expected, abs=1e-12)


def test_misconfigured_first_plate_is_detectable():
    # Setting the first plate of the 100-qubit network to the 200-qubit
    # angle: fidelity drops strictly below 1.
    angles = dict(plate_angle_table(200))
    delta = angles[200] - angles[100]
    (record,) = angle_sensitivity(100, 1, (delta,), backend="sparse")
    assert record.fidelity < 1.0
    expected = math.cos(4 * math.radians(delta)) ** 2
    assert record.fidelity == pytest.approx(expected, abs=1e-10)


def test_sensitivity_cross_checked_against_unitary_oracle():
    # A 45 deg plate offset shifts the first coupler's mixing angle by pi,
    # which only flips the sign of the control=V sector; fidelity shrugs it
    # off.  Checked against the brute-force unitary, not just the simulator.
    from wstates import Circuit, F, build_w_circuit, unitary_of, w_reference

    (record,) = angle_sensitivity(3, 1, (45.0,), backend="dense")
    base = build_w_circuit(3)
    first = base.gates[0]
    shifted = Circuit(
        3, (F(first.control, first.target, first.angle + math.pi),) + base.gates[1:]
    )
    column = unitary_of(shifted)[:, 4]  # input |VHH>
    reference = w_reference(3)
    overlap = sum(reference.amplitude(i) * column[i] for i in range(8))
    assert record.fidelity == pytest.approx(overlap**2, abs=1e-12)
    assert record.fidelity == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_quadratic_falloff():
    small, double = (
        r.fidelity for r in angle_sensitivity(100, 1, (0.01, 0.02), backend="sparse")
    )
    assert 3.6 < (1 - double) / (1 - small) < 4.4


def test_sensitivity_records_sorted_by_delta():
    records = angle_sensitivity(6, 1, (1.0, 0.0, 0.5), backend="dense")
    assert [r.delta_plate_angle for r in records] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("position", [0, -1, 6, 99, 1.5])
def test_sensitivity_rejects_unknown_position(position):
    with pytest.raises(ValueError):
        angle_sensitivity(6, position, (0.0,))


def test_sensitivity_takes_an_integer_position_of_any_type():
    # 1.5 once passed the range check and then perturbed no coupler.
    with pytest.raises(ValueError, match=r"^gate position 1\.5 is not an integer$"):
        angle_sensitivity(5, 1.5, (0.0, 2.0))
    records = angle_sensitivity(5, np.int64(2), (0.0, 2.0))
    assert repr(records) == repr(angle_sensitivity(5, 2, (0.0, 2.0)))
    assert records[1].fidelity < 0.99


def test_sensitivity_takes_its_offsets_from_a_generator():
    records = angle_sensitivity(5, 1, (d for d in (1.0, 0.0)), backend="dense")
    assert [r.delta_plate_angle for r in records] == [0.0, 1.0]
    assert records == angle_sensitivity(5, 1, (1.0, 0.0), backend="dense")


SIZED = {
    "angle_schedule": angle_schedule,
    "predicted_counts": predicted_counts,
    "build_w_circuit": build_w_circuit,
    "pdc_rates": lambda n: pdc_rates(n, PdcModel(0.5)),
    "angle_sensitivity": lambda n: angle_sensitivity(n, 1, (0.0,)),
    "resource_report": resource_report,
    "plate_angle_table": lambda n: list(plate_angle_table(n)),
    "gate_growth_table": lambda n: list(gate_growth_table(n)),
    "w_reference": w_reference,
}


@pytest.mark.parametrize("name", SIZED)
def test_sizes_must_be_integers(name):
    call = SIZED[name]
    with pytest.raises(ValueError, match="is not an integer"):
        call(4.5)
    # An integer numpy scalar is taken as the plain int: the repr of a
    # numpy scalar differs, so none reaches the result.
    assert repr(call(np.int64(5))) == repr(call(5))


def test_sensitivity_rejects_non_finite_offsets():
    with pytest.raises(ValueError):
        angle_sensitivity(6, 1, (math.inf,))


def test_failure_classification_threshold():
    record = SensitivityRecord(100, 1, 12.0, fidelity=0.5)
    assert record.failed()
    assert not record.failed(threshold=0.4)
    good = SensitivityRecord(100, 1, 0.0, fidelity=1.0)
    assert not good.failed()
    nan = SensitivityRecord(100, 1, 0.0, fidelity=math.nan)
    assert nan.failed()
    assert nan.failed(threshold=0.4)
