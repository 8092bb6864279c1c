import math

import pytest

import hostspeed
import run


def test_p50_is_the_median_of_op_times():
    assert run.p50([0.3, 0.1, 0.2]) == 0.2
    assert run.p50([0.4, 0.1, 0.3, 0.2]) == pytest.approx(0.25)


def test_work_per_s_divides_total_work_by_summed_op_time():
    # 3 ops of 640 notes taking 0.5 + 0.25 + 0.25 s: 1920 notes in 1 s
    assert run.work_per_s([640, 640, 640], [0.5, 0.25, 0.25]) == pytest.approx(1920.0)
    # a failed op does no work but its time still counts
    assert run.work_per_s([8, 0], [1.0, 1.0]) == pytest.approx(4.0)


def test_quartiles_match_statistics_quantiles_and_survive_one_op():
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [1.5, 3.0, 4.5]
    assert run.quartiles([2.0]) == [2.0, 2.0, 2.0]


def test_values_differ_uses_a_relative_tolerance_and_nan_equality():
    want = {"a": 1.0, "b": 0.0, "c": math.nan}
    assert run.values_differ({"a": 1.0 + 1e-12, "b": 0.0, "c": math.nan}, want) == []
    assert run.values_differ({"a": 1.0 + 1e-6, "b": 0.0, "c": math.nan}, want) == ["a"]
    assert run.values_differ({"a": 1.0, "b": 1e-30, "c": 1.0}, want) == ["b", "c"]
    assert run.values_differ({"a": 1.0}, want) == ["b", "c"]


def test_host_speed_scale_maps_wall_time_to_reference_seconds():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    # probes twice as slow as the reference: the host runs at half speed
    assert hostspeed.scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)
    # the median: one probe caught in a slow spell does not move it
    assert hostspeed.scale([ref, ref, 9 * ref, ref]) == pytest.approx(1.0)


def test_each_op_is_scaled_by_the_probes_on_either_side_of_it():
    ref, side = hostspeed.REFERENCE_PROBE_S, hostspeed.SIDE
    n_ops = 3
    # probe j takes (j + 1) reference probes; op k sits between probes side - 1 + k and side + k
    gaps = [(j + 1) * ref for j in range(n_ops + 2 * side - 1)]
    scales = hostspeed.op_scales(gaps)
    assert len(scales) == n_ops
    for k, factor in enumerate(scales):
        assert factor == pytest.approx(1 / (side + k + 0.5))


def test_op_seconds_are_wall_times_times_their_scale():
    log = run.OpLog.__new__(run.OpLog)
    log.wall, log.scale = [1.0, 2.0], [0.5, 1.5]
    assert log.seconds == [0.5, 3.0]
