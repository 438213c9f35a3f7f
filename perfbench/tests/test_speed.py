"""Timings are read at the speed probe's reference speed."""

import signal
import time

import pytest

from perfbench import speed

REF = speed.REFERENCE_MS


def log_with(probes):
    """A log holding ``(start s, ms)`` probes."""
    log = speed.SpeedLog()
    for start, ms in probes:
        log.starts.append(start)
        log.ms.append(ms)
    return log


def test_an_interval_on_a_half_speed_machine_reads_half_as_long():
    log = log_with([(i * 0.1, 2 * REF) for i in range(20)])
    # 0.55..0.95 s holds the probes that started at 0.6, 0.7, 0.8 and 0.9.
    own_ms = 400 - 4 * 2 * REF
    assert log.inside_ms(0.55, 0.95) == pytest.approx(4 * 2 * REF)
    assert log.effective_ms(0.55, 0.95) == pytest.approx(own_ms / 2)


def test_a_long_interval_is_read_against_the_probes_inside_it():
    slow = [(i * 0.1, 3 * REF) for i in range(10)]
    fast = [(1.0 + i * 0.1, REF) for i in range(10)]
    log = log_with(slow + fast + [(2.0 + i * 0.1, 3 * REF) for i in range(10)])
    assert log.local_ms(0.95, 2.0) == REF
    assert log.effective_ms(0.95, 2.0) == pytest.approx(1050 - 10 * REF)


def test_a_short_interval_is_read_against_its_nearest_probes():
    log = log_with([(i * 0.1, REF * (1 if i < 10 else 2)) for i in range(20)])
    assert log.local_ms(0.301, 0.302) == REF
    assert log.local_ms(1.701, 1.702) == 2 * REF
    # Fewer probes than NEAREST in all: all of them.
    few = log_with([(0.0, REF), (1.0, 3 * REF)])
    assert few.local_ms(0.5, 0.6) == 2 * REF


def test_no_probe_is_an_error():
    with pytest.raises(RuntimeError):
        speed.SpeedLog().local_ms(0.0, 1.0)


def test_the_sampler_probes_while_python_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    log = speed.SpeedLog()
    with speed.Sampler(log):
        end = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(log.ms) >= 4  # one on entry, one on exit, timer probes between
    assert log.starts == sorted(log.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
