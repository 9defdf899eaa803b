"""Tests for shared utilities."""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.utils.logging import configure_logging, get_logger
from repro.core.engine import WORKER_LR_SCALE_BOUNDS
from repro.simulation.network import MAX_BANDWIDTH_MBPS, MIN_BANDWIDTH_MBPS
from repro.utils.numeric import (
    clamp,
    moving_average,
    normalize_distribution,
    safe_divide,
)
from repro.utils.rng import (
    get_rng_state,
    new_rng,
    set_rng_state,
    spawn_rngs,
    spawned_rng,
)


class TestRng:
    def test_same_seed_same_stream(self):
        assert new_rng(5).random() == new_rng(5).random()

    def test_spawn_produces_independent_streams(self):
        rngs = spawn_rngs(0, 3)
        values = [rng.random() for rng in rngs]
        assert len(set(values)) == 3

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
        assert spawn_rngs(0, 0) == []

    def test_spawned_rng_matches_eager_spawn(self):
        """Lazy per-index spawning is bit-identical to spawn_rngs."""
        eager = spawn_rngs(17, 5)
        for index in range(5):
            assert spawned_rng(17, index).random() == eager[index].random()

    def test_spawned_rng_rejects_negative_index(self):
        with pytest.raises(ValueError):
            spawned_rng(0, -1)

    def test_rng_state_roundtrip(self):
        rng = new_rng(3)
        rng.random(10)
        state = get_rng_state(rng)
        expected = rng.random(4)
        other = new_rng(0)
        set_rng_state(other, state)
        assert np.array_equal(other.random(4), expected)


class TestNumeric:
    def test_normalize_distribution(self):
        assert np.allclose(normalize_distribution(np.array([2.0, 2.0])), 0.5)

    def test_normalize_zero_vector_gives_uniform(self):
        assert np.allclose(normalize_distribution(np.zeros(4)), 0.25)

    def test_normalize_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_distribution(np.array([-1.0, 2.0]))

    def test_safe_divide(self):
        assert safe_divide(4.0, 2.0) == 2.0
        assert safe_divide(4.0, 0.0, default=-1.0) == -1.0

    def test_moving_average(self):
        assert moving_average(1.0, 3.0, alpha=0.75) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            moving_average(1.0, 1.0, alpha=2.0)

    @pytest.mark.parametrize("lower,upper", [
        WORKER_LR_SCALE_BOUNDS,
        (MIN_BANDWIDTH_MBPS, MAX_BANDWIDTH_MBPS), (0.0, 1.0),
    ])
    def test_clamp_is_np_clip_for_a_scalar(self, lower, upper):
        """The bounds of every call site, at, inside and outside them, and
        NaN and the infinities: the same float, signed zeros included."""
        values = [
            lower, upper, (lower + upper) / 2, np.nextafter(lower, -np.inf),
            np.nextafter(upper, np.inf), lower - 1.0, upper * 3.0, -0.0, 0.0,
            np.float64(upper / 3), 2, np.nan, np.inf, -np.inf,
        ]
        for value in values:
            got = clamp(value, lower, upper)
            expected = float(np.clip(value, lower, upper))
            assert type(got) is float
            assert np.array_equal(got, expected, equal_nan=True), value
            assert np.signbit(got) == np.signbit(expected), value


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core").name == "repro.core"

    def test_configure_logging_idempotent(self):
        configure_logging(logging.DEBUG)
        configure_logging(logging.DEBUG)
        assert len(logging.getLogger("repro").handlers) == 1


class TestReleaseFreeHeap:
    def test_runs_on_every_platform(self):
        from repro.utils.mp import release_free_heap

        assert release_free_heap() is None

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmRSS from /proc")
    def test_returns_freed_heap_pages_to_the_os(self):
        """32 MiB of freed 64 KiB arrays sit below a live one, where the
        allocator keeps them resident; releasing hands them back.  Run in a
        fresh interpreter, whose heap holds nothing else."""
        code = (
            "import ctypes, numpy as np\n"
            "from repro.utils.mp import release_free_heap\n"
            "try:\n"
            "    ctypes.CDLL(None).malloc_trim\n"
            "except (AttributeError, OSError):\n"
            "    print('skip'); raise SystemExit\n"
            "def rss():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmRSS'):\n"
            "            return int(line.split()[1]) / 1024\n"
            "blocks = [np.full(8192, 1.0) for __ in range(512)]\n"
            "pin = np.full(8192, 1.0)\n"
            "del blocks\n"
            "freed = rss()\n"
            "release_free_heap()\n"
            "print(freed - rss())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        if result.stdout.strip() == "skip":
            pytest.skip("the C library has no malloc_trim")
        assert float(result.stdout) > 16.0, result.stdout
