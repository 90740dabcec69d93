import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from bselab import _blas


def test_overlapping_pins_restore_once_at_the_last_exit():
    # pins A and B overlap on two threads, A exits first: the count stays 1
    # until B exits, then returns to the count in force before A entered
    libs = _blas._openblas()
    if not libs:
        pytest.skip("no loaded OpenBLAS exports a thread-count call")
    original = [lib.get_num_threads() for lib in libs]
    pins = {name: _blas.single_threaded_blas() for name in "AB"}
    threads = {name: ThreadPoolExecutor(max_workers=1) for name in "AB"}

    def step(name, action):
        threads[name].submit(action).result()
        return [lib.get_num_threads() for lib in libs]

    try:
        for lib in libs:
            lib.set_num_threads(3)
        seen = [
            step("A", pins["A"].__enter__),
            step("B", pins["B"].__enter__),
            step("A", lambda: pins["A"].__exit__(None, None, None)),
            step("B", lambda: pins["B"].__exit__(None, None, None)),
        ]
    finally:
        for pool in threads.values():
            pool.shutdown()
        for lib, n in zip(libs, original):
            lib.set_num_threads(n)
    one, three = [1] * len(libs), [3] * len(libs)
    assert seen == [one, one, one, three]


def test_pins_under_thread_contention():
    # more threads than cores, switching often: inside any pin the count is
    # 1, and once every pin has exited the count before them is back
    libs = _blas._openblas()
    if not libs:
        pytest.skip("no loaded OpenBLAS exports a thread-count call")
    original = [lib.get_num_threads() for lib in libs]
    interval = sys.getswitchinterval()

    def churn():
        seen = set()
        for _ in range(200):
            with _blas.single_threaded_blas():
                seen.update(lib.get_num_threads() for lib in libs)
        return seen

    try:
        for lib in libs:
            lib.set_num_threads(3)
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(churn) for _ in range(8)]
            seen = set().union(*(f.result(timeout=60) for f in futures))
        after = [lib.get_num_threads() for lib in libs]
    finally:
        sys.setswitchinterval(interval)
        for lib, n in zip(libs, original):
            lib.set_num_threads(n)
    assert seen == {1}
    assert after == [3] * len(libs)
