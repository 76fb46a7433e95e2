import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from srcpolar import pipeline

SRC = Path(__file__).resolve().parents[1] / "src"


class Recorder:
    """A job function that records who ran each job and how many ran at once, and a job stream that
    records how many jobs were in flight when each was drawn."""

    def __init__(self, delay, fail_at=None):
        self.delay, self.fail_at = delay, fail_at
        self.lock = threading.Lock()
        self.running = self.most_running = self.drawn = self.taken = self.most_in_flight = 0
        self.threads = {}

    def job(self, k):
        with self.lock:
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        try:
            time.sleep(self.delay(k))
            if k == self.fail_at:
                raise ValueError(k)
            self.threads[k] = threading.get_ident()
            return k * k
        finally:
            with self.lock:
                self.running -= 1

    def jobs(self, count):
        for k in range(count):
            self.drawn += 1
            self.most_in_flight = max(self.most_in_flight, self.drawn - self.taken)
            yield (k,)

    def results(self, count, workers):
        out = []
        for r in pipeline.ordered(self.job, self.jobs(count), workers):
            self.taken += 1
            out.append(r)
        return out


class TestOrdered:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_caller_takes_unstarted_jobs_in_order(self, workers):
        # Every fourth job is slow, so the caller, waiting on it, runs jobs the pool has not started.
        before = threading.active_count()
        rec = Recorder(lambda k: 0.02 if k % 4 == 0 else 0.002)
        assert rec.results(24, workers) == [k * k for k in range(24)]
        assert rec.most_in_flight <= workers + 1 and rec.most_running <= workers
        caller = sum(t == threading.get_ident() for t in rec.threads.values())
        assert caller == 24 if workers == 1 else 0 < caller < 24
        assert threading.active_count() == before

    @pytest.mark.parametrize("by_caller", [False, True])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_exception_raised_at_its_turn(self, workers, by_caller):
        # The pool's workers - 1 threads start the slow first jobs, so the caller runs the next one.
        fail_at = workers - 1 if by_caller else 0
        before = threading.active_count()
        rec, got = Recorder(lambda k: 0.05 if k < workers - 1 else 0.001, fail_at=fail_at), []
        with pytest.raises(ValueError, match=str(fail_at)):
            for r in pipeline.ordered(rec.job, rec.jobs(12), workers):
                got.append(r)
        assert got == [k * k for k in range(fail_at)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_early_close_leaves_no_thread(self, workers):
        before = threading.active_count()
        rec = Recorder(lambda k: 0.01)
        results = pipeline.ordered(rec.job, rec.jobs(50), workers)
        assert next(results) == 0
        results.close()
        assert threading.active_count() == before
        assert rec.drawn <= workers + 1  # at most workers + 1 in flight, and none drawn after the close

    @pytest.mark.parametrize("count", [0, 1])
    def test_one_job_starts_no_pool(self, count, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        rec = Recorder(lambda k: 0)
        assert rec.results(count, 4) == [k * k for k in range(count)]
        assert set(rec.threads.values()) <= {threading.get_ident()}

    def test_one_chunk_imports_no_thread_pool(self):
        # A single-chunk compress_file and a single-chunk Monte-Carlo run inline.
        code = (
            "import io, sys\n"
            "from srcpolar import JointSource, build_high_entropy_set, compress_file, zbound_spectrum\n"
            "from srcpolar.spectrum import montecarlo_spectrum\n"
            "hset = build_high_entropy_set(zbound_spectrum(JointSource.bernoulli(0.11), 1024), 0.8)\n"
            "compress_file(io.BytesIO(bytes(2048)), hset)\n"
            "montecarlo_spectrum(JointSource.bsc_pair(0.11), 1024, 64, 1)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
