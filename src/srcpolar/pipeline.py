"""One ordered, bounded pipeline of jobs on every usable core.

`ordered(fn, jobs, workers)` yields fn(*job) for each job in job order,
with at most workers + 1 jobs in flight.  The jobs are drawn from their
iterable on the calling thread, so a stream that reads a file or draws
random numbers is consumed in order whatever the worker count, and the
results, taken in order, do not depend on it either.

A pool of workers - 1 threads runs the jobs, and the calling thread runs
jobs too: while the oldest job is still running, it takes one the pool
has not started (Future.cancel succeeds only on those) and runs it
itself.  Each thread that allocates a job's arrays keeps its own malloc
arena, about one job's working set of resident memory, so no thread is
started that would sit idle while the caller waits.  The pool pays only
where jobs spend most of their time outside the GIL, as numpy loops over
wide arrays and zlib on large buffers do.

With one worker, or at most one job, the jobs run inline: no pool is
started and concurrent.futures is not imported.  A job's exception is
raised at its turn, and no thread is left running on any exit, including
a consumer that closes the generator early.
"""

import os
from collections import deque
from itertools import islice


def _workers() -> int:
    """Threads a pipeline may run on: one per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered(fn, jobs, workers: int):
    """fn(*job) for each argument tuple of the iterable jobs, in job order, on `workers` threads at most."""
    jobs = iter(jobs)
    ahead = list(islice(jobs, 2 if workers > 1 else 0))  # a pool only for two jobs or more
    pooled = len(ahead) == 2
    jobs = _drawn(ahead, jobs)
    if pooled:
        yield from _pooled(fn, jobs, workers)
    else:
        for job in jobs:
            yield fn(*job)


def _drawn(ahead: list, jobs):
    """The jobs drawn ahead, each dropped from the list as it is taken, then the rest of jobs."""
    while ahead:
        yield ahead.pop(0)
    yield from jobs


def _pooled(fn, jobs, workers: int):
    """ordered's pipeline: a pool of workers - 1 threads, the calling thread running unstarted jobs."""
    from concurrent.futures import Future, ThreadPoolExecutor

    pending = deque()  # [job or None, future] of each job in flight, oldest first

    def run_unstarted() -> bool:
        """Run the oldest job the pool has not started on this thread; False if every job has started."""
        for entry in pending:
            if entry[0] is not None and entry[1].cancel():
                job, entry[:] = entry[0], (None, Future())
                try:
                    entry[1].set_result(fn(*job))
                except Exception as exc:  # raised when its turn comes, like a pool job's
                    entry[1].set_exception(exc)
                return True
            entry[0] = None  # started or done: the pool holds the arguments it needs
        return False

    def oldest():
        while not pending[0][1].done() and run_unstarted():
            pass
        return pending.popleft()[1].result()

    with ThreadPoolExecutor(workers - 1) as pool:
        try:
            for job in jobs:
                pending.append([job, pool.submit(fn, *job)])
                if len(pending) > workers:
                    yield oldest()
            while pending:
                yield oldest()
        finally:  # on an exception or an early close: start nothing more, and the with joins the rest
            for _, future in pending:
                future.cancel()
