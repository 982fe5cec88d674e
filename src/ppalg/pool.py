"""One fork pool for every batch of independent work: `fork_map`, whose
forked workers inherit the caller's state, a run memo included."""

import marshal
import os
import threading


def _cpus(n):
    """One process per available CPU, at most one per item, and only the
    caller where the affinity is unknown or where a second thread is alive,
    since forking a threaded process can deadlock."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _pull(fn, queue):
    """{k: fn(k)} for each index k read off the queue, less any k that raises."""
    results = {}
    while k := os.read(queue, 1):
        try:
            results[k[0]] = fn(k[0])
        except Exception:
            pass
    return results


def fork_map(fn, n):
    """[fn(0), ..., fn(n - 1)], on the caller and one forked worker per
    further available CPU, all pulling indices from one queue.  The caller
    runs again, in order, every index no worker returned, so an exception
    reaches it with its own type, and a worker that died or was not forked
    costs only time; a caller that unwinds kills and reaps every worker.
    The queue holds one byte per index, so n is at most 256 (a larger n
    raises ValueError before any fork); results must be marshallable, or
    a worker's share runs again in the caller."""
    order = bytes(range(n))
    queue, feed = os.pipe()
    os.write(feed, order)
    os.close(feed)
    workers = []   # (pid, read end of its result pipe) until reaped
    try:
        for _ in range(_cpus(n) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no further process: the others take its share
                os.close(r)
                os.close(w)
                break
            if pid == 0:   # the worker: exit, never return into the caller's stack
                code = 1
                try:
                    with os.fdopen(w, "wb") as f:
                        f.write(marshal.dumps(_pull(fn, queue)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        done = _pull(fn, queue)
        while workers:
            pid, f = workers[-1]
            with f:
                blob = f.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop()
            if status == 0:
                done.update(marshal.loads(blob))
    finally:
        os.close(queue)
        for pid, f in workers:   # left only when the caller is unwinding
            f.close()
            os.kill(pid, 9)      # SIGKILL
            os.waitpid(pid, 0)
    return [done[k] if k in done else fn(k) for k in range(n)]
