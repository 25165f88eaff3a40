"""Work side by side: the first task in the calling process, the rest in one forked worker.

`run` maps its shapes over this pool, `features` its shapes, and the CSV
loader its dataset files. It lives in its own module because `dataset` and
`pipeline` both call it, and `pipeline` imports `dataset`.
"""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may run on: its affinity set, or the machine's count where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _send_results(fn, tasks, conn) -> None:
    """The worker's body: send (True, [fn(task), ...]) through `conn`, or (False, the first error)."""
    try:
        conn.send((True, [fn(task) for task in tasks]))
    except Exception as error:
        conn.send((False, error))


def map_tasks(fn, tasks) -> list:
    """[fn(task) for task in tasks], the first task in this process and the rest in one forked worker.

    The worker inherits `fn`, and the data it holds, from the fork, so only
    its results are pickled. With fewer than two usable cores or tasks, or
    where `fork` is not a start method, every task runs here. The error
    raised is the first in task order, as in a serial run; when this
    process's task fails, the worker is ended at once. No worker outlives
    the call.
    """
    # imported here, so that a program that maps no tasks does not pay for it (about 1.3 MB)
    import multiprocessing

    if min(usable_cores(), len(tasks)) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(task) for task in tasks]
    context = multiprocessing.get_context("fork")
    results, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_results, args=(fn, tasks[1:], sender), daemon=True)
    worker.start()
    sender.close()  # the worker holds the only write end, so its death reads as end of file
    try:
        first = fn(tasks[0])
        try:
            ok, rest = results.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(f"the task worker exited with code {worker.exitcode} and no result") from None
        if not ok:
            raise rest
        return [first, *rest]
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        results.close()
