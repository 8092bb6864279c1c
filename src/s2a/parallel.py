"""The second core: one worker thread beside the calling thread."""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor


def split_work(fn, items: list) -> None:
    """fn(item) for every item: the caller runs items[::2] and one worker
    thread items[1::2], and the worker is joined before this returns, also
    when fn raises. The worker runs its items in a copy of the caller's
    context, so it sees the caller's numpy error state (np.errstate). The
    items must write disjoint memory. perfbench's tracer keeps one span
    stack, so a traced function called by fn on the worker gets a wrong
    parent span: its call counts hold, the self times of its callers do
    not."""
    with ThreadPoolExecutor(1) as pool:
        worker = pool.submit(contextvars.copy_context().run,
                             lambda: [fn(item) for item in items[1::2]])
        for item in items[::2]:
            fn(item)
        worker.result()
