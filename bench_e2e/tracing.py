"""Span recording around each layer's public entry points.

The wrappers live here, in the benchmark, and are installed on
instances, classes or module attributes that the program looks up on
every call, so they see every call without any change to the program.
A span records its name, start, end, parent span, request id, thread
and one auxiliary count (result size, entries removed, bytes...).
Spans stay in memory until :meth:`Tracer.save` writes them out.

Parents follow the calling thread's span stack.  Work a router hands
to its fan-out pool inherits the submitting span as parent (see
:func:`install_fanout`), so a query's shard work on pool threads is
charged to that query.
"""

from __future__ import annotations

import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# Span names: "<layer>.<entry point>", the layer being the module.
OP = "bench.op"
CLIENT = "serving.client.request"
HANDLE = "serving.server.handle"
SEND = "serving.protocol.send_frame"
ENCODE = "serving.protocol.encode"
ROUTER_UPSERT = "serving.router.upsert"
ROUTER_QUERY = "serving.router.query"
ROUTER_KNN = "serving.router.knn"
LATCH_WAIT = "serving.router.latch_wait"
IO_SLEEP = "serving.router.io_sleep"
IO_WAIT = "serving.router.io_wait"
RUM_UPDATE = "core.rum.update"
RUM_DELETE = "core.rum.delete"
RUM_SEARCH = "core.rum.search"
RUM_KNN = "core.rum.knn"
PROBE = "core.memo.probe"
SWEEP = "core.cleaner.sweep"
RANGE_SEARCH = "rtree.base.range_search"
ITER_NEAREST = "rtree.base.iter_nearest"
MIRROR_BUILD = "rtree.mirror.build"
MIRROR_SEARCH = "rtree.mirror.search"
GET_NODE = "storage.buffer.get_node"
DECODE = "storage.codec.decode"
ENCODE_PAGE = "storage.codec.encode"
WAL_APPEND = "storage.wal.append"
WAL_FORCE = "storage.wal.force"

#: Request kinds carried in the aux slot of root spans.
KIND_CODES = {"update": 0, "query": 1, "knn": 2}
OTHER_KIND = 3


def _length(result: Any) -> int:
    return len(result)


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.thread = array("q")
        self.aux = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}

    # -- per-thread state --------------------------------------------------

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.inherited = -1
            local.req = 0
            with self._lock:
                local.tid = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
        return local

    def set_request(self, req: int) -> None:
        self._state().req = req

    def current(self) -> Tuple[int, int]:
        """``(innermost open span, request id)`` of the calling thread."""
        st = self._state()
        return (st.stack[-1] if st.stack else st.inherited), st.req

    def adopt(self, parent: int, req: int) -> None:
        """Make ``parent`` the root parent of this thread's next spans."""
        st = self._state()
        st.inherited = parent
        st.req = req

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, aux: int = 0) -> int:
        st = self._state()
        stack = st.stack
        parent = stack[-1] if stack else st.inherited
        with self._lock:
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.req.append(st.req)
            self.thread.append(st.tid)
            self.aux.append(aux)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(i)
        return i

    def finish(self, i: int, aux: Optional[int] = None) -> None:
        self.end[i] = time.perf_counter_ns()
        if aux is not None:
            self.aux[i] = aux
        self._local.stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        aux: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = begin(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = None
                if aux is not None and result is not None:
                    count = aux(result)
                finish(i, count)

        return traced

    def wrap_iter(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Trace a generator function: one span per ``next()`` call, so
        the consumer's own work between items is not charged to it."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)

            def steps() -> Any:
                try:
                    while True:
                        i = begin(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            finish(i)
                        yield item
                finally:
                    inner.close()

            return steps()

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        with self._lock:
            return {
                "name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end": np.frombuffer(self.end, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "req": np.frombuffer(self.req, dtype=np.int64).copy(),
                "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
                "aux": np.frombuffer(self.aux, dtype=np.int64).copy(),
            }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def load(path: str) -> Tuple[List[str], Dict[str, np.ndarray]]:
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        return names, {k: data[k] for k in data.files if k != "names"}


# -- installation -------------------------------------------------------------


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set(self, target: Any, attr: str, value: Any) -> None:
        # A method reached through the class is shadowed by an instance
        # attribute; undoing it deletes the shadow.  Class, module and
        # slot attributes are set back.
        own = getattr(target, "__dict__", None)
        shadow = (
            not isinstance(target, type)
            and own is not None
            and attr not in own
        )
        self._undo.append((target, attr, getattr(target, attr), shadow))
        setattr(target, attr, value)

    def undo(self) -> None:
        while self._undo:
            target, attr, old, shadow = self._undo.pop()
            if shadow:
                delattr(target, attr)
            else:
                setattr(target, attr, old)


class _TimedEnter:
    """Wraps a context manager (a latch mode, a lock) so that its
    ``__enter__``, the wait to acquire, is a span."""

    __slots__ = ("_cm", "_tracer", "_nid")

    def __init__(self, cm: Any, tracer: Tracer, nid: int) -> None:
        self._cm, self._tracer, self._nid = cm, tracer, nid

    def __enter__(self) -> Any:
        i = self._tracer.begin(self._nid)
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.finish(i)

    def __exit__(self, *exc: Any) -> Any:
        return self._cm.__exit__(*exc)


class _ModuleShim:
    """Stands in for a module: overridden names first, then the module."""

    def __init__(self, module: Any, **overrides: Any) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install_tree(tracer: Tracer, patches: Patches, tree: Any) -> None:
    """Wrap one RUM-tree stack: tree ops, latch, memo, buffer, codec, WAL."""
    for attr in ("update_object", "insert_object"):
        patches.set(tree, attr, tracer.wrap(getattr(tree, attr), RUM_UPDATE))
    patches.set(tree, "delete_object", tracer.wrap(tree.delete_object, RUM_DELETE))
    patches.set(tree, "search", tracer.wrap(tree.search, RUM_SEARCH, _length))
    patches.set(
        tree, "nearest_neighbors", tracer.wrap(tree.nearest_neighbors, RUM_KNN)
    )
    patches.set(
        tree, "range_search", tracer.wrap(tree.range_search, RANGE_SEARCH, _length)
    )
    patches.set(tree, "iter_nearest", tracer.wrap_iter(tree.iter_nearest, ITER_NEAREST))
    patches.set(tree, "clean_leaf", tracer.wrap(tree.clean_leaf, SWEEP, int))
    latch = tree.latch
    latch_nid = tracer.name_id(LATCH_WAIT)
    for attr in ("read", "write"):
        acquire = getattr(latch, attr)
        patches.set(
            latch,
            attr,
            lambda acquire=acquire: _TimedEnter(acquire(), tracer, latch_nid),
        )
    memo = tree.memo
    for attr in ("latest_stamp", "check_status", "is_obsolete"):
        patches.set(memo, attr, tracer.wrap(getattr(memo, attr), PROBE))
    buffer = tree.buffer
    patches.set(buffer, "get_node", tracer.wrap(buffer.get_node, GET_NODE))
    codec = buffer.codec
    patches.set(codec, "decode", tracer.wrap(codec.decode, DECODE))
    patches.set(codec, "encode", tracer.wrap(codec.encode, ENCODE_PAGE))
    if tree.wal is not None:
        patches.set(tree.wal, "append", tracer.wrap(tree.wal.append, WAL_APPEND))
        patches.set(tree.wal, "force", tracer.wrap(tree.wal.force, WAL_FORCE))


def install_mirror(tracer: Tracer, patches: Patches) -> None:
    import repro.rtree.mirror as mirror

    patches.set(mirror, "build_mirror", tracer.wrap(mirror.build_mirror, MIRROR_BUILD))
    patches.set(
        mirror.QueryMirror,
        "search",
        tracer.wrap(mirror.QueryMirror.search, MIRROR_SEARCH),
    )


def install_fanout(tracer: Tracer, patches: Patches) -> None:
    """Carry the submitting span into pool threads as their parent."""
    submit = ThreadPoolExecutor.submit

    def traced_submit(pool: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
        parent, req = tracer.current()

        def run(*a: Any, **kw: Any) -> Any:
            tracer.adopt(parent, req)
            try:
                return fn(*a, **kw)
            finally:
                tracer.adopt(-1, 0)

        return submit(pool, run, *args, **kwargs)

    patches.set(ThreadPoolExecutor, "submit", traced_submit)


def install_router(tracer: Tracer, patches: Patches, router: Any) -> None:
    """Wrap the router's entry points, its shard stacks and I/O channel."""
    import repro.serving.router as router_mod

    patches.set(router, "upsert", tracer.wrap(router.upsert, ROUTER_UPSERT))
    patches.set(router, "query", tracer.wrap(router.query, ROUTER_QUERY, _length))
    patches.set(
        router, "nearest_neighbors", tracer.wrap(router.nearest_neighbors, ROUTER_KNN)
    )
    patches.set(
        router_mod,
        "time",
        _ModuleShim(time, sleep=tracer.wrap(time.sleep, IO_SLEEP)),
    )
    wait_nid = tracer.name_id(IO_WAIT)
    for shard in router.shards:
        patches.set(shard, "io_lock", _TimedEnter(shard.io_lock, tracer, wait_nid))
        install_tree(tracer, patches, shard.tree)
    install_fanout(tracer, patches)
    install_mirror(tracer, patches)


def install_server(tracer: Tracer, patches: Patches) -> None:
    """Bracket each served request: a handle span runs from
    ``recv_frame``'s return to ``send_frame``'s return.  Requests are
    numbered ``(connection ordinal, sequence)``; connection ordinals
    follow the order of each connection's first request."""
    import json

    import repro.serving.protocol as protocol
    import repro.serving.server as server

    recv_frame, send_frame = server.recv_frame, server.send_frame
    handle_nid = tracer.name_id(HANDLE)
    send = tracer.wrap(send_frame, SEND)
    conns: Dict[int, int] = {}
    lock = threading.Lock()
    local = threading.local()

    def traced_recv(sock: Any) -> Any:
        message = recv_frame(sock)
        if message is not None:
            if not hasattr(local, "conn"):
                with lock:
                    local.conn = conns.setdefault(id(sock), len(conns))
                local.seq = 0
            tracer.set_request((local.conn << 32) | local.seq)
            local.seq += 1
            kind = KIND_CODES.get(message.get("op"), OTHER_KIND)
            local.handle = tracer.begin(handle_nid, kind)
        return message

    def traced_send(sock: Any, message: Any) -> None:
        try:
            send(sock, message)
        finally:
            handle = getattr(local, "handle", None)
            if handle is not None:
                local.handle = None
                tracer.finish(handle)
                tracer.set_request(0)

    patches.set(server, "recv_frame", traced_recv)
    patches.set(server, "send_frame", traced_send)
    patches.set(
        protocol,
        "json",
        _ModuleShim(json, dumps=tracer.wrap(json.dumps, ENCODE, _length)),
    )


def install_client(tracer: Tracer, patches: Patches) -> None:
    """Number client requests like :func:`install_server` does."""
    from repro.serving.client import ServingClient

    request = ServingClient.request
    nid = tracer.name_id(CLIENT)
    conns: Dict[int, List[int]] = {}
    lock = threading.Lock()

    def traced_request(client: Any, message: Dict[str, Any]) -> Any:
        with lock:
            state = conns.get(id(client))
            if state is None:
                state = conns[id(client)] = [len(conns), 0]
            seq = state[1]
            state[1] += 1
        tracer.set_request((state[0] << 32) | seq)
        i = tracer.begin(nid, KIND_CODES.get(message.get("op"), OTHER_KIND))
        try:
            return request(client, message)
        finally:
            tracer.finish(i)

    patches.set(ServingClient, "request", traced_request)
