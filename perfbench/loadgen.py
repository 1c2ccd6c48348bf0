"""Closed-loop load generator for the changefeed server.

One process, at most four threads and connections: producers post
batches to ``POST /ingest`` over keep-alive connections, each sending its
next batch only after the previous ack; live subscribers hold one
``GET /feed`` SSE stream each; an optional replaying subscriber
disconnects, lets ``replay_gap`` batches be acknowledged, and reconnects
with ``?cursor=``. Every timestamp is ``time.monotonic_ns()`` (the same
clock as the server's ``std::chrono::steady_clock``), so client and
server spans line up.
"""

import json
import socket
import sys
import threading
import time

# Hand the interpreter lock over quickly: a thread whose socket turned
# readable should not wait out another thread's 5 ms default slice.
sys.setswitchinterval(1e-4)

# After the last ack, how long live subscribers may take to read it.
DRAIN_S = 10.0


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class HttpConnection:
    """A keep-alive HTTP/1.1 client for Content-Length responses."""

    def __init__(self, port):
        self.sock = _connect(port)
        self.buf = b""

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, method, path, body=b""):
        head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Length: %d\r\n\r\n" % (method, path, len(body)))
        self.sock.sendall(head.encode() + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        self.buf = rest
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def close(self):
        self.sock.close()


def get(port, path):
    conn = HttpConnection(port)
    try:
        return conn.request("GET", path)
    finally:
        conn.close()


class FeedStream:
    """One ``GET /feed`` SSE stream; ``events()`` yields (seq, recv_ns,
    data bytes) per diff event and ("evicted", ns, b"") on eviction."""

    def __init__(self, port, query):
        self.sent_ns = time.monotonic_ns()
        self.sock = _connect(port)
        self.sock.settimeout(None)
        self.sock.sendall(("GET /feed%s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                           % query).encode())

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def events(self):
        buf = b""
        headers_done = False
        seq = None
        kind = None
        while True:
            try:
                chunk = self.sock.recv(262144)
            except OSError:
                return
            if not chunk:
                return
            now = time.monotonic_ns()
            buf += chunk
            if not headers_done:
                if b"\r\n\r\n" not in buf:
                    continue
                _, _, buf = buf.partition(b"\r\n\r\n")
                headers_done = True
            while True:
                nl = buf.find(b"\n")
                if nl < 0:
                    break
                line, buf = buf[:nl], buf[nl + 1:]
                if line.startswith(b"event: "):
                    kind = line[7:]
                    if kind == b"evicted":
                        yield ("evicted", now, b"")
                elif line.startswith(b"id: "):
                    seq = int(line[4:])
                elif line.startswith(b"data: ") and kind == b"diff":
                    yield (seq, now, line[6:])
                elif not line:
                    kind = seq = None


class Run:
    """Shared state of one load run."""

    def __init__(self):
        self.cv = threading.Condition()
        self.acks = []  # (seq, send_ns, ack_ns)
        self.rejects = []  # (status, body)
        self.stop = False

    def max_acked(self):
        with self.cv:
            return max((a[0] for a in self.acks), default=0)


def _producer(run, port, batches, cap_ns, sent):
    try:
        conn = HttpConnection(port)
        for body in batches:
            if time.monotonic_ns() >= cap_ns:
                break
            t0 = time.monotonic_ns()
            sent.append(t0)
            status, resp = conn.request("POST", "/ingest", body)
            t1 = time.monotonic_ns()
            with run.cv:
                if status == 200:
                    run.acks.append((json.loads(resp)["seq"], t0, t1))
                else:
                    run.rejects.append((status, resp[:200]))
                run.cv.notify_all()
        conn.close()
    except OSError as e:
        with run.cv:
            run.rejects.append((0, str(e).encode()))


def _live(stream, out):
    for ev in stream.events():
        out.append(ev)


def _replayer(run, port, gap, sessions, out):
    """Reconnects after every ``gap`` acks; each session reads through the
    highest seq acked when it connected, then disconnects."""
    cursor = 0
    while True:
        with run.cv:
            if run.stop:
                return
            target = max((a[0] for a in run.acks), default=0)
        if target > cursor:
            stream = FeedStream(port, "?cursor=%d" % cursor)
            session = {"sent_ns": stream.sent_ns, "target": target,
                       "caught_ns": None}
            sessions.append(session)
            for ev in stream.events():
                out.append(ev)
                if ev[0] == "evicted":
                    break
                cursor = ev[0]
                if ev[0] >= target:
                    session["caught_ns"] = ev[1]
                    break
            stream.close()
        with run.cv:
            base = len(run.acks)
            run.cv.wait_for(lambda: run.stop or len(run.acks) >= base + gap)


def run_load(port, streams, cap_s, live_queries, replay_gap):
    """Drives one load phase and returns its raw records.

    ``streams`` holds one list of encoded batches per producer; each
    producer posts its whole list, in a closed loop, unless the phase
    runs past ``cap_s`` seconds. Live subscribers connect (one per entry
    of ``live_queries``) before the first batch is sent; a replaying
    subscriber runs when ``replay_gap`` is not 0. Afterwards the live
    subscribers get up to ``DRAIN_S`` seconds to read every acknowledged
    seq before their streams are closed.
    """
    run = Run()
    live = []
    for query in live_queries:
        stream = FeedStream(port, query)
        events = []
        thread = threading.Thread(target=_live, args=(stream, events))
        thread.start()
        live.append((query, stream, events, thread))
    # Each stream is live once the server holds its subscription; an
    # empty store has nothing to replay, so wait for the subscriber gauge.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status, body = get(port, "/status")
        if status == 200 and json.loads(body)["subscribers"] >= len(live):
            break
        time.sleep(0.01)

    replay_events, sessions = [], []
    replayer = None
    if replay_gap:
        replayer = threading.Thread(
            target=_replayer,
            args=(run, port, replay_gap, sessions, replay_events))
        replayer.start()
    sent = [[] for _ in streams]
    start_ns = time.monotonic_ns()
    cap_ns = start_ns + int(cap_s * 1e9)
    producers = [threading.Thread(target=_producer,
                                  args=(run, port, s, cap_ns, sent[i]))
                 for i, s in enumerate(streams)]
    for t in producers:
        t.start()
    for t in producers:
        t.join()
    active_s = (time.monotonic_ns() - start_ns) / 1e9
    with run.cv:
        run.stop = True
        run.cv.notify_all()
    if replayer:
        replayer.join()

    # An unfiltered stream is drained once it has read the last acked
    # seq; a filtered one may end earlier, so it is drained once it has
    # read nothing new for 200 ms (publishing has stopped by now).
    final_seq = run.max_acked()
    drain_until = time.monotonic() + DRAIN_S
    for query, stream, events, _ in live:
        seen, quiet_since = len(events), time.monotonic()
        while time.monotonic() < drain_until:
            last = events[-1][0] if events else None
            if last == "evicted" or (not query and last and
                                     last >= final_seq):
                break
            if len(events) != seen:
                seen, quiet_since = len(events), time.monotonic()
            elif query and time.monotonic() - quiet_since > 0.2:
                break
            time.sleep(0.005)
    for _, stream, _, thread in live:
        stream.close()
        thread.join()
    return {
        "active_s": active_s,
        "acks": run.acks,
        "rejects": run.rejects,
        "attempts": sum(len(s) for s in sent),
        "live": [(q, events) for q, _, events, _ in live],
        "replay": {"events": replay_events, "sessions": sessions},
    }
