#!/usr/bin/env python3
"""End-to-end smoke test for the wire protocol (docs/PROTOCOL.md).

Speaks protocol version 1 from scratch with nothing but the stdlib --
an independent second implementation of the frame layout, so a C++-side
encoding slip that the C++ round-trip tests cannot see (they share the
codecs) fails here.  Drives a live server (examples/wire_server.cpp):

  1. hello -> welcome handshake,
  2. a streamed solve round-trip that must succeed with a finite
     expected makespan and echo our tenant id,
  3. ordering under pipelining: 16 streamed submits of one job in a
     single write; each request id must see its kSubmitAck, then exactly
     one kResult, and every result must succeed with the same makespan,
  4. a quota rejection: a throttled tenant's second submit must bounce
     with a kRetryAfter frame carrying a positive retry-after hint,
  5. a stats round-trip: the kStatsReply JSON must parse with Python's
     own parser, and its per-tenant counters must reconcile with the
     global ones and with steps 2-4.

Usage (the CI smoke lane):
  wire_server --port 7433 --quotas "2:0.000001:0.000001" &
  python3 tools/wire_smoke.py --port 7433
"""
import argparse
import json
import socket
import struct
import sys

MAGIC = b"CKPT"
VERSION = 1
HEADER = struct.Struct("<4sBBHQQI")  # magic ver type flags tenant request len

# FrameType values (src/net/frame.hpp).
HELLO, WELCOME, SUBMIT, SUBMIT_ACK = 1, 2, 3, 4
RESULT, RETRY_AFTER, ERROR = 9, 10, 11
STATS_REQUEST, STATS_REPLY, GOODBYE = 12, 13, 14
FLAG_STREAM_RESULT = 1

# JobState values (src/service/job.hpp).
SUCCEEDED, REJECTED = 2, 6

# Streamed submits sent in one write by the pipelining step.
PIPELINED = 16

# Counters kept both globally and per tenant (service::TenantCounters).
TENANT_COUNTERS = ("submitted", "rejected", "succeeded", "failed",
                   "cancelled", "expired", "preempted")


def frame(ftype, tenant, request_id, payload=b"", flags=0):
    return HEADER.pack(MAGIC, VERSION, ftype, flags, tenant, request_id,
                       len(payload)) + payload


def wire_string(text):
    raw = text.encode()
    return struct.pack("<I", len(raw)) + raw


def submit_payload(tenant, n=64):
    """A uniform AD job on a pinned valid platform (layout:
    src/net/payload.cpp encode_job_request)."""
    out = struct.pack("<BBQdQ", 0, 1, 0, -1.0, tenant)
    out += struct.pack("<I", n) + struct.pack("<%dd" % n, *([25000.0 / n] * n))
    out += wire_string("smoke")
    out += struct.pack("<I", 100)  # nodes
    out += struct.pack("<9d", 1.0 / 86400, 1.0 / 172800, 600.0, 60.0,
                       600.0, 60.0, 300.0, 30.0, 0.8)
    out += struct.pack("<Bd", 0, 1.0)  # exponential law
    out += struct.pack("<B", 1)  # uniform cost model
    return out


def recv_exact(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("server closed mid-frame")
        data += chunk
    return data


def read_frame(sock):
    magic, version, ftype, _flags, tenant, request_id, length = \
        HEADER.unpack(recv_exact(sock, HEADER.size))
    assert magic == MAGIC and version == VERSION, "bad frame header"
    return ftype, tenant, request_id, recv_exact(sock, length)


def parse_status(payload):
    """JobStatus payload -> (state, tenant, reject_reason, makespan)."""
    (job_id, state, _prio, reject, tenant, _cost, _sub, _start, _starts,
     _preempt, errlen) = struct.unpack_from("<QBBBQdQQIII", payload)
    offset = struct.calcsize("<QBBBQdQQIII") + errlen
    (has_result,) = struct.unpack_from("<B", payload, offset)
    makespan = None
    if has_result:
        (makespan,) = struct.unpack_from("<d", payload, offset + 1)
    return state, tenant, reject, makespan


def check(condition, message):
    if not condition:
        print("FAIL:", message)
        sys.exit(1)
    print("ok:", message)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--throttled-tenant", type=int, default=2,
                        help="tenant the server was started with a "
                             "near-zero quota for")
    args = parser.parse_args()

    # 1. Handshake + solve round-trip as an unthrottled tenant.
    with socket.create_connection((args.host, args.port), timeout=30) as s:
        s.sendall(frame(HELLO, 1, 1, wire_string("wire_smoke.py")))
        ftype, _, _, _ = read_frame(s)
        check(ftype == WELCOME, "hello answered with welcome")

        s.sendall(frame(SUBMIT, 1, 2, submit_payload(1),
                        flags=FLAG_STREAM_RESULT))
        ftype, tenant, request_id, payload = read_frame(s)
        check(ftype == SUBMIT_ACK and request_id == 2, "submit acked")
        state, tenant, _, _ = parse_status(payload)
        check(state != REJECTED, "submit admitted")
        check(tenant == 1, "ack echoes our tenant id")

        ftype, _, request_id, payload = read_frame(s)
        check(ftype == RESULT and request_id == 2, "result streamed")
        state, tenant, _, makespan = parse_status(payload)
        check(state == SUCCEEDED, "job succeeded")
        check(tenant == 1, "result attributed to our tenant")
        check(makespan is not None and makespan > 0,
              "finite positive expected makespan (%r)" % makespan)
        s.sendall(frame(GOODBYE, 1, 3))

    # 2. Pipelining: the repeats of one job hit the plan cache and finish
    #    within microseconds, so their results race their acks.
    with socket.create_connection((args.host, args.port), timeout=30) as s:
        ids = range(1, PIPELINED + 1)
        s.sendall(b"".join(frame(SUBMIT, 1, i, submit_payload(1),
                                 flags=FLAG_STREAM_RESULT) for i in ids))
        frames = {i: [] for i in ids}
        makespans = set()
        succeeded = 0
        for _ in range(2 * PIPELINED):
            ftype, _, request_id, payload = read_frame(s)
            frames.setdefault(request_id, []).append(ftype)
            if ftype == RESULT:
                state, _, _, makespan = parse_status(payload)
                succeeded += state == SUCCEEDED
                makespans.add(makespan)
        check(all(frames[i] == [SUBMIT_ACK, RESULT] for i in ids),
              "each pipelined submit: its ack, then one result")
        check(succeeded == PIPELINED, "every pipelined result succeeded")
        check(len(makespans) == 1, "every pipelined makespan is equal")
        s.sendall(frame(GOODBYE, 1, 0))
        rest = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            rest += chunk
        check(rest == b"", "no frame after the last result")

    # 3. Quota rejection: the throttled tenant's burst covers one admit,
    #    then the bucket is in debt and the next submit must bounce.
    with socket.create_connection((args.host, args.port), timeout=30) as s:
        t = args.throttled_tenant
        s.sendall(frame(SUBMIT, t, 1, submit_payload(t)))
        ftype, _, _, _ = read_frame(s)
        check(ftype == SUBMIT_ACK, "throttled tenant's first submit admitted")
        s.sendall(frame(SUBMIT, t, 2, submit_payload(t)))
        ftype, _, request_id, payload = read_frame(s)
        check(ftype == RETRY_AFTER and request_id == 2,
              "second submit throttled with retry-after")
        retry_ms, _reason = struct.unpack_from("<IB", payload)
        check(retry_ms > 0, "positive retry-after hint (%d ms)" % retry_ms)
        s.sendall(frame(GOODBYE, t, 3))

    # 4. Stats round-trip: the ServiceStats JSON reconciles with itself
    #    and with the traffic above.
    with socket.create_connection((args.host, args.port), timeout=30) as s:
        s.sendall(frame(STATS_REQUEST, 1, 1))
        ftype, _, request_id, payload = read_frame(s)
        check(ftype == STATS_REPLY and request_id == 1, "stats replied")
        stats = json.loads(payload.decode())
        tenants = stats["tenants"]
        for counter in TENANT_COUNTERS:
            total = sum(counters[counter] for counters in tenants.values())
            check(total == stats[counter],
                  "per-tenant %s sums to the global count (%d)"
                  % (counter, stats[counter]))
        check(tenants["1"]["succeeded"] >= 1, "tenant 1 shows a success")
        check(tenants[str(args.throttled_tenant)]["submitted"] == 1,
              "throttled tenant shows exactly one submission")
        s.sendall(frame(GOODBYE, 1, 2))

    print("wire smoke passed")


if __name__ == "__main__":
    main()
