#!/usr/bin/env python3
"""Nothing waits on a pool thread — the grep half of that rule.

Fails when non-test code in the files whose functions run as tasks on a
pool (processors, pumps and socket tasks) or are called by them
contains a thread wait (`pop_timeout(`, `thread::sleep(`, `epoll_wait(`, a
condvar `.wait*(`) outside MAY_WAIT, the complete inventory of what may
still wait, or calls `.send_batch(` or `.push_blocking(` — the link
stack's waiting send and the watermark queue's waiting push, both for
threads of their own. A task with nothing to do parks and is woken by
whoever feeds it; see DESIGN §5e. Run from the repository root.
"""
import glob
import re
import sys

GUARDED = sorted(
    path
    for path in glob.glob("crates/core/src/runtime/*.rs")
    + ["crates/core/src/channel.rs", "crates/core/src/operator.rs"]
    + glob.glob("crates/link/src/*.rs")
    + glob.glob("crates/net/src/*.rs")
    + glob.glob("crates/granules/src/*.rs")
    + ["crates/cluster/src/dataplane.rs"]
    if not path.endswith("test_support.rs")  # helpers for tests' own threads
)

# Every (file, function) that may wait, and whose thread it waits on.
MAY_WAIT = {
    # The executor's, the timer wheel's and the reactor's own idle waits.
    ("crates/granules/src/io.rs", "io_loop"),
    ("crates/granules/src/wheel.rs", "wheel_loop"),
    ("crates/granules/src/reactor.rs", "reactor_loop"),
    ("crates/granules/src/reactor.rs", "epoll_wait"),  # its FFI declaration
    # The caller of a job's lifecycle API (`await_sources`, `settle`,
    # `stop`, which terminates tasks and closes senders).
    ("crates/core/src/runtime/pumps.rs", "wait_zero"),
    ("crates/core/src/runtime/pumps.rs", "wait_change"),
    ("crates/granules/src/io.rs", "wait_complete"),
    ("crates/net/src/tcp.rs", "close_inner"),
    # `push_blocking`/`pop_timeout`: probes and tests only; no pool calls
    # them (OWN_THREAD_ONLY below).
    ("crates/net/src/watermark.rs", "push_blocking"),
    ("crates/net/src/watermark.rs", "pop_timeout"),
    # The one "try, else wait for the space signal": the thread of a
    # `Link::send_batch` caller, a thread of its own (tests, probes,
    # examples); no pool calls it (OWN_THREAD_ONLY below).
    ("crates/link/src/transport.rs", "until_taken"),
    # Pool threads (ROADMAP item 2): a supervised processor's retry pause.
    ("crates/granules/src/supervisor.rs", "run_batch"),
    # The lock module's condvar: it waits on its caller's thread, and every
    # caller's own `.wait(`/`.wait_for(` is matched here in turn.
    ("crates/granules/src/sync.rs", "wait"),
    ("crates/granules/src/sync.rs", "wait_for"),
}

WAIT = re.compile(r"pop_timeout\(|thread::sleep\(|epoll_wait\(|\.wait(_for|_while|_timeout|_until)?\(")
# The waiting calls of threads of their own: no guarded code calls them.
OWN_THREAD_ONLY = re.compile(r"\.send_batch\(|\.push_blocking\(")
FN = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?(const\s+)?(unsafe\s+)?fn\s+(\w+)")

bad = []
for path in GUARDED:
    current = None
    with open(path) as source:
        for number, line in enumerate(source, 1):
            if line.lstrip().startswith("#[cfg(test)]"):
                break  # test modules close every file
            code = line.split("//", 1)[0]
            if m := FN.match(code):
                current = m.group(5)
            if WAIT.search(code) and (path, current) not in MAY_WAIT or OWN_THREAD_ONLY.search(code):
                bad.append(f"{path}:{number}: in `{current}`: {line.strip()}")

if bad:
    print("a thread wait, or a waiting `send_batch`/`push_blocking`, where pool tasks run (park the")
    print("task instead, or name the function in .github/scripts/io_tier_waits.py and")
    print("say whose thread it is):")
    print("\n".join(bad))
    sys.exit(1)
print(f"pool-thread waits: {len(GUARDED)} files clean")
