#!/usr/bin/env python3
"""Nothing waits on an IO thread — the grep half of that rule.

Fails when non-test code in the files whose functions run as tasks on an
IO pool (or are called by them) contains a thread wait — `pop_timeout(`,
`thread::sleep(`, a condvar `.wait*(` — outside the functions listed below,
each of which is only ever called from a thread that is its caller's own.
A task with nothing to do parks (`IoStatus::Park*`) and is woken by
whoever feeds it; see DESIGN §5e. Run from the repository root.
"""
import glob
import re
import sys

GUARDED = sorted(glob.glob("crates/core/src/runtime/*.rs")) + [
    "crates/net/src/tcp.rs",
    "crates/cluster/src/dataplane.rs",
]

# (file, function) pairs that may wait, and whose thread they wait on.
OWN_THREAD = {
    # Callers of a job's lifecycle API: `await_sources`, `settle`, `stop`.
    ("crates/core/src/runtime/pumps.rs", "wait_zero"),
    ("crates/core/src/runtime/pumps.rs", "wait_change"),
    # Worker-tier producers, reconnect loops, teardown, tests and probes.
    ("crates/net/src/tcp.rs", "send"),
    ("crates/net/src/tcp.rs", "wait_room"),
    ("crates/net/src/tcp.rs", "close_inner"),
    # The data plane's two dedicated threads.
    ("crates/cluster/src/dataplane.rs", "demux_loop"),
    ("crates/cluster/src/dataplane.rs", "heartbeat_loop"),
}

WAIT = re.compile(r"pop_timeout\(|thread::sleep\(|\.wait(_for|_while|_timeout|_until)?\(")
FN = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?(const\s+)?fn\s+(\w+)")

bad = []
for path in GUARDED:
    current = None
    with open(path) as source:
        for number, line in enumerate(source, 1):
            if line.lstrip().startswith("#[cfg(test)]"):
                break  # test modules close every file
            code = line.split("//", 1)[0]
            if m := FN.match(code):
                current = m.group(4)
            if WAIT.search(code) and (path, current) not in OWN_THREAD:
                bad.append(f"{path}:{number}: in `{current}`: {line.strip()}")

if bad:
    print("a thread wait where IO-pool tasks run (park the task instead, or")
    print("name the function in .github/scripts/io_tier_waits.py and say whose thread it is):")
    print("\n".join(bad))
    sys.exit(1)
print(f"io-tier waits: {len(GUARDED)} files clean")
