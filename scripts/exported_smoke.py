#!/usr/bin/env python
"""Exported-module smoke: load a ``repro-fsm export`` module on its own and
drive it to a final state.

The paper's §4.3 deployment copies the generated module into a code base
where this library is not installed.  This script checks that artefact
the way such a code base would see it: stdlib only, with ``repro`` made
unimportable, it imports the module from its file, finds the generated
class, searches the module's own ``TRANSITIONS`` for a shortest message
sequence from ``START_STATE`` to a state in ``FINAL_STATES``, and feeds
that sequence to an instance whose action methods log what they send.

Exit codes: 0 when the instance finishes, 1 otherwise.

Usage (run it with ``-I`` from outside the repository)::

    python -I scripts/exported_smoke.py path/to/commit_r48.py
"""

from __future__ import annotations

import collections
import importlib.util
import pathlib
import sys

sys.modules["repro"] = None  # the artefact must not need this library


def load(path: pathlib.Path):
    """Import the module at ``path`` and return its generated class."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (cls,) = [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return module, cls


def path_to_final(module) -> list[str]:
    """A shortest message sequence from the start to a final state."""
    parent = {module.START_STATE: None}
    queue = collections.deque([module.START_STATE])
    while queue:
        state = queue.popleft()
        if state in module.FINAL_STATES:
            messages = []
            while parent[state] is not None:
                state, message = parent[state]
                messages.append(message)
            return messages[::-1]
        for message, table in module.TRANSITIONS.items():
            entry = table.get(state)
            if entry is not None and entry[0] not in parent:
                parent[entry[0]] = (state, message)
                queue.append(entry[0])
    raise SystemExit("no final state is reachable from the start state")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -I exported_smoke.py MODULE.py", file=sys.stderr)
        return 2
    module, cls = load(pathlib.Path(argv[0]).resolve())
    sent: list[str] = []
    logged = {
        name: (lambda self, action=name.removeprefix("send_"): sent.append(action))
        for name in cls.ACTION_METHODS
    }
    instance = type("Logged", (cls,), logged)()
    trace = path_to_final(module)
    for message in trace:
        if not instance.receive(message):
            print(f"{message!r} did not fire in {instance.get_state()!r}")
            return 1
    if not instance.is_finished():
        print(f"{cls.__name__} stopped in {instance.get_state()!r}, not finished")
        return 1
    print(
        f"{cls.__name__}: {len(module.STATE_NAMES)} states, reached "
        f"{instance.get_state()} in {len(trace)} events; sent {','.join(sent)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
