#!/usr/bin/env python3
"""The mutation gate: every declared mutant must be killed by its tests.

    python scripts/mutants.py              # the gate (a blocking CI step)
    python scripts/mutants.py --matrix tests/serve tests/opt > matrix.jsonl

Each row of :data:`MUTANTS` changes one AST node of one function under
``src/repro``; a locator that matches no node or two refuses the run.  The
mutant is spliced into a private copy of ``src/`` (one per job), and
``pytest -x -q -p no:cacheprovider --hypothesis-seed=0`` runs its test
file against it from the repository root, with a fresh Hypothesis
database; a named test file that fails unmutated refuses the run.  Per mutant
it prints killed, survived, timeout (counted as killed) or equivalent (a
declared survivor), the seconds taken and the first failing test id.
Exit status 0: no undeclared survivor; 1: a survivor, or a declared
equivalent that a test kills; 2: the run was refused.

``--matrix PATH...`` runs every mutant against the given test paths
without ``-x`` and prints ``{"mutant": n, "id": ..., "failed": [test
ids]}`` per mutant on stdout (the table goes to stderr): the evidence for
the deletion rule.  A test may be deleted when every mutant it kills is
also killed by a remaining test that asserts the same behaviour.

Standard library only; needs the test suite's own dependencies (pytest,
hypothesis, and numpy for the vector mutants).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import importlib.util
import json
import os
import queue
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
#: Data segment cap of each pytest run and its workers: a mutant that
#: allocates without end fails with MemoryError at this size instead of
#: taking memory from every other process on the host.
MEMORY = 2 << 30
#: Parallel pytest runs: the gate's 5-minute budget is for 2 CPUs.
JOBS = 2


class Mutant(NamedTuple):
    file: str  #: path under src/repro
    function: str  #: dotted class/function path inside the file
    node: str | tuple  #: unparsed source of the node (or an anchor path)
    operator: str  #: a key of OPERATORS
    test: str  #: the test file that must kill it
    equivalent: Optional[str] = None  #: why no test can kill it

    @property
    def ident(self) -> str:
        node = self.node if isinstance(self.node, str) else self.node[-1]
        return f"{self.function} {self.operator} `{node}`"


def _of(file: str, function: str, test: str, *changes) -> list:
    """The mutants of one function that ``test`` (a test file under the
    repository root) must kill; each change is ``(node, operator)``, or
    ``(node, operator, why no test can tell it from the original)``."""
    return [Mutant(file, function, *c[:2], test, *c[2:]) for c in changes]


_SERVE = "tests/serve/test_{}.py".format
_FLEET, _TIERS, _VECTOR = _SERVE("fleet"), _SERVE("intake_tiers"), _SERVE("vector")
_MP, _RECOVERY, _CHANNEL = _SERVE("mpfleet"), _SERVE("recovery"), _SERVE("channel")
_WIRE, _REPLIES = _SERVE("gateway_wire"), _SERVE("gateway_replies")
_LOOP = _SERVE("gateway_loop")
_CORE = "tests/core/test_{}.py".format
_ELAB, _WIRING = _CORE("elaboration"), _CORE("wiring")
_PARTITION, _MINIMIZE = _CORE("coarsest_partition"), _CORE("minimize")
_PASSES, _SOURCE = "tests/opt/test_passes.py", "tests/render/test_source.py"
_HOPS = "tests/opt/test_opt_differential.py"
_FIG14 = "tests/render/test_text_fig14.py"
_NO_COLON = "raise _HttpError(400, 'malformed header line (no colon)')"

MUTANTS = [
    # The scalar hot loop.
    *_of("serve/fleet.py", "FleetEngine._run_pairs", _TIERS,
         (("if acts is None:", "recycled += 1"), "delete")),
    *_of("serve/fleet.py", "FleetEngine._run_pairs", _FLEET,
         ("next_state >= 0", "flip"),
         ("logs[slot].append(acts)", "delete"),
         ("auto and instance.is_finished()", "flip"),
         ("states[slot] + col", "flip")),
    *_of("serve/fleet.py", "FleetEngine._run_pairs", _VECTOR,
         (("if instance.receive(messages[col]):", "ignored += 1"), "delete")),
    # The one-event doors: queue for the next drain, or dispatch now.
    *_of("serve/fleet.py", "FleetEngine.post", _TIERS,
         ("queue.append(col)", "delete")),
    *_of("serve/fleet.py", "FleetEngine.deliver", _FLEET,
         ("next_state < 0", "flip"),
         ("store.logs[slot].append(acts)", "delete")),
    # The vector kernel and the schedule's narrowed columns.
    *_of("serve/vector.py", "VectorKernel.dispatch", _VECTOR,
         ("states[slots] = jump[window]", "delete"),
         ("add(window, states[slots], out=window)", "delete"),
         ("start = end", "delete"),
         ("int(tally[2])", "+1"),
         ("self._post_process(slots, window)", "delete")),
    *_of("serve/vector.py", "VectorKernel._post_process", _VECTOR,
         ("logs[slot].clear()", "delete")),
    *_of("serve/vector.py", "_unsigned_below", _VECTOR, ("bound <= limit", "flip")),
    *_of("serve/vector.py", "_compact", _VECTOR,
         ("high + 1", "flip"),
         ("low < 0", "flip")),
    *_of("serve/vector.py", "VectorSchedule._split", _VECTOR,
         ("_unsigned_below(count)", "none")),
    # Routing events to workers.
    *_of("serve/mpfleet.py", "MultiprocessFleet._partition", _MP,
         ("code // workers", "flip"),
         ("code % workers", "flip"),
         ("known(key, route)", "false")),
    # Partition checkpoints, and the supervisor that replays them.
    *_of("serve/recovery.py", "partition_checkpoint", _RECOVERY,
         ("engine.log_policy == 'full'", "flip"),
         ("index[b.get_state()] * width", "flip"),
         ("array('q', store.free_slots)", "reverse")),
    *_of("serve/recovery.py", "rehydrate", _RECOVERY,
         ("store.release(placeholder)", "delete"),
         ("store.logs[slot] = logs[slot]", "delete"),
         ("engine.telemetry_registry().merge(registry)", "delete"),
         ("state % width", "false")),
    *_of("serve/mpfleet.py", "MultiprocessFleet._recover_worker", _RECOVERY,
         ("delay *= policy.backoff_factor", "delete"),
         ("self._closing", "false"),
         ("policy.max_restarts + 1", "+1"),
         ("status != 'ok'", "flip")),
    # The parent-worker frames.
    *_of("serve/channel.py", "Channel.send_request", _CHANNEL,
         ("request[0] == 'run_flat'", "flip")),
    *_of("serve/channel.py", "Channel.recv_request", _CHANNEL,
         ("kind == FLAT", "flip")),
    *_of("serve/channel.py", "Channel._send", _CHANNEL,
         ("sent < HEADER.size + size", "flip",
          "at sent == the frame's size the rest to write is empty")),
    *_of("serve/channel.py", "_read_exact", _CHANNEL, ("view[:got] = data", "delete")),
    # The gateway's refusal table and WebSocket frames.
    *_of("serve/gateway.py", "_parse_head", _WIRE,
         ("len(request_line) < 2", "-1"),
         ("length > max_body", "flip")),
    *_of("serve/gateway.py", "_parse_head", _REPLIES,
         ("_BLOCKS[block] = parsed", "delete")),
    *_of("serve/gateway.py", "_parse_block", _WIRE,
         (("if not colon:", _NO_COLON), "delete"),
         ("headers.get(name, value) != value", "flip"),
         ("len(declared) < 20", "+1"),
         ("headers.get('connection', '').lower() == 'close'", "flip")),
    *_of("serve/gateway.py", "parse_frame", _WIRE,
         ("length >= 126", "flip"),
         ("length == 126", "flip"),
         ("start += 4", "delete"),
         ("length // 4 + 1", "-1")),
    # The gateway's loop: read deadlines, back-pressure, partial sends,
    # one connection's failure, the loop's own, and the body decoder's
    # fast path.
    *_of("serve/gateway.py", "_Connection._serve_request", _LOOP,
         ("self._deadline = monotonic() + gateway._read_timeout", "delete")),
    *_of("serve/gateway.py", "_Transport.write", _LOOP,
         ("len(self._pending) > _HIGH_WATER", "false"),
         ("data = data[sent:]", "delete")),
    *_of("serve/gateway.py", "_Transport.ready", _LOOP, ("self.abort()", "delete")),
    *_of("serve/gateway.py", "FleetGateway.start", _LOOP,
         ("done.set_exception(exc)", "delete")),
    *_of("serve/gateway.py", "_json_loads", _LOOP, ("end == len(text)", "flip")),
    # The workload's sessions restart when they finish, as recycled
    # fleet instances do.
    *_of("serve/workload.py", "SessionSimulator.next_message",
         _SERVE("workload"), ("im.final[target]", "false")),
    # The scenario plane's observer: timers re-armed on a state change,
    # each new action routed once.
    *_of("serve/scenario.py", "ScenarioEngine._observe", _SERVE("scenario"),
         ("armed[1] != state", "flip"),
         ("seen[key] = done + len(new)", "delete")),
    # Generation: the memoised elaborator.
    *_of("core/model.py", "Elaborator.successors", _ELAB,
         ("target != vector or actions", "flip"),
         ("target[index] = value", "delete")),
    *_of("core/model.py", "Elaborator._elaborate", _ELAB,
         ("_grow(self._roots, message, builder._reads, outcome)", "delete")),
    # Minimisation: the partition-refinement kernel.
    *_of("core/minimize.py", "coarsest_partition", _PARTITION,
         ("final[s]", "none"),
         (("if target >= 0:", "target >= 0"), "flip"),
         ("2 * len(hit) <= len(block)", "flip",
          "when the hit is exactly half its block, either half may be cut off")),
    # The optimisation passes.
    *_of("opt/passes.py", "PruneUnreachablePass.run", _PASSES,
         ("i in reachable", "flip")),
    *_of("opt/passes.py", "MergeEquivalentPass.run", _PASSES,
         ("group[0]", "-1"),
         ("a is b", "true")),
    *_of("core/minimize.py", "_proved", _PASSES,
         ("quotient._quotient_arrays()", "none")),
    *_of("opt/passes.py", "DeadActionEliminationPass.run", _PASSES,
         (("if old_seq < 0:", "continue"), "delete")),
    *_of("opt/passes.py", "HotStateRenumberPass.run", _PASSES,
         ("score[im.start] = max(score) + 1", "delete")),
    *_of("opt/passes.py", "_rebuild", _PASSES,
         ("[next_state[o] for o in offsets]", "reverse")),
    # The deployed wiring.
    *_of("core/wiring.py", "Wiring.cascade", _WIRING,
         ("chooser = deliver(other, claim, chooser)", "delete"),
         ("chooser is not None", "flip"),
         ("chooser == me", "flip")),
    # Each representation change, decided by repro.analysis.equivalent.
    *_of("core/minimize.py", "_collapse", _HOPS,
         (("rows = _remap_rows(im, _seq_key(im), keep, cls)", "keep"), "reverse")),
    *_of("core/minimize.py", "_merged_states", _HOPS, ("keep[c] != s", "flip")),
    # Generation's own step 4: explored rows straight into the quotient,
    # and the names it spells.
    *_of("core/minimize.py", "_quotient_rows", _MINIMIZE,
         ("[keep[r] for r in reps]", "reverse")),
    *_of("core/components.py", "StateSpace.__init__", _CORE("components"),
         ("c.encode(value)", "reverse")),
    # Flattening's exit chains, against a resolution written apart, and
    # its step 3 (session-hsm's Maintenance leaf is unreachable).
    *_of("core/hsm.py", "HierarchicalModel.fire", _CORE("hsm_differential"),
         ("actions.extend(node.exit_actions)", "delete")),
    *_of("core/hsm.py", "HierarchicalModel.flatten_with_report",
         _CORE("render_digests"), ("i in reachable", "true")),
    *_of("opt/indexed.py", "IndexedMachine.from_machine", _HOPS,
         ("t.actions", "reverse")),
    *_of("opt/indexed.py", "IndexedMachine.jump_arrays", _HOPS,
         ("target * width", "flip")),
    *_of("render/xml.py", "parse_machine_xml", _HOPS,
         ("[a.get('name') for a in t_element.findall('action')]", "reverse")),
    *_of("core/hsm.py", "_LeafRows.successors", _HOPS,
         (("yield (message, target, actions, annotations)", "actions"), "empty")),
    *_of("serve/vector.py", "VectorKernel.__init__", _HOPS,
         ("offsets % width", "flip")),
    # Commentary on demand: a built state's annotations are the model's
    # lines on its vector, then the notes the IR stores.
    *_of("opt/indexed.py", "IndexedMachine.annotations", _FIG14,
         ("self.describe is None", "true")),
    *_of("opt/indexed.py", "IndexedMachine.annotations", _CORE("commentary"),
         ("describe(v) + lines", "swap")),
    # The supervisor's write-ahead journal.
    *_of("serve/recovery.py", "WorkerJournal.append", _RECOVERY,
         ("self.events += events", "delete")),
    *_of("serve/recovery.py", "WorkerJournal.truncate", _RECOVERY,
         ("self.ops = []", "delete")),
    # The generated module's row writer.
    *_of("render/source.py", "PythonSourceRenderer._transition_table", _SOURCE,
         ("next_state[o] >= 0", "flip"),
         ("names[next_state[o]]", "-1"),
         ("performs[seqs[o]]", "empty")),
]  # fmt: skip


# ----------------------------------------------------------------------
# operators: the located node -> the source spliced over it
# ----------------------------------------------------------------------

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
    ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.And: ast.Or,
    ast.Or: ast.And,
}  # fmt: skip


def _flip(node: ast.AST) -> str:
    """Swap the node's one operator for its neighbour (``<`` for ``<=``,
    ``==`` for ``!=``, ``+`` for ``-``, ``//`` for ``*``, ``and`` for ``or``)."""
    node = copy.deepcopy(node)
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        node.ops = [_FLIPS[type(node.ops[0])]()]
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        node.op = _FLIPS[type(node.op)]()
    else:
        raise KeyError(type(node).__name__)
    return ast.unparse(node)


def _swap(node: ast.AST) -> str:
    """Exchange the operands of a binary operation (``b + a`` for ``a + b``)."""
    node = copy.deepcopy(node)
    node.left, node.right = node.right, node.left
    return ast.unparse(node)


OPERATORS = {
    # name: (node type it applies to, replacement source)
    "delete": (ast.stmt, lambda node: "pass"),
    "flip": ((ast.Compare, ast.BinOp, ast.AugAssign, ast.BoolOp), _flip),
    "+1": (ast.expr, lambda node: f"({ast.unparse(node)}) + 1"),
    "-1": (ast.expr, lambda node: f"({ast.unparse(node)}) - 1"),
    "false": (ast.expr, lambda node: "False"),
    "true": (ast.expr, lambda node: "True"),
    "none": (ast.expr, lambda node: "None"),
    "empty": (ast.expr, lambda node: "''"),
    "reverse": (ast.expr, lambda node: f"({ast.unparse(node)})[::-1]"),
    "swap": (ast.BinOp, _swap),
}


class Refused(Exception):
    """The run cannot score its mutants; the message says why."""


def _unparsed(node: ast.AST, text: str) -> bool:
    source = ast.unparse(node)
    if source == text:
        return True
    # A compound statement is named by its first line.
    return isinstance(node, ast.stmt) and source.partition("\n")[0] == text


def _scope(tree: ast.Module, function: str) -> ast.AST:
    scope = tree
    for name in function.split("."):
        found = [node for node in scope.body if getattr(node, "name", "") == name]
        if len(found) != 1:
            raise Refused(f"{function}: {len(found)} definitions named {name!r}")
        scope = found[0]
    return scope


def locate(mutant: Mutant, tree: ast.Module) -> ast.AST:
    """The one node ``mutant`` changes in ``tree``; :class:`Refused` when
    a text of its locator matches no node or more than one."""
    kind = OPERATORS[mutant.operator][0]
    path = (mutant.node,) if isinstance(mutant.node, str) else mutant.node
    found = _scope(tree, mutant.function)
    for depth, text in enumerate(path):
        want = kind if depth == len(path) - 1 else ast.stmt
        hits = [
            node
            for node in ast.walk(found)
            if node is not found and isinstance(node, want) and _unparsed(node, text)
        ]
        if len(hits) != 1:
            raise Refused(
                f"{mutant.file} {mutant.function}: locator {text!r} matches "
                f"{len(hits)} nodes, not 1"
            )
        found = hits[0]
    return found


def mutate(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's replacement spliced over its node."""
    node = locate(mutant, ast.parse(source))
    replacement = OPERATORS[mutant.operator][1](node)
    lines = source.encode().splitlines(keepends=True)
    # ast offsets count UTF-8 bytes.
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    raw = source.encode()
    mutated = (raw[:start] + replacement.encode() + raw[end:]).decode()
    ast.parse(mutated)  # a splice that breaks the syntax is a runner bug
    return mutated


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


class Outcome(NamedTuple):
    verdict: str
    seconds: float
    failed: tuple  #: failing test ids, first first


#: A short-summary line: the node id (parameters may hold spaces), then
#: `` - `` and the error, which ``-q`` may leave out.
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def _pytest(copy_root: Path, targets, stop: bool, timeout: float) -> Outcome:
    """Run pytest on ``targets`` against the ``src`` copy under ``copy_root``."""
    with tempfile.TemporaryDirectory() as examples:
        env = dict(
            os.environ,
            PYTHONPATH=str(copy_root / "src"),
            HYPOTHESIS_STORAGE_DIRECTORY=examples,
        )
        command = [sys.executable, *PYTEST, *(["-x"] if stop else []), *targets]
        started = time.perf_counter()
        with subprocess.Popen(
            command, cwd=REPO, env=env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as child:  # fmt: skip
            resource.prlimit(child.pid, resource.RLIMIT_DATA, (MEMORY, MEMORY))
            try:
                out, err = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                out = None
            finally:
                # Workers a mutant wedged would outlive pytest: end the
                # whole session, pytest first if it is still running.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(child.pid, signal.SIGKILL)
            if out is None:
                child.communicate()
                return Outcome("timeout", time.perf_counter() - started, ())
    seconds = time.perf_counter() - started
    failed = tuple(dict.fromkeys(_FAILED.findall(out)))
    if child.returncode == 0:
        return Outcome("survived", seconds, ())
    if child.returncode in (1, 2) and failed:
        return Outcome("killed", seconds, failed)
    if child.returncode < 0:  # a crash the mutant caused
        died = f"(pytest died of signal {-child.returncode})"
        return Outcome("killed", seconds, (died,))
    tail = (out + err).strip().splitlines()[-5:]
    raise Refused(f"pytest exited {child.returncode}: " + " | ".join(tail))


class Workspaces:
    """One private copy of ``src/`` per job, handed out one at a time."""

    def __init__(self, jobs: int):
        self.root = Path(tempfile.mkdtemp(prefix="mutants-"))
        self._free: queue.Queue = queue.Queue()
        for job in range(jobs):
            copy_root = self.root / str(job)
            shutil.copytree(
                REPO / "src", copy_root / "src",
                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
            )  # fmt: skip
            self._free.put(copy_root)

    def run(self, mutant: Optional[Mutant], source: str, targets, stop, timeout):
        """``targets`` against a copy with ``source`` (the mutant's file
        mutated) in place, restored afterwards."""
        copy_root = self._free.get()
        try:
            if mutant is None:
                return _pytest(copy_root, targets, stop, timeout)
            path = copy_root / "src" / "repro" / mutant.file
            original = path.read_text()
            self._write(path, source)
            try:
                return _pytest(copy_root, targets, stop, timeout)
            finally:
                self._write(path, original)
        finally:
            self._free.put(copy_root)

    @staticmethod
    def _write(path: Path, text: str) -> None:
        path.write_text(text)
        # A stale .pyc of the same size and mtime would be imported instead.
        Path(importlib.util.cache_from_source(str(path))).unlink(missing_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument(
        "--matrix", nargs="+", metavar="PATH",
        help="run every mutant against these test paths without -x; "
        "print each mutant's failing test ids as JSON",
    )  # fmt: skip
    matrix = parser.parse_args(argv).matrix
    try:
        sources = {m: mutate(m, (PACKAGE / m.file).read_text()) for m in MUTANTS}
        spaces = Workspaces(JOBS)
        try:
            return _run(matrix, sources, spaces, sys.stderr if matrix else sys.stdout)
        finally:
            spaces.close()
    except Refused as exc:
        print(f"mutants: refused: {exc}", file=sys.stderr)
        return 2


def _run(matrix, sources, spaces, out) -> int:
    started = time.perf_counter()
    # Each mutant's test run, by name: its own file, or the matrix paths.
    whole = " ".join(matrix or ())
    runs = {whole: matrix} if matrix else {m.test: [m.test] for m in MUTANTS}
    with ThreadPoolExecutor(JOBS) as pool:
        # Unmutated first: a named file that fails here would kill anything.
        baseline = {}
        for name, future in [
            (name, pool.submit(spaces.run, None, "", targets, False, 900))
            for name, targets in sorted(runs.items())
        ]:
            outcome = future.result()
            if outcome.verdict != "survived":
                raise Refused(
                    f"{name} fails with no mutation applied: "
                    f"{outcome.failed[:1] or outcome.verdict}"
                )
            baseline[name] = outcome.seconds
        print(
            f"baseline: {len(runs)} test run(s) pass unmutated in "
            f"{time.perf_counter() - started:.1f} s",
            file=out,
        )
        futures = []
        for index, mutant in enumerate(MUTANTS, 1):
            name = whole or mutant.test
            # A mutant that runs three times as long as its unmutated
            # tests is looping: a timeout, which counts as killed.
            timeout = 30 + 3 * baseline[name]
            run = (mutant, sources[mutant], runs[name], not matrix, timeout)
            futures.append((index, mutant, pool.submit(spaces.run, *run)))
        counts: dict[str, int] = {}
        bad = []
        print(f"{'#':>3}  {'verdict':<10} {'s':>6}  mutant / killed by", file=out)
        for index, mutant, future in futures:
            outcome = future.result()
            verdict = outcome.verdict
            if verdict == "survived" and mutant.equivalent:
                verdict = "equivalent"
            counts[verdict] = counts.get(verdict, 0) + 1
            print(
                f"{index:>3}  {verdict:<10} {outcome.seconds:6.1f}  "
                f"{mutant.file} {mutant.ident}",
                file=out,
            )
            if outcome.failed:  # a long parameter id is cut for the table
                print(f"{'':>23}{outcome.failed[0][:100]}", file=out)
            if verdict == "survived" or (verdict == "killed" and mutant.equivalent):
                bad.append(index)
            if matrix:
                row = {"mutant": index, "id": f"{mutant.file} {mutant.ident}"}
                print(json.dumps(row | {"failed": outcome.failed}), flush=True)
    total = len(MUTANTS)
    killed = counts.get("killed", 0) + counts.get("timeout", 0)
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(
        f"mutants: {total} run, {summary}; {killed / total:.1%} killed "
        f"(timeouts count as killed) in {time.perf_counter() - started:.1f} s "
        f"with {JOBS} jobs",
        file=out,
    )
    if bad:
        print(
            f"mutants: FAILED: {', '.join(map(str, bad))} survived undeclared "
            "or were declared equivalent and killed",
            file=out,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
