"""Golden digests: every rendered artefact of the paper's path, pinned.

The machines are ``benchmarks/e2e``'s six ``gen-deploy`` inputs plus
Table 1's r = 4, 7 and 13 under both engines.  For each one this pins the
sha256 (first 16 hex digits) of:

* ``PythonSourceRenderer()`` output for the generated machine and for its
  ``standard_pipeline(3)`` optimisation, and ``compile_machine(...).source``
  of the optimised one;
* ``TextRenderer`` and ``DotRenderer`` output for both;
* the optimisation's ``state_map``;

and the state and transition counts of both machines.  A refactor of the
generator, the optimizer or the renderers must leave every value here
unchanged.  The IR-consuming steps run first, so the digests also cover a
generated machine whose objects have never been built.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.models import build_commit_hsm, build_session_hsm
from repro.models.chandra_toueg import CoordinatorRoundModel
from repro.models.commit import CommitModel
from repro.opt import standard_pipeline
from repro.render.dot import DotRenderer
from repro.render.source import PythonSourceRenderer
from repro.render.text import TextRenderer
from repro.runtime.compile import compile_machine


def build(name: str):
    """One input machine, built the way ``benchmarks/e2e`` builds it."""
    if name.startswith("commit-r"):
        _, factor, engine = name.split("-")
        return CommitModel(int(factor[1:])).generate_state_machine(engine=engine)
    if name == "chandra-toueg-5":
        return CoordinatorRoundModel(processes=5).generate_state_machine()
    if name == "session-hsm":
        return build_session_hsm().flatten()
    return build_commit_hsm().flatten()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def artefacts(name: str) -> dict:
    machine = build(name)
    optimized, report = standard_pipeline(3).optimize_machine(machine)
    out = {
        "source": digest(PythonSourceRenderer().render(machine)),
        "source_opt": digest(PythonSourceRenderer().render(optimized)),
        "compiled": digest(compile_machine(optimized).source),
        "state_map": digest(repr(sorted(report.state_map.items()))),
    }
    for label, m in (("", machine), ("_opt", optimized)):
        out["text" + label] = digest(TextRenderer().render(m))
        out["dot" + label] = digest(DotRenderer().render(m))
        out["counts" + label] = (len(m), m.transition_count())
    return out


GOLDEN = {
    "chandra-toueg-5": {
        "compiled": "68e07416b467601b",
        "counts": (9, 20),
        "counts_opt": (9, 20),
        "dot": "b02c189fb433975a",
        "dot_opt": "982df39863c9419d",
        "source": "4b74f67b03edd078",
        "source_opt": "68e07416b467601b",
        "state_map": "bf0ed8f625d648c7",
        "text": "ed455de6d941b3f7",
        "text_opt": "b25a02b6d24aeaa1",
    },
    "commit-hsm": {
        "compiled": "4ed57e84efe1a605",
        "counts": (36, 125),
        "counts_opt": (35, 125),
        "dot": "64d95349505397f2",
        "dot_opt": "b328695f796f5648",
        "source": "f374f20b22001f87",
        "source_opt": "4ed57e84efe1a605",
        "state_map": "fe00a751e6b5e56e",
        "text": "972cb12f6e244da1",
        "text_opt": "9c323457729bfdce",
    },
    "commit-r13-eager": {
        "compiled": "b67f177e4e87c371",
        "counts": (261, 765),
        "counts_opt": (261, 765),
        "dot": "07a3cbbdcda3889e",
        "dot_opt": "824efefdfd5275f7",
        "source": "1d548f6b6aebd680",
        "source_opt": "b67f177e4e87c371",
        "state_map": "6a75c39b76a79acf",
        "text": "d3c4e6832d5603ec",
        "text_opt": "9c28115a30137448",
    },
    "commit-r13-lazy": {
        "compiled": "9c1d992e79885420",
        "counts": (261, 765),
        "counts_opt": (261, 765),
        "dot": "f8306a1cd6ecfcbf",
        "dot_opt": "4f4a0f44c63cc235",
        "source": "757cd458240c43d0",
        "source_opt": "9c1d992e79885420",
        "state_map": "6a75c39b76a79acf",
        "text": "9c3d19193c26cecd",
        "text_opt": "65cf48e893d6ab71",
    },
    "commit-r32-lazy": {
        "compiled": "441d02750e9b358e",
        "counts": (1409, 4169),
        "counts_opt": (1409, 4169),
        "dot": "06f89d2b6ee54571",
        "dot_opt": "a27c246ea63acf28",
        "source": "b978ce6f462ec426",
        "source_opt": "441d02750e9b358e",
        "state_map": "9538f9e39c18870e",
        "text": "18b3e737428cd7b3",
        "text_opt": "49d3cc1be4b8bd33",
    },
    "commit-r4-eager": {
        "compiled": "516d3d2309b934ab",
        "counts": (33, 90),
        "counts_opt": (33, 90),
        "dot": "6ed3610aea8a01d0",
        "dot_opt": "e6909552c8ec0d15",
        "source": "765d36ec886fecf9",
        "source_opt": "516d3d2309b934ab",
        "state_map": "50b2565e0eda0efd",
        "text": "bc26247fdcb97da0",
        "text_opt": "e785c580bfeb6814",
    },
    "commit-r4-lazy": {
        "compiled": "11f040dedeee45c6",
        "counts": (33, 90),
        "counts_opt": (33, 90),
        "dot": "b0a2c0f6c2f0db83",
        "dot_opt": "6369ef0780d3cb6b",
        "source": "d62bffcf1805b7cf",
        "source_opt": "11f040dedeee45c6",
        "state_map": "50b2565e0eda0efd",
        "text": "31a4922ef2237130",
        "text_opt": "a502d5ff4c70fcb2",
    },
    "commit-r48-lazy": {
        "compiled": "e3d31998d79051fd",
        "counts": (3073, 9104),
        "counts_opt": (3073, 9104),
        "dot": "6e149324347586d5",
        "dot_opt": "d14fabd2b5e5ca52",
        "source": "ae4ade0fa3b37958",
        "source_opt": "e3d31998d79051fd",
        "state_map": "c4f23543a2b47210",
        "text": "05a4681e68d159b8",
        "text_opt": "98004f7389eb6fb5",
    },
    "commit-r7-eager": {
        "compiled": "288ce8f337e0d0df",
        "counts": (85, 243),
        "counts_opt": (85, 243),
        "dot": "9c8c7603528c7a29",
        "dot_opt": "bd9f962fc3e88656",
        "source": "186f8343f860d5cc",
        "source_opt": "288ce8f337e0d0df",
        "state_map": "88eaedfa299b3f3f",
        "text": "940d208cc87ef0ee",
        "text_opt": "1293697bd5e13e4c",
    },
    "commit-r7-lazy": {
        "compiled": "75fef230755b91e1",
        "counts": (85, 243),
        "counts_opt": (85, 243),
        "dot": "b11beaea5a991408",
        "dot_opt": "3eeee52e0c050542",
        "source": "25e29ff5460d7254",
        "source_opt": "75fef230755b91e1",
        "state_map": "88eaedfa299b3f3f",
        "text": "42b34930561e0d4d",
        "text_opt": "536777608536cfc3",
    },
    "commit-r8-eager": {
        "compiled": "d48cb65d884fdf7c",
        "counts": (97, 273),
        "counts_opt": (97, 273),
        "dot": "e25d6dda4acf1afe",
        "dot_opt": "08ef5d73d56d3cc4",
        "source": "cd83b448a49c68b0",
        "source_opt": "d48cb65d884fdf7c",
        "state_map": "b3a460fec308a82e",
        "text": "ab3d49ca6fc1639e",
        "text_opt": "d338af3910693b13",
    },
    "session-hsm": {
        "compiled": "3674e7177073b8d7",
        "counts": (9, 34),
        "counts_opt": (9, 34),
        "dot": "a840f5012d12c4c6",
        "dot_opt": "0f39e5a95793fd0a",
        "source": "2dcbb9c8c70f42b8",
        "source_opt": "3674e7177073b8d7",
        "state_map": "761d19934ba1a7bf",
        "text": "5d44709d9a847f90",
        "text_opt": "009b3813051f5ebd",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendered_artefacts_unchanged(name):
    assert artefacts(name) == GOLDEN[name]
