"""Tier-1 corpus replay: every persisted reproducer stays green.

``tests/corpus/`` is the fuzzer's persistent regression corpus (see its
README): reduced reproducers of fixed bugs and pinned interesting cases.
Replaying them through the full oracle stack on every test run is what
makes a fuzzing find permanent — a regression reintroducing the bug
fails here, not in some future nightly campaign.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import check_simulation
from repro.config import CompilerConfig
from repro.core.compiler import LoopCompiler
from repro.fuzz.gen import GenConfig, generate_loop, loop_fingerprint
from repro.fuzz.oracles import ORACLE_VERSION, check_loop
from repro.fuzz.runner import replay_corpus
from repro.ir import parse_loop
from repro.machine import ItaniumMachine
from repro.sim.address import StreamSpec
from repro.sim.executor import simulate_loop

CORPUS = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS.glob("*.loop"))


def test_corpus_is_not_empty():
    assert ENTRIES, "tests/corpus must ship at least one entry"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    loop = parse_loop(path.read_text(encoding="utf-8"))
    report = check_loop(loop)
    assert report.ok, [v.to_dict() for v in report.violations]


def test_corpus_replays_inside_sim_bounds():
    """The oracles simulate 64 KiB spaces; a 1 MiB working set must also
    land inside the SA5xx static bounds for every corpus entry."""
    machine = ItaniumMachine()
    compiler = LoopCompiler(machine, CompilerConfig())
    for path in ENTRIES:
        loop = parse_loop(path.read_text(encoding="utf-8"))
        compiled = compiler.compile(loop)
        layout = {ref.space: StreamSpec(size=1 << 20)
                  for ref in loop.memrefs}
        run = simulate_loop(compiled.result, machine, layout, [64, 7])
        bounds = check_simulation(compiled.result, machine, layout,
                                  [64, 7], run.counters, run.cycles)
        assert bounds.ok, (path.name, [d.format() for d in bounds])


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_manifest_provenance(path):
    manifest = json.loads(path.with_suffix(".json").read_text())
    assert manifest["oracle_version"] <= ORACLE_VERSION
    loop = parse_loop(path.read_text(encoding="utf-8"))
    assert len(loop.body) == manifest["ops"]
    # organic (non-injected) entries regenerate from their recorded seed
    if manifest["inject"] == "none" and "gen" in manifest:
        regenerated = generate_loop(
            manifest["seed"], GenConfig.from_dict(manifest["gen"])
        )
        assert loop_fingerprint(regenerated) == loop_fingerprint(loop)


def test_replay_corpus_summary():
    summary = replay_corpus(CORPUS)
    assert summary.cases == len(ENTRIES)
    assert summary.ok, summary.failures
