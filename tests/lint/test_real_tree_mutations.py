"""What each surviving rule uniquely guards, shown on the real tree.

Every seed below is a leak (or a determinism break) edited into the
*real* ``src/repro`` sources in memory, at a text anchor that must
exist.  All seeds go in at once, one ``lint_sources`` pass runs, and the
findings must be exactly the table in ``EXPECTED``: each seed caught by
the listed rule(s) and by nothing else, and nothing else flagged.  A
rule that stops firing here has stopped protecting the code it was
written for, whatever its fixture tests say; a later diet of
``repro.lint`` reads this table instead of re-deriving it.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.lint import lint_sources, module_name_for

SRC = Path(repro.__file__).parent

#: (file, anchor that must occur exactly once, replacement).  A
#: ``# seed:<tag>`` comment marks each line a finding (or, for a sink
#: inside a helper, a step of its witness path) must point at.
SEEDS = [
    # -- untrusted host reaches for the raw rating store --------------- #
    (
        "core/host.py",
        "from repro.core.stats import EpochStats\n",
        "from repro.core.stats import EpochStats\n"
        "from repro.core.store import DataStore  # seed:host-imports-store\n",
    ),
    # -- ecalls handing enclave state back to the host ----------------- #
    (
        "core/app.py",
        "    @ecall\n    def ecall_peer_down(",
        "    @ecall\n"
        "    def ecall_dbg_store(self):\n"
        "        return self.store  # seed:ecall-returns-store\n"
        "\n"
        "    @ecall\n"
        "    def ecall_dbg_keys(self):\n"
        "        return self._channel_keys  # seed:ecall-returns-keys\n"
        "\n"
        "    @ecall\n"
        "    def ecall_dbg_sample(self):\n"
        "        return self.store.sample(8, self.local_rng)  # seed:ecall-returns-sample\n"
        "\n"
        "    @ecall\n"
        "    def ecall_dbg_model(self):\n"
        "        return self.model.state()  # seed:ecall-returns-model\n"
        "\n"
        "    @ecall\n    def ecall_peer_down(",
    ),
    # -- the decrypted share payload escaping _handle_payload ---------- #
    (
        "core/app.py",
        "        # Hearing from a peer clears any suspicion of its death.\n",
        '        self.ctx.ocall("send_message", src, KIND_QUOTE, content)  # seed:ocall-content\n'
        '        self.ctx.ocall("report_stats", self.store.sample(4, self.local_rng))  # seed:ocall-ratings\n'
        '        self.ctx.metrics.counter("dbg", blob=content).inc()  # seed:label-direct\n'
        '        self._count_fault("dbg", peer=content)  # seed:label-kwargs\n'
        "        print(content)  # seed:print-content\n"
        "        if not content:\n"
        '            raise ValueError(f"empty share: {content!r}")  # seed:raise-content\n'
        "        # Hearing from a peer clears any suspicion of its death.\n",
    ),
    # -- event-kernel scheduling contract ------------------------------ #
    (
        "serve/fleet/runner.py",
        "        kernel.at(\n"
        '            float(tick), partial(_route_tick, tick), kind="serve.fleet.route",\n'
        "            key=(tick, 1),\n",
        "        kernel.at(  # seed:loop-schedule-unkeyed\n"
        '            float(tick), partial(_route_tick, tick), kind="serve.fleet.route",\n',
    ),
    (
        "serve/fleet/runner.py",
        "                float(tick), partial(balancer.step_shard, shard),\n",
        "                float(tick), lambda: balancer.step_shard(shard),  # seed:loop-capture\n",
    ),
    # -- AEAD tag checked with a timing-leaky comparison --------------- #
    (
        "tee/crypto/aead.py",
        "    if not hmac.compare_digest(expected, tag):\n",
        "    if expected != tag:  # seed:tag-compare\n",
    ),
    # -- hash-order iteration feeding the shard ring ------------------- #
    (
        "serve/fleet/router.py",
        "        shards = sorted({int(s) for s in shard_ids})\n",
        "        shards = list({int(s) for s in shard_ids})  # seed:set-order\n",
    ),
]

EXPECTED = {
    ("REX-B001", "core/host.py", "host-imports-store"),
    ("REX-B003", "core/app.py", "ecall-returns-store"),
    ("REX-B003", "core/app.py", "ecall-returns-keys"),
    ("REX-B003", "core/app.py", "ecall-returns-sample"),
    ("REX-F001", "core/app.py", "ecall-returns-sample"),
    ("REX-F001", "core/app.py", "ecall-returns-model"),
    ("REX-F002", "core/app.py", "ocall-content"),
    ("REX-F002", "core/app.py", "ocall-ratings"),
    ("REX-F003", "core/app.py", "label-direct"),
    ("REX-F003", "core/app.py", "label-kwargs"),
    ("REX-F004", "core/app.py", "print-content"),
    ("REX-F005", "core/app.py", "raise-content"),
    ("REX-K003", "serve/fleet/runner.py", "loop-schedule-unkeyed"),
    ("REX-K002", "serve/fleet/runner.py", "loop-capture"),
    ("REX-C001", "tee/crypto/aead.py", "tag-compare"),
    ("REX-D004", "serve/fleet/router.py", "set-order"),
}

_TAG = re.compile(r"# seed:([\w-]+)")


@pytest.fixture(scope="module")
def seeded_tree():
    """``{relpath: seeded source}`` for every module under ``src/repro``."""
    texts = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    for relpath, anchor, replacement in SEEDS:
        assert texts[relpath].count(anchor) == 1, (
            f"seed anchor moved in {relpath}: {anchor!r}"
        )
        texts[relpath] = texts[relpath].replace(anchor, replacement)
    return texts


def _seed_tags(finding, lines_by_path):
    """Seed tags on the finding's line and on its witness steps."""
    spots = [(finding.path, finding.line)]
    spots += [(step.path, step.line) for step in finding.flow]
    return {
        tag
        for path, line in spots
        for tag in _TAG.findall(lines_by_path[path][line - 1])
    }


def test_every_seed_is_caught_by_exactly_its_rules(seeded_tree):
    modules = {module_name_for(str(SRC / rel)): rel for rel in seeded_tree}
    findings = lint_sources({module: seeded_tree[rel] for module, rel in modules.items()})
    # In-memory modules report the display path ``<module>``.
    rel_by_path = {f"<{module}>": rel for module, rel in modules.items()}
    lines_by_path = {
        path: seeded_tree[rel].splitlines() for path, rel in rel_by_path.items()
    }
    caught = set()
    for finding in findings:
        tags = _seed_tags(finding, lines_by_path)
        assert len(tags) == 1, f"not attributable to one seed: {finding.format()}"
        caught.add((finding.rule_id, rel_by_path[finding.path], tags.pop()))
    assert caught == EXPECTED
