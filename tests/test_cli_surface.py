"""CLI surface pins: ``--json`` payloads and trace digests.

Each payload is hashed as canonical JSON (sorted keys) with the
``trace``/``metrics`` summaries removed -- those carry file paths and
ride outside the core payload.  The trace digests pin the commands
that run on the calling thread only (``fleet`` and ``chaos`` plan
every device in order there); the serve tier's executor threads order
span ``seq`` by thread start.
"""

import hashlib
import json

import pytest

from repro.cli import main

PAYLOAD_PINS = {
    "optimize": (
        ["optimize", "tiny", "--qos-percent", "30"],
        "fa6ee3890abbf7033b2965e80fb6df462f9033b355e9504f2b1baba0b4031dab",
    ),
    "optimize-f746": (
        ["optimize", "tiny", "--qos-percent", "30",
         "--board", "nucleo-f746zg"],
        "b4771fb0c02ffff6bce0c51b106ceba0a54c4ada53c3a80ce81072722dd0f218",
    ),
    "compare": (
        ["compare", "tiny"],
        "3bda15b181286d9bca765cd2cb701414fb364c040bfa27c0f0722ce4c444d189",
    ),
    "lifetime": (
        ["lifetime", "tiny"],
        "c0cccd0d2b2dccdba2a67141112b466adb48350c58bf71eb3d43833b0a7e1988",
    ),
    "boards": (
        ["boards"],
        "4a0ba91b802905915ae33e23c074b6d7491f8e5f8fcbfea926746d1cbcd7c59b",
    ),
    "boards-show": (
        ["boards", "--show", "nucleo-n657x0"],
        "d4988d6d7735c70fda4ba17a5f4359b6e0e7191bc89349ac018c2d6be1c8c113",
    ),
    "scenario-list": (
        ["scenario", "--list"],
        "96a187d128dc87b41b200f1135f1c6db305807b3f2b825e098fb6529f55befb6",
    ),
    "plan": (
        ["plan", "tiny", "--qos-percent", "30"],
        "5bf8f7cd22b5f1a7ce02bdf9762dfc5cb94e69bc68309b142ff4e370abb43006",
    ),
    "crossboard": (
        ["crossboard", "tiny", "--qos-percent", "30"],
        "b491fd874eac44647aa11d29e7233272a47f328575fc03f8a32a28543951e276",
    ),
    "fleet": (
        ["fleet", "--devices", "4", "--epochs", "2"],
        "767a2f597486c26fdb57f02fb758eedd9884c2876dd5554051b96032a9d8893e",
    ),
    "chaos": (
        ["chaos", "--devices", "8"],
        "2e486f8f7fe9a95bc30f2d1a122a074ad8288e684c568216cc828eff667a37d2",
    ),
}

# (flags the command accepts besides --json, trace digest)
TRACE_PINS = {
    "plan": (
        ["--trace", "--metrics"],
        "dc04676a617cb30a914b5f239b4f7edae91d3fafb1744a4c0209faa0c6071727",
    ),
    "crossboard": (
        ["--trace"],
        "abcf4f991cd51585ded01a9c04c677029afab3c175649f6ac08ff68c291bab8a",
    ),
    "fleet": (
        ["--trace", "--metrics"],
        "69bb6f5d4c8bf53006ab64b3f8fb7d30fe98b0128a272c717762ce251b76a6ac",
    ),
    "chaos": (
        ["--trace", "--metrics"],
        "6bfd4bc5172272a69ffdb4f92d837a79ae8d7f198007acff12736a6eeac0db88",
    ),
}


def _run_json(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _core_hash(payload):
    core = {
        k: v for k, v in payload.items() if k not in ("trace", "metrics")
    }
    return hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(PAYLOAD_PINS))
def test_json_payload_pinned(capsys, name):
    argv, expected = PAYLOAD_PINS[name]
    assert _core_hash(_run_json(capsys, argv)) == expected


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_trace_digest_pinned_and_payload_digest_unperturbed(
    capsys, tmp_path, name
):
    argv, expected_core = PAYLOAD_PINS[name]
    flags, expected_trace = TRACE_PINS[name]
    plain = _run_json(capsys, argv)
    extra = []
    if "--trace" in flags:
        extra += ["--trace", str(tmp_path / "run.jsonl")]
    if "--metrics" in flags:
        extra += ["--metrics", str(tmp_path / "run.metrics.json")]
    traced = _run_json(capsys, argv + extra)
    assert traced["trace"]["digest"] == expected_trace
    assert ("metrics" in traced) == ("--metrics" in flags)
    assert traced["digest"] == plain["digest"]
    assert _core_hash(traced) == expected_core

