"""CLI: audit traces and findings JSON, single-step and stale-reuse
paths, parser, and the CLI's description of itself."""

import argparse
import ast
import pathlib
import re

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main


def test_cli_audit_with_trace(capsys):
    assert main(["audit", "--trace", "nvme"]) == 0
    out = capsys.readouterr().out
    assert "SPOOFABLE 931" in out
    assert "precision 1.000" in out


def test_cli_audit_trace_no_match(capsys):
    assert main(["audit", "--trace", "zz-no-such-driver"]) == 0
    out = capsys.readouterr().out
    assert "no findings in files matching" in out


def test_cli_single_step(capsys):
    assert main(["attack", "single-step"]) == 0
    out = capsys.readouterr().out
    assert "escalated: True" in out


def test_cli_stale_reuse_strict_blocked(capsys):
    code = main(["attack", "stale-reuse", "--iommu-mode", "strict"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAULTED" in out


def test_cli_memdump(capsys):
    assert main(["attack", "memdump"]) == 0
    out = capsys.readouterr().out
    assert "dumped" in out


def test_cli_forward_requires_forwarding(capsys):
    code = main(["attack", "forward"])  # victim not forwarding
    assert code == 1


def test_cli_forward_with_forwarding(capsys):
    assert main(["attack", "forward", "--forwarding"]) == 0


def test_parser_rejects_unknown_attack():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["attack", "teleport"])


def test_parser_victim_flags():
    args = build_parser().parse_args(
        ["attack", "ringflood", "--iommu-mode", "strict", "--cet",
         "--damn", "--unmap-order", "skb_first"])
    assert args.iommu_mode == "strict"
    assert args.cet and args.damn
    assert args.unmap_order == "skb_first"


def test_audit_findings_json_is_canonical_and_repeatable(tmp_path,
                                                          capsys):
    from repro.core.spade import Spade
    from repro.corpus import CorpusGenerator
    from repro.corpus.linux50 import scaled_composition
    from repro.durability import canonical_json
    from repro.perfcache.codec import encode_findings

    paths = [str(tmp_path / "first.json"), str(tmp_path / "second.json")]
    for path in paths:
        assert main(["audit", "--scale", "0.1",
                     "--findings-json", path]) == 0
    capsys.readouterr()
    first, second = (pathlib.Path(path).read_bytes() for path in paths)
    assert first == second
    tree, _ = CorpusGenerator(
        seed=2021, composition=scaled_composition(0.1)).generate()
    expected = canonical_json(encode_findings(Spade(tree).analyze()))
    assert first.decode("utf-8") == expected + "\n"


def _subcommands(parser) -> set:
    return {name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices}


def test_module_docstring_lists_every_subcommand():
    listed = re.findall(r"^\* ``([a-z]+)``", cli.__doc__, re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == _subcommands(build_parser())


def test_help_epilog_lists_every_user_facing_env_var():
    # REPRO_CRASH / REPRO_CRASH_CENSUS are how crashtest drives its
    # own subprocesses, not knobs a user sets
    internal = {"REPRO_CRASH", "REPRO_CRASH_CENSUS"}
    read = set()
    for source in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text("utf-8"))):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and re.fullmatch(r"REPRO_[A-Z_]+", node.value):
                read.add(node.value)
    listed = set(re.findall(r"REPRO_[A-Z_]+", build_parser().epilog))
    assert listed == read - internal
