"""Byte-identity of small CLI reports.

Each call's stdout is pinned by its SHA-256 together with its exit code.
Every set these reports print has passed through the MSet normal form, so
a change to the set algebra that moves, splits or reorders one box shows
up here as a changed digest.
"""

import hashlib
import json

from gmachines import cli
from gmachines.automata import parity_automaton
from gmachines.encodings import automaton_to_machine
from gmachines.graphings import Edge, GraphingRep, Weight
from gmachines.microcosm import Perm, TransformationDescriptor
from gmachines.words import DEFAULT_PSI, representation

from conftest import line_edge, seg


def _inputs(conveyor, doubler, winding):
    """The graphings and cuts the calls below read, by file name."""
    hop_in = GraphingRep(seg(0, 2), 1, [line_edge(0, 1, 1, 1)])
    hop_out = GraphingRep(seg(1, 2).union(seg(5, 6)), 1, [line_edge(1, 2, 1, 4)])
    swaps = GraphingRep(seg(0, 2), 1, [
        Edge(seg(0, 1, **{"1": (lo, hi)}), 0, 0,
             TransformationDescriptor(offset=1, perm=Perm({1: j, j: 1})), Weight())
        for (lo, hi), j in ((("0", "1/2"), 2), (("1/2", "1"), 3))])
    back = GraphingRep(seg(1, 3), 1, [line_edge(1, 2, 1, -1)])
    loop = Edge(seg(0, 1), 0, 0, TransformationDescriptor(), Weight("1/2", 1))
    idle = Edge(seg(0, 0), 0, 0, TransformationDescriptor(), Weight(1, 0))
    return {
        "conveyor.json": conveyor.to_json(),
        "doubler.json": doubler.to_json(),
        "winding.json": winding.to_json(),
        "hop_in.json": hop_in.to_json(),
        "hop_out.json": hop_out.to_json(),
        "swaps.json": swaps.to_json(),
        "back.json": back.to_json(),
        "parity.json": automaton_to_machine(parity_automaton()).graphing.to_json(),
        "word0110.json": representation("0110").to_json(),
        "interface.json": DEFAULT_PSI.interface_mset().to_json(),
        "loop_idle.json": GraphingRep(seg(0, 1), 1, [loop, idle]).to_json(),
        "loop.json": GraphingRep(seg(0, 1), 1, [loop]).to_json(),
    }


# call -> (argv, exit code, SHA-256 of stdout)
GOLDEN = {
    "exec-conveyor-doubler": (
        ["exec", "conveyor.json", "doubler.json", "--cut",
         '[{"line": ["1/1", "4/1"]}]', "--max-len", "7"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "paths-conveyor-doubler": (
        ["paths", "conveyor.json", "doubler.json", "--max-len", "5"],
        0, "dfb1c3e664e1cf720c96b9a746605b82f2a8899d63a132a86d420a0450adfe7d"),
    "exec-hops": (
        ["exec", "hop_in.json", "hop_out.json", "--cut",
         '[{"line": ["1/1", "2/1"]}]'],
        0, "2092a8767a5bc874f36deb5045e7975ad0c8584e637810ecd8db0af69bc16498"),
    "exec-parity-0110": (
        ["exec", "parity.json", "word0110.json", "--cut", "@interface.json"],
        0, "7e52ab5357bb8ff264a90e056f0106db1afb3f6b543b3dc4a7708cbd27b6cbb4"),
    "exec-perm-sorting": (
        ["exec", "swaps.json", "back.json", "--cut",
         '[{"line": ["1/1", "2/1"]}]'],
        0, "27e3ec82e7983e5f07c8c4a937470e1d3c3b48de70544e5aef6da5e0d8abebb4"),
    "encode-parity": (
        ["encode-automaton", "parity"],
        0, "f9ae79ed5c53890b6036afd0251ba465b9c4a07d009def88ac06ef3a936bd8a2"),
    "encode-parity-shifted": (
        ["encode-automaton", "parity", "--psi", "shifted"],
        0, "75c2fb5dc227b6464388333cd8920cfddb26e0224265b8a7301c992a0a1d7ba0"),
    "encode-zeros-ones": (
        ["encode-automaton", "zeros-ones"],
        0, "54e8dec8f4de43a4b26580a94f94b7453a6ec5c8249b1e85f30044f5abb82a72"),
    "encode-zeros-ones-shifted": (
        ["encode-automaton", "zeros-ones", "--psi", "shifted"],
        0, "ae894c2f00367eb596c7e97138f8d16cb591f23da26b556e0070db8df06c1909"),
    "essentialize-parity": (
        ["essentialize", "parity"],
        0, "f9ae79ed5c53890b6036afd0251ba465b9c4a07d009def88ac06ef3a936bd8a2"),
    "essentialize-zeros-ones-shifted": (
        ["essentialize", "zeros-ones", "--psi", "shifted"],
        0, "ae894c2f00367eb596c7e97138f8d16cb591f23da26b556e0070db8df06c1909"),
    "essentialize-winding": (
        ["essentialize", "winding.json"],
        0, "e786e17e053bdbe047c7fe7275fddb7b5d7362f1cf1c802432f3200660c8c745"),
    "extract-parity-preamble": (
        ["extract-automaton", "parity"],
        0, "54e6b00928c0309be61f69a371239e5b2045beb6b0f69912d50f78aed2276c7f"),
    "extract-parity-verbatim": (
        ["extract-automaton", "parity", "--mode", "verbatim"],
        0, "2153713faf46e189dbe8bb75d87de7930daed495d0f928227c71ba1c631f2f1b"),
    "extract-zeros-ones-shifted": (
        ["extract-automaton", "zeros-ones", "--psi", "shifted"],
        0, "52fa78bc324a44bd4a1cd60e8fa060cd3a9ec948640761407772fa10633d286c"),
    "measure-series-loops": (
        ["measure", "loop_idle.json", "loop.json", "--mode", "series"],
        0, "96820234ffb744ae66aff9d4589648fa8433d554cbb9d9eea2a5775372a75701"),
    "compare-parity": (
        ["compare", "parity", "--max-len", "3"],
        0, "93ddac7dd61008361a8919e2cb7fb474cb2402cff10690b184c09a56bed2799e"),
    "compare-zeros-ones-shifted": (
        ["compare", "zeros-ones", "--max-len", "2", "--psi", "shifted"],
        0, "50bdd07a01b894c476fa766842f67015a725fb75abdada7249588b5210e587c9"),
    "roundtrip-parity-preamble": (
        ["roundtrip", "parity", "--max-len", "3"],
        0, "cae617502f96dd31fe69808a15550c6b66e1d6d75e9f3b5e1dff8211f88025bf"),
    "roundtrip-parity-verbatim": (
        ["roundtrip", "parity", "--mode", "verbatim", "--max-len", "3"],
        0, "cae617502f96dd31fe69808a15550c6b66e1d6d75e9f3b5e1dff8211f88025bf"),
    "roundtrip-zeros-ones-preamble": (
        ["roundtrip", "zeros-ones", "--max-len", "4"],
        0, "8d0eebaaafd6cf6e9a7547001e39fda347fbf95732c86df87e469a357a32c1d8"),
    "roundtrip-zeros-ones-verbatim": (
        ["roundtrip", "zeros-ones", "--mode", "verbatim", "--max-len", "4"],
        0, "8d0eebaaafd6cf6e9a7547001e39fda347fbf95732c86df87e469a357a32c1d8"),
    "decide-zeros-ones-json": (
        ["decide", "zeros-ones", "000111", "--json"],
        0, "89b0d784b11f70ed21736d3aca940b8a78f8edbd22b2481b786843fc18242c2b"),
}


def test_cli_reports_are_byte_identical(capsys, tmp_path, monkeypatch,
                                        conveyor, doubler, winding_machine):
    monkeypatch.delenv("GM_MAX_PATH_LEN", raising=False)
    monkeypatch.chdir(tmp_path)
    for name, doc in _inputs(conveyor, doubler, winding_machine).items():
        (tmp_path / name).write_text(json.dumps(doc))
    got = {}
    for call, (argv, _, _) in GOLDEN.items():
        code = cli.main(argv)
        out = capsys.readouterr().out
        got[call] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == {call: (code, digest)
                   for call, (_, code, digest) in GOLDEN.items()}
