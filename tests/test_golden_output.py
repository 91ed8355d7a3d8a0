"""Byte-exact CLI output, pinned as digests.

Each case runs ``cli.main`` on a fixed input in the working directory, in
human form and with ``--json``, and hashes its exit code, stdout and
stderr.  The JSON ``timing`` value is the one non-deterministic field; it
is replaced by 0 before hashing.  Any change to a printed byte, an exit
code or a message shows as a changed digest.
"""

import hashlib
import random
import re

import pytest

from distbalance import (
    FamilyTag,
    broom,
    canonical_family_tree,
    complete_graph,
    from_edge_list,
    path_graph,
    relabel,
    write_edge_list,
)
from distbalance.cli import main


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


# name: (input graph or None, argv after the command's input path)
CASES = {
    "closure_s3_m40": (_shuffled(canonical_family_tree(FamilyTag.S3, 40), 40),
                       ["closure", "g.el"]),
    "closure_dominant": (_shuffled(from_edge_list(7, [
        (0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (4, 5)]), 7),
                         ["closure", "g.el"]),
    "closure_s3_m4_degenerate": (_shuffled(canonical_family_tree(FamilyTag.S3, 4), 4),
                                 ["closure", "g.el"]),
    "closure_unsupported": (path_graph(8), ["closure", "g.el"]),
    "search_s2_m4": (_shuffled(canonical_family_tree(FamilyTag.S2, 4), 24),
                     ["closure", "g.el", "--mode", "search"]),
    "search_broom_m3_all": (_shuffled(broom(3), 3),
                            ["closure", "g.el", "--mode", "search", "--all-witnesses"]),
    "search_s3_m6_regular": (_shuffled(canonical_family_tree(FamilyTag.S3, 6), 6),
                             ["closure", "g.el", "--mode", "search", "--prune", "regular"]),
    "verify_oracle": (None, ["verify", "--family", "all", "--m", "3..6", "--oracle"]),
    "check_report_broom": (_shuffled(broom(6), 6), ["check", "g.el", "--report"]),
    "check_report_k6": (complete_graph(6), ["check", "g.el", "--report"]),
    "gen_starlike": (None, ["gen", "starlike", "3,1^4"]),
    "gen_complete": (None, ["gen", "complete", "6"]),
}

# sha256 of "<exit code>\n<stdout>\n<stderr>", human form then --json
GOLDEN = {
    "closure_s3_m40": ("4f5fd4e2be8e228a9b856ede636ad136b7a7892fc3ee4b918070812a5e2a565f",
        "f33c1e49c13dccf68a8c6adb059f50df3ed7d7b1e22335199df403764727b77f"),
    "closure_dominant": ("2f798e333c063cf826f3c6b6c92c17bc4199608c561919463943c6d467d37c16",
        "318c0defc775b58547eaf8b1d49c84ccc48b9cdaf521e8e30caef7f87f68cac7"),
    "closure_s3_m4_degenerate": ("77d3910ff734f12f5d2eb5f1fdba1047f902b6ce92ce5ef11f2b372380acad8a",
        "92591fef19e7e9461a204f2e69f2599913841bb8b716706c2dd8eeee27b2edf5"),
    "closure_unsupported": ("81400e72a26988d685a2e6f6b6f10677f0554bb26e4f6f3354bf7380c8d95ba4",
        "81400e72a26988d685a2e6f6b6f10677f0554bb26e4f6f3354bf7380c8d95ba4"),
    "search_s2_m4": ("cfbbace5548152b8f783061f927e5b836ea2f3201505492ba43d1aee4966781f",
        "21fa60a50369c55d0b1e4bd741fd3c86208900492dce8c91830f88d1ef08e4ee"),
    "search_broom_m3_all": ("53ffcb8ba5824be544abcf83cd7129ca96c5dcfb57cc692036b26749a30fb327",
        "a260ddd84336296e76afcc84ddb47638ea6793dbfaef51f6af59b71d39fd9225"),
    "search_s3_m6_regular": ("4ba2d255457ac30d8f950d47a2fef256a2f7a618e08595add1a340363a873e33",
        "3358feb7b14d1fed952db234057da770e9a845485a2d4e21933de0c13f9e03b6"),
    "verify_oracle": ("2cc521ad26f4aa4a0e0e1815d12d8601a4b1a890f3cfbf3d2294057c65fbf48a",
        "ea01ec2af88a99c4dc57c63959f8e964fd8498acbf2a2cd88037416ea4a09f65"),
    "check_report_broom": ("148428431b8470ab6e888e8831096066be8ba13617c90fc3356601b3c4a245c1",
        "d4c88f000d3731b5e29a177a4ca6dad1a0e76d178d5dc38bf54b08d971902a03"),
    "check_report_k6": ("8d6384e566b0982af302a4ef1ad5b6254788b3871f44fa6e1b6d6d9f847aafae",
        "e9c542875226ab03e2192dbd4cba731027f7e62d07d26be7c6d24778bedd6f60"),
    "gen_starlike": ("cff1315de8908d12439f52a99eb14e12ab0f53fcb241cdaaf38070509c25b2fd",
        "a53287c67ba662099c7179a882c5c1b394c435178b5de48c647aa31d3901cf63"),
    "gen_complete": ("34c5dc57f861f36324e1e5cd56687f730668c3c597024c314f9a685c2030101a",
        "75f036dcdedc165cb85db15ce6bab954f6812013d581fb1f51dcdda919cd5d02"),
}

_TIMING = re.compile(r'"timing": [^,}]+')


def _digest(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = _TIMING.sub('"timing": 0', captured.out)
    return hashlib.sha256(f"{code}\n{out}\n{captured.err}".encode()).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_output_is_pinned(name, capsys, tmp_path, monkeypatch):
    g, argv = CASES[name]
    monkeypatch.chdir(tmp_path)
    if g is not None:
        write_edge_list(g, "g.el")
    got = (_digest(capsys, argv), _digest(capsys, argv + ["--json"]))
    assert got == GOLDEN[name]
