"""Seeded digests above n = 16: reports no golden file reaches, pinned by sha256.

The goldens stop at n = 13. Each row here runs one CLI invocation and
hashes its JSON ``results`` block (``json.dumps`` with sorted keys) or
its whole CSV output. The rows cover every subcommand on a random table
at n = 17, a ``bv-sample`` at n = 17 that spans two sampler key blocks,
a planted 17-of-24 junta (the sampler's junta path), a draw count at
n = 24 that fills half of its one 2^21-key block (it spanned three
blocks of 2^19, and replays: the draws do not depend on the block
size), the influences at n = 24, a draw
count at n = 24 small enough to leave most segments without a key, and
two kept samples at n = 24, on the junta's own spectrum and on a random
table. A change that moves any digest has changed a seeded result.

To print the digests after a deliberate change of outputs, run this file
as a script from the repository root and record the change in CHANGES.md::

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import io
import json

import pytest

from bvinfluence.cli import run

RANDOM17 = ["--random", "17:5"]
# Five linear and six quadratic terms on 17 of 24 variables, spread over the
# first table word and above bit 16.
JUNTA24 = ["--anf", "x19 + x5 + x22 + x11 + x12 + x3*x23 + x7*x24 + x4*x21 + x1*x9 + x13*x17 + x14*x20", "--n", "24"]

DIGESTS = {
    "influence-random17": (["influence", *RANDOM17], "json",
        "15327ebcfd0e41c966a385d9ffb3b443cfdcd543098f1619b1aa34f26e52f9a0"),
    "spectrum-random17": (["spectrum", *RANDOM17], "csv",
        "4291811e4ce155574e6181782e564215590414025e3ab1b8ef227269a013c0ef"),
    "verify-random17": (["verify", *RANDOM17], "json",
        "67d0b0f0c4096fad9daa9c1ab125e475c6a090e1e8e2830fa2e4a5282c4cb02a"),
    "bv-sample-random17": (["bv-sample", *RANDOM17, "--m", "3000", "--seed", "1"], "csv",
        "09c2346a56b6e6c3d26f954953c97faec5780fd66601474f6d4a0711456db792"),
    # 2^19 + 3 draws: one whole key block and one of 3, kept in draw order
    "bv-sample-random17-blocks": (["bv-sample", *RANDOM17, "--m", "524291", "--seed", "12"], "csv",
        "04e9914a2941f3a93745780d5965a943fa8aaa4b4da68bd0f3865687bef71c0a"),
    "estimate-random17": (["estimate", *RANDOM17, "--m", "1060", "--seed", "2"], "json",
        "51129c7ac2a01ce3bc58209a33953da431fc22dab02a7790ebe371e2ca633b32"),
    "list-influential-random17": (["list-influential", *RANDOM17, "--m", "40", "--seed", "3"], "json",
        "a7c75c47646357179be8b8a424a2228473f6b6318e4c115c61212676a29354cf"),
    "learn2-random17": (["learn2", *RANDOM17, "--rho", "60", "--seed", "4"], "json",
        "e5743bb86a4da0f34a850c5c39bf0e58c799bae2e3fb8b5eb213d6c45c64ca57"),
    "learn3-random17": (["learn3", *RANDOM17, "--lambda", "2000", "--seed", "5"], "csv",
        "ebf96130f3031e83bf73651f3dd14fb1a2a17d67d3c4048ccf26d94ebbf02ace"),
    "classical-random17": (["classical", *RANDOM17, "--m", "1060", "--seed", "6"], "json",
        "5b9cf03e7385c9b712777403fac2c033bdf5df370f58843212ccf581c24edb82"),
    # algorithm2, algorithm1, influential_list and algorithm3 on the junta
    "learn2-junta24": (["learn2", *JUNTA24, "--rho", "60", "--seed", "7"], "json",
        "af483aeb7a49e6d763bf107a7ca38b63b848c3fac816e5d50af972fb7f6cd20b"),
    "estimate-junta24": (["estimate", *JUNTA24, "--m", "1060", "--seed", "8"], "csv",
        "8a93c0594ad755571cc0d62f4fcf44d9fba41aa685554504c15dc65edba3e619"),
    "list-influential-junta24": (["list-influential", *JUNTA24, "--m", "40", "--seed", "10"], "json",
        "98775bb987e5e69552df7b27013bd5954b15f396e92ef8724a52cfb9dffbc41b"),
    "learn3-junta24": (["learn3", *JUNTA24, "--lambda", "2000", "--seed", "11"], "json",
        "138afe0aa0d80f980b1f70f30a957bd13849a6fc592f1f2464041d8691dd7a7b"),
    # 2^20 + 1 draws: one key block of 2^21 at n = 24 (three of 2^19 before blocks grew with n)
    "estimate-random24": (["estimate", "--random", "24:1", "--m", "1048577", "--seed", "9"], "json",
        "2c3b7f65f11481c2854660950f86b430d8ffaf76eb134025700302479745290c"),
    # every variable's influence at the cap, and a small m that touches few segments
    "influence-random24": (["influence", "--random", "24:1"], "json",
        "908a1d428dba43a6b39cad7738d46bc9513f02e997808afcc0e542ff20789804"),
    "estimate-random24-sparse": (["estimate", "--random", "24:1", "--m", "1060", "--seed", "7"], "csv",
        "135e84facff0d8e7877b748462bf9610b2042e6b15ce4bae37a82b4637962e2d"),
    # kept draws at the cap on f's own spectrum, most of whose segments hold no weight
    "bv-sample-junta24": (["bv-sample", *JUNTA24, "--m", "1000", "--seed", "13"], "csv",
        "32551bc2089296daa3e59c8c23e49b659e501a10c642654a0a68b48275ea6366"),
    # kept draws at the cap in draw order, with lookups that run across tiles
    "bv-sample-random24": (["bv-sample", "--random", "24:1", "--m", "20000", "--seed", "14"], "csv",
        "ec3f0ca8e24d7a9b5aea4adaa8f206b050ff8b123e459e34b74ece6d51f1d367"),
}


def digest(argv: list[str], fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run([*argv, "--format", fmt], out=out, err=err)
    assert code == 0, err.getvalue()
    text = out.getvalue()
    if fmt == "json":
        text = json.dumps(json.loads(text)["results"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_seeded_digest(name):
    argv, fmt, expected = DIGESTS[name]
    assert digest(argv, fmt) == expected, name


if __name__ == "__main__":
    for name, (argv, fmt, _) in DIGESTS.items():
        print(f"{name}: {digest(argv, fmt)}")
