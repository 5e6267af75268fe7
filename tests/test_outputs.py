"""Golden outputs: the sha256 of stdout and the exit code of fixed commands.

The digests pin the rendered text byte for byte, so a change to how A, B or
a verdict is computed or printed that moves a single character fails here.
Each command runs in process through ``cli.main``; after an intended output
change, a failing case shows the new digest to paste.
"""

import hashlib
import json

import pytest

from unknotone.cli import main

# records read through --input; an argument naming one is replaced by the
# path of a file that holds it
RECORDS = {
    # a two-bridge chain with D = 10,001
    "CHAIN": {"name": "chain_10001", "goeritz": [[-2, 1], [1, -5001]]},
    # the sharp 10_148 form, not a plumbing tree: its entry 3 is a triple
    # edge, so the class count is refused (exit 3, nothing on stdout)
    "SHARP": {
        "name": "sharp_10_148",
        "goeritz": [
            [-4, 3, 1, 0, 1],
            [3, -5, 0, 0, 0],
            [1, 0, -2, 1, 0],
            [0, 0, 1, -2, 0],
            [1, 0, 0, 0, -2],
        ],
    },
    # a two-bridge form with D = 599: a listing of 598 matchings
    "LISTING": {"name": "two_bridge_599", "goeritz": [[-2, 1], [1, -300]]},
    # a dimension-8 star of the benchmark's plumbing catalogue, an L-space
    "STAR": {
        "name": "star-3_3.2.2.2_2.2_2",
        "goeritz": [
            [-3, 1, 0, 0, 0, 1, 0, 1],
            [1, -3, 1, 0, 0, 0, 0, 0],
            [0, 1, -2, 1, 0, 0, 0, 0],
            [0, 0, 1, -2, 1, 0, 0, 0],
            [0, 0, 0, 1, -2, 0, 0, 0],
            [1, 0, 0, 0, 0, -2, 1, 0],
            [0, 0, 0, 0, 0, 1, -2, 0],
            [1, 0, 0, 0, 0, 0, 0, -2],
        ],
    },
    # an asymmetric matrix: the one record of a batch fails to parse
    "BROKEN": {"name": "broken", "goeritz": [[-2, 1], [0, -2]]},
}

COMMANDS = (
    # the commands of the benchmark's cli workload
    ("obstruct", "--knot", "8_10"),
    ("obstruct", "--knot", "10_121", "--json"),
    ("match", "--knot", "9_33", "--json"),
    ("alexander", "--knot", "9_33"),
    ("plumbing-check", "--knot", "10_125"),
    ("gamma", "--D", "1019", "--json"),
    ("report", "--paper-tables", "--json"),
    # the renderers of A and B
    ("report", "--all", "--json", "--strong"),
    ("corrections", "--knot", "10_125", "--json"),
    ("corrections", "--knot", "8_10", "--generator", "2", "--json"),
    ("gamma", "--D", "27"),
    ("gamma", "--D", "10001", "--json"),
    ("obstruct", "--knot", "9_33", "--sign-refined", "--json"),
    ("plumbing-check", "--knot", "10_125", "--json"),
    ("alexander", "--knot", "9_33", "--json"),
    ("corrections", "--input", "CHAIN", "--json"),
    # the listing renderer at a larger D, and the staircase filter
    ("match", "--input", "LISTING"),
    ("match", "--input", "LISTING", "--json"),
    ("obstruct", "--strong", "--input", "CHAIN"),
    # a form outside the class count's theorem, and a star inside it
    ("plumbing-check", "--json", "--input", "SHARP"),
    ("plumbing-check", "--json", "--input", "STAR"),
    # the text renderers of the tables, a batch, A and the signed verdicts,
    # alexander with no companion, and a batch whose one record fails to
    # parse (its text report prints nothing on stdout)
    ("report", "--paper-tables"),
    ("report", "--all"),
    ("corrections", "--knot", "8_10"),
    ("alexander", "--knot", "8_10"),
    ("alexander", "--knot", "8_10", "--json"),
    ("obstruct", "--knot", "9_33", "--sign-refined"),
    ("report", "--json", "--input", "BROKEN"),
    ("report", "--input", "BROKEN"),
)

# sha256 of stdout and the exit code, recorded before the renderers moved
# from Fractions to integer numerators
DIGESTS = {
    'obstruct --knot 8_10': ('1e9c9661ff6ed147fae0af2467ba41acd50d7c1a4ae7f49eaa2c2b1ae94b9a85', 0),
    'obstruct --knot 10_121 --json': ('ceeb0c454d6a6f3af491b2eeb1d924436faa0f29876a2aa1956f13305e11b9a2', 0),
    'match --knot 9_33 --json': ('dc502fc04def026770de4f773286a20a6adb20aab67e7ec6551f13783b0b8fe8', 0),
    'alexander --knot 9_33': ('b657dc0832c00f2fc464a88fc53d6c0cf20124672881c4a98562f0aa14032972', 0),
    'plumbing-check --knot 10_125': ('b49e404574f1678bd18a8128bd8d2603b8a3a0eca16247060cbf899ba058512c', 0),
    'gamma --D 1019 --json': ('601f06afb4853a5ed19de1fbb4a1134ce9f11114353f620461a421137c076236', 0),
    'report --paper-tables --json': ('3779300475a3cfcab17b1346fdf57270778220303997186174e2bedb6480c867', 0),
    'report --all --json --strong': ('07a44d6300da5a6a6445fb6366889fb39700767d97a48796f2701afc30e3b61a', 0),
    'corrections --knot 10_125 --json': ('89222901078558fd1b4323a34b9e13ce03e20620a791a6c4b32e37450fb43a7a', 0),
    'corrections --knot 8_10 --generator 2 --json': ('30f25017bc02b7ec2cfde272572032f88f82d6b8b14c104fe13a8245dac40def', 0),
    'gamma --D 27': ('70e7692e7eee996a717404f31dafa1eec123a059f038f932a31abac91b5592d5', 0),
    'gamma --D 10001 --json': ('7d025434479d8bce661a32690058ed6dd307be98ff39c4bb8fa9da7b15e46881', 0),
    'obstruct --knot 9_33 --sign-refined --json': ('e25b208a27b1e7b77701e9819a1beeedfcf5f64bcbeef3fccdf363bfd8c0b31f', 0),
    'plumbing-check --knot 10_125 --json': ('a4bc56b6f39051e60fae8aa0a2b532cfb9c7d6a7a57204203db101db68ff8808', 0),
    'alexander --knot 9_33 --json': ('1d8372d716e2a8cd8fdbb37fc444e972e5205da01ed92224a3278b0d7ac14987', 0),
    'corrections --input CHAIN --json': ('c12dae658e08c2c8efea2577b6abc4e49015181cc56963e09f229634eca11007', 0),
    # recorded when the class count began refusing forms that are no plumbing forest
    'plumbing-check --json --input SHARP': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 3),
    'plumbing-check --json --input STAR': ('aea5b7c8aeacc3b5b45a06e2fe8cc8cf43a159be4b946102c3f3e83615d8c975', 0),
    # recorded before the matchings moved from Fractions to integer numerators
    'match --input LISTING': ('c65cfb13141979c554960a18ebd92736ba3f732ab74ae465f50c8ac317e709fc', 0),
    'match --input LISTING --json': ('86ed64a0862320f61582d16f474235f2b9f0add20916d9ea664b4d780c9f35ba', 0),
    'obstruct --strong --input CHAIN': ('0b74e06a1a9178d7d8651a33d333506fce526bb2d899f11aad14f763b4fdb256', 0),
    # recorded before the handlers began returning their output to main
    'report --paper-tables': ('03d7d51d072aabce5ebdbbb07426a7ae3612b84a2ebf45d29c9af5fb6d134e51', 0),
    'report --all': ('d8acb1380ce32fb74262144beaedcea4868aada9671b5bc6847ce22b9483b47a', 0),
    'corrections --knot 8_10': ('fa5ada1796cebcd9903708f4f1ad6051180e856019524489066cf72290b72f7a', 0),
    'alexander --knot 8_10': ('de54c9cc912953e95511ef1659152aa312385213e4083c88944e9733f4921cac', 0),
    'alexander --knot 8_10 --json': ('6d5fd42b3f6bae21e641a1b6404290a070c466ce8b2160168941b710cc7a7b95', 0),
    'obstruct --knot 9_33 --sign-refined': ('234f8aa5dd43624396de5740a40e30dfd0d9412dd2ed1290ae13de1e052aaa4f', 0),
    'report --json --input BROKEN': ('369c074e043a54cb11f8672a5f1f09d7f376b1dcaf07c398c35eb2fdd2309a01', 3),
    'report --input BROKEN': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 3),
}


def run(argv, record_paths, capsys):
    argv = [str(record_paths.get(arg, arg)) for arg in argv]
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), code


@pytest.fixture(scope="module")
def record_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("records")
    paths = {}
    for key, record in RECORDS.items():
        paths[key] = folder / f"{key.lower()}.json"
        paths[key].write_text(json.dumps([record]), encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_is_byte_identical(argv, record_paths, capsys):
    assert run(argv, record_paths, capsys) == DIGESTS[" ".join(argv)]

