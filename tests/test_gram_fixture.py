"""Every cell with 1 <= n <= 6 against the sha256 of its
`gram --output json` stdout, recorded before the Gram matrices were read
through the double-coset table (46 cells: 1, 3, 4, 8, 11 and 19 per
degree), the three f = 2 cells at n = 7, recorded before the tower form
was computed by one walk of the dangle tree, and three f = 1 cells at
n = 7, recorded before each node of that walk kept one entry per dangle."""

import contextlib
import hashlib
import io
import json
import sys
import threading

import pytest

from bmwgram import bmw as B
from bmwgram import cellmod as CM
from bmwgram.cellmod import CellIndex
from bmwgram.cli import main

GRAM_JSON_SHA256 = {
    (1, 0, (1,)): "3e7cc49aaca7b747fd38a38606ac8c756ce1f18a05ff47f6dec83fbfba51e354",
    (2, 0, (2,)): "a9131f2611b258ba7578d9e07f328935c567b581afad018403b92671609f7449",
    (2, 0, (1, 1)): "914266dfdaf888738c66334bd0e419ff73efd1565430f242d177b8dbef586aae",
    (2, 1, ()): "6875ccc718bf493bedfcf978f3f6704ad7a99b87a7f94c36b208ee59a03959b7",
    (3, 0, (3,)): "7409118cec2096dcb6899d011cd0c33c13697055e7f702c56d27e27adcba749f",
    (3, 0, (2, 1)): "f88d0da6ce37f0a21396c8db26a84bc47c783b2b6401256f6a035665e9a4d804",
    (3, 0, (1, 1, 1)): "e5ff32140a726fb14458aa6c72061f444e6c09a2733084495c99bf82815e8c20",
    (3, 1, (1,)): "463090977a63a5ef2e158ab7b957e69a10a3e7570a90bad63a2ff284b0a95833",
    (4, 0, (4,)): "6b2318ab17e45a5e240d175e48802462036ef57713ba25af22c12351f8aa8be0",
    (4, 0, (3, 1)): "c4dae96799ea29eba0a141f1fcb7b9e01e4e0ab8512984153c00368e1ac5f72c",
    (4, 0, (2, 2)): "7009fad2fbd857379c427f1175ee9828947a5d2a4391deda08cb9f07a350a788",
    (4, 0, (2, 1, 1)): "5dc1474c0bc89c60292aa0022682503c886b64bfb0c46b86b5812f17ff05d12d",
    (4, 0, (1, 1, 1, 1)): "b93aedaae1b18675216522a0fa642de09cf4d6bd2a3f3329ef8de93d2a9c6fd6",
    (4, 1, (2,)): "159e7eefaebeb893d167e2ee4d300c8fe38a14897ce6d18dfc49e2c62c4b3898",
    (4, 1, (1, 1)): "159e87b06f56f2fc3bea0ad4964b7ed9bc1d29de643cb89a4d90ec0f5fb9cde1",
    (4, 2, ()): "f10d1c2da135d2e356fed49c6b85ca77de0f51b213ddf90a8700c55e3f67d790",
    (5, 0, (5,)): "152371e3819591ff7fce71e67931587e12d378db484b57623c659b060980b315",
    (5, 0, (4, 1)): "99f842b3eb8214af47f592ac7df8976deb0468a0ba5c7220948620d14ff3ab11",
    (5, 0, (3, 2)): "eb6199619dcbc4ae7beda84be6906dcc87153f760d090518a6e43f81cda0f4f6",
    (5, 0, (3, 1, 1)): "9c973d6d5e7e03bdbb0af7f0fb5b422806fc718dd2232d9a909720081d30af42",
    (5, 0, (2, 2, 1)): "e577b507e0d838b07c89a07dabf792f6693c3371454cb5603cc850ad5a42a76f",
    (5, 0, (2, 1, 1, 1)): "79c6393178c94855f1d011eb4e7b90a8092bcf92f407df36950ac90ab25893d9",
    (5, 0, (1, 1, 1, 1, 1)): "47bd190a6e0c7ab7eecbf1a375b67cf185ac5cdd9ed765e4eb2e93624448683d",
    (5, 1, (3,)): "e7ef171ab6fa1810067d738236b92a7521420f61db0e123b910ef46c8df55bf1",
    (5, 1, (2, 1)): "d3358049504f9e0ed9ae4524852a6674efc7b80dea3edff225dd71438b80512e",
    (5, 1, (1, 1, 1)): "3d0b08f3abda535ffde9e2645e0adbc820fdb28c86c53e8fe32f015e42e25096",
    (5, 2, (1,)): "0537de12e92002ffc118382ba9b31ab1be45d48ef15d2599cbac13f82e8c2bb9",
    (6, 0, (6,)): "e00587ed1e4d00244743ec337cdc6b609a0816716fffbb2a66136358aaf0fdd4",
    (6, 0, (5, 1)): "3562e49943f11d48392da83431c007ace1229477681192ff04eb75b19ac92edc",
    (6, 0, (4, 2)): "3dce901bc7b6cc4e29c2ef6ddd2d85ee7ef55cb6cc8daaa3b8a21d731dd66dd3",
    (6, 0, (4, 1, 1)): "53149aeea3fe16c5a9ed4227d019b7f9dc221cdb49ba741566d278a92f1eb688",
    (6, 0, (3, 3)): "073895d788d498a47864e72173e5b882907b219f3c31b01e0fbdc0157ca80749",
    (6, 0, (3, 2, 1)): "0885193924db38c9886e90e99d9af3a63330a3656b8f0b8eed6228bf7ef32670",
    (6, 0, (3, 1, 1, 1)): "0c9ea1a7b1f35ccc683de0416be56eeea88f61834b0ac258adf022b6836a989d",
    (6, 0, (2, 2, 2)): "e2cfcb2ce75b98713e75d8402476e6aae84d8e74bc1000fea8bffc5409bfbdf2",
    (6, 0, (2, 2, 1, 1)): "cc2bc080d93eaf56fdc753f7850b1da5f2f29a60355fd85104775393ed2e92d8",
    (6, 0, (2, 1, 1, 1, 1)): "101f7700ccf012864aabd8b7aef6d0d58dadc573d0cfe90252861cae87f1c4ee",
    (6, 0, (1, 1, 1, 1, 1, 1)): "74ff9a1a0cebba483e497186f1a7fb79613bcd30c7365e905f624e417d225f67",
    (6, 1, (4,)): "aff9dc8e3ace8e238f7571cae7f1476fc2a11666786dd7227e50a857273301fc",
    (6, 1, (3, 1)): "0462294bff79ba27fe08388b478058403635d3cc76cacb71afb9dd2b35f90bfe",
    (6, 1, (2, 2)): "5c8c4e6ee157e48c6a2795b4eb7ffebfcb57aaf8e318fcec358519632bc2fbf0",
    (6, 1, (2, 1, 1)): "db97f13544396b17829da9ead7308cb08e80562feac2d48bb474e085bdd67b54",
    (6, 1, (1, 1, 1, 1)): "6b4b1f8ddd6743a80f921a5b041d9efa3f1e931115cbef78f743d36e7e994dad",
    (6, 2, (2,)): "86ee9a8467010a6baadb6c3aa9c89b6ba294b3a68c96e6d40e43208c7da9bb79",
    (6, 2, (1, 1)): "42351e0e79bdf905afe3a4776888ce13301b879ddcf63fdd1373242b89ca018d",
    (6, 3, ()): "ee1e12174f3d219192f0769fe9ed3ab63ecf2b9a1bff52f6f6c3df84f407c97e",
}

GRAM_N7_F2_JSON_SHA256 = {
    (7, 2, (3,)): "09021c3ba0927399a840eb5288f793af52fb45a35455dde72fdcd465bcbedfff",
    (7, 2, (2, 1)): "4b216515925363fffeb1ced735799a3029ad8aca7c9903a0a83324d0a801cf92",
    (7, 2, (1, 1, 1)): "0c5b0134b969069b63dbf94a26b9c78b0227eaa6cb5270c4d956f5dae0df5c3a",
}

GRAM_N7_F1_JSON_SHA256 = {
    (7, 1, (5,)): "0d29cd2f17403bad8d594ce04a0cf20ea475d5df02908de87795793072879a07",
    (7, 1, (4, 1)): "74b8a84163f374ab14db58e00478437d176973101b64ec097cfc4c6d5c18c153",
    (7, 1, (1, 1, 1, 1, 1)): "ac6e41530f28323bee5d98c3aad8d554ebb8e39e53c9fcd3bc45b542c71e5456",
}


def _gram_json_sha256(n, f, lam):
    out = io.StringIO()
    argv = ["--output", "json", "gram", "--n", str(n), "--f", str(f),
            "--lambda", "(%s)" % ",".join(map(str, lam))]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 7))
def test_gram_json_matches_fixture(n):
    cells = [key for key in GRAM_JSON_SHA256 if key[0] == n]
    assert cells
    wrong = [(f, lam) for _n, f, lam in cells
             if _gram_json_sha256(n, f, lam) != GRAM_JSON_SHA256[(n, f, lam)]]
    assert not wrong


@pytest.mark.parametrize("cell", sorted(GRAM_N7_F2_JSON_SHA256), ids=str)
def test_gram_json_n7_f2_matches_fixture(cell):
    assert _gram_json_sha256(*cell) == GRAM_N7_F2_JSON_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(GRAM_N7_F1_JSON_SHA256), ids=str)
def test_gram_json_n7_f1_matches_fixture(cell):
    """The n = 7, f = 1 cells, where an entry of the tower-form walk is a
    Hecke element of S_5 (up to 120 words) and about half the words it
    reads carry a w != 1."""
    assert _gram_json_sha256(*cell) == GRAM_N7_F1_JSON_SHA256[cell]


def test_concurrent_cold_builds_match_fixture():
    """Three threads build every cell with n <= 5 from empty structure-
    constant tables, each in its own order, and get the fixture bytes.
    They call the assembly behind gram_matrix, which keeps no matrix, so
    every thread builds every cell."""
    cells = sorted(key for key in GRAM_JSON_SHA256 if key[0] <= 5)
    got, errors = [], []

    def build(order):
        try:
            for cell in order:
                gram = CM._assemble(CellIndex(*cell))
                text = json.dumps(gram.to_json(), indent=2, sort_keys=True)
                got.append((cell, hashlib.sha256(
                    (text + "\n").encode()).hexdigest()))
        except Exception as err:   # any error fails the test below
            errors.append(repr(err))

    B._WT.clear()
    B._WE.clear()
    threads = [threading.Thread(target=build, args=(order,))
               for order in (cells, cells[::-1], cells[1::2] + cells[::2])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(got) == 3 * len(cells)
    assert all(digest == GRAM_JSON_SHA256[cell] for cell, digest in got)
