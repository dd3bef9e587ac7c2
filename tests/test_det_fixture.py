"""Every cell with 1 <= n <= 5 against the sha256 of its
`gram --output json --subst r=... --det` stdout at r = q^-1 and r = -q,
recorded while determinants were still computed by fraction-free
elimination over the Laurent ring (27 cells: 1, 3, 4, 8 and 11 per
degree), and four 45-dimensional n = 6 determinants that vanish."""

import contextlib
import hashlib
import io

import pytest

from bmwgram import exactla
from bmwgram.cli import main

DET_JSON_SHA256 = {
    (1, 0, (1,), "q^-1"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (1, 0, (1,), "-q"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (2, 0, (2,), "q^-1"): "b29f671868b5fba6ce072dbb45160e104bebe4c85358d8d76b43dfcce86f808a",
    (2, 0, (2,), "-q"): "b29f671868b5fba6ce072dbb45160e104bebe4c85358d8d76b43dfcce86f808a",
    (2, 0, (1, 1), "q^-1"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (2, 0, (1, 1), "-q"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (2, 1, (), "q^-1"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (2, 1, (), "-q"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (3, 0, (3,), "q^-1"): "7b10c6266299b63350d588f575250d368720f07be69a45c2557c85f8e371c9ac",
    (3, 0, (3,), "-q"): "7b10c6266299b63350d588f575250d368720f07be69a45c2557c85f8e371c9ac",
    (3, 0, (2, 1), "q^-1"): "d9e8ef3247d4f322b7034132920716cb609450599f03703db964d34f78b5fe91",
    (3, 0, (2, 1), "-q"): "d9e8ef3247d4f322b7034132920716cb609450599f03703db964d34f78b5fe91",
    (3, 0, (1, 1, 1), "q^-1"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (3, 0, (1, 1, 1), "-q"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (3, 1, (1,), "q^-1"): "ab78658a3b315a45e71d03d73414e2f9fa4f567174b94a04322ee88809f6827f",
    (3, 1, (1,), "-q"): "ab78658a3b315a45e71d03d73414e2f9fa4f567174b94a04322ee88809f6827f",
    (4, 0, (4,), "q^-1"): "446bed7dede6eeaa22180464f2472280f8da7666714d79a4272859ad7ef98bdf",
    (4, 0, (4,), "-q"): "446bed7dede6eeaa22180464f2472280f8da7666714d79a4272859ad7ef98bdf",
    (4, 0, (3, 1), "q^-1"): "1b0ff3fc45069d5d08ae3b8ea4b170ce691d668cab83be917d978e3d241d3371",
    (4, 0, (3, 1), "-q"): "1b0ff3fc45069d5d08ae3b8ea4b170ce691d668cab83be917d978e3d241d3371",
    (4, 0, (2, 2), "q^-1"): "5cb5d32a67caf0178ffafd3fc3c25a5ef28f4904662f9f639e95633bfafe592f",
    (4, 0, (2, 2), "-q"): "5cb5d32a67caf0178ffafd3fc3c25a5ef28f4904662f9f639e95633bfafe592f",
    (4, 0, (2, 1, 1), "q^-1"): "c720ba5b0a5437ea45689fdcbfe32e70ca6b945f654706627059897f995dae29",
    (4, 0, (2, 1, 1), "-q"): "c720ba5b0a5437ea45689fdcbfe32e70ca6b945f654706627059897f995dae29",
    (4, 0, (1, 1, 1, 1), "q^-1"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (4, 0, (1, 1, 1, 1), "-q"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (4, 1, (2,), "q^-1"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (4, 1, (2,), "-q"): "a710e18ebf23df91c2235291e99aa8377387d400a75da7bdbebeb8a15b0ae793",
    (4, 1, (1, 1), "q^-1"): "e47dca761c4a13ec029413aa9624deb838e4d58cb841c2ed5ca2491d88e75829",
    (4, 1, (1, 1), "-q"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (4, 2, (), "q^-1"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (4, 2, (), "-q"): "3216a69d01b9c9615f11c5a9b46a5ddb571baf39aacb945d84d521f353475973",
    (5, 0, (5,), "q^-1"): "a80d9d9e985768d449a303ecac4c72b80884f7b5cb59abae68435be627e9019f",
    (5, 0, (5,), "-q"): "a80d9d9e985768d449a303ecac4c72b80884f7b5cb59abae68435be627e9019f",
    (5, 0, (4, 1), "q^-1"): "7e46042039b732811862719b1f4927707add5008429ebd2dbdc9569b9f92efe7",
    (5, 0, (4, 1), "-q"): "7e46042039b732811862719b1f4927707add5008429ebd2dbdc9569b9f92efe7",
    (5, 0, (3, 2), "q^-1"): "70c746f4744fb1a91e2c99675ad33d98aeb8eb0211cbacc8e0eb9bf45e908a2b",
    (5, 0, (3, 2), "-q"): "70c746f4744fb1a91e2c99675ad33d98aeb8eb0211cbacc8e0eb9bf45e908a2b",
    (5, 0, (3, 1, 1), "q^-1"): "1da84b0d404af09dbeb2d5c9a568ce0b3e116c4e49236b0e3d4010d9528b4b57",
    (5, 0, (3, 1, 1), "-q"): "1da84b0d404af09dbeb2d5c9a568ce0b3e116c4e49236b0e3d4010d9528b4b57",
    (5, 0, (2, 2, 1), "q^-1"): "38edf4eaec745f9878171bc3c6477a96f8fc7500c06fffd681bb7ad995711b36",
    (5, 0, (2, 2, 1), "-q"): "38edf4eaec745f9878171bc3c6477a96f8fc7500c06fffd681bb7ad995711b36",
    (5, 0, (2, 1, 1, 1), "q^-1"): "d07678de6e32a30860d0649a841bd1a97ae343fb70c362a8bef9fc84baf48eaa",
    (5, 0, (2, 1, 1, 1), "-q"): "d07678de6e32a30860d0649a841bd1a97ae343fb70c362a8bef9fc84baf48eaa",
    (5, 0, (1, 1, 1, 1, 1), "q^-1"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (5, 0, (1, 1, 1, 1, 1), "-q"): "425506633c875af328e3db74ddb46e8a9284cc735321d70511395c9bd62f530b",
    (5, 1, (3,), "q^-1"): "bdb888d65fe5bc5d132b3f8460bc7091554fba6a821d582f27bb1387948aec34",
    (5, 1, (3,), "-q"): "cc177c14d89c41fa762ee2ea1072eb66929dac58f1a275df14c1bf01ffafcc31",
    (5, 1, (2, 1), "q^-1"): "2fd6313f5fe43a2db7cccf66558cc7c87bec735495fe2402b9e1879a0e9aebb7",
    (5, 1, (2, 1), "-q"): "2fd6313f5fe43a2db7cccf66558cc7c87bec735495fe2402b9e1879a0e9aebb7",
    (5, 1, (1, 1, 1), "q^-1"): "c9338be4331296eb0b1e00bc9b5d4d5e7247b5dc4fc59b0cfb4e9f4837a20c2e",
    (5, 1, (1, 1, 1), "-q"): "fc24d3ec0dbd520e49620e59d92b917356d5e562646f766edfbd8f21745d327b",
    (5, 2, (1,), "q^-1"): "f1a20a762f62b09f826bbd9f48cdb56c216763ac514bf93756c479da0b659d12",
    (5, 2, (1,), "-q"): "f1a20a762f62b09f826bbd9f48cdb56c216763ac514bf93756c479da0b659d12",
}


@pytest.mark.parametrize("n", range(1, 6))
def test_det_json_matches_fixture(n):
    keys = [key for key in DET_JSON_SHA256 if key[0] == n]
    assert keys
    wrong = []
    for _n, f, lam, r in keys:
        out = io.StringIO()
        argv = ["--output", "json", "gram", "--n", str(n), "--f", str(f),
                "--lambda", "(%s)" % ",".join(map(str, lam)),
                "--subst", "r=" + r, "--det"]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if digest != DET_JSON_SHA256[(n, f, lam, r)]:
            wrong.append((f, lam, r))
    assert not wrong


@pytest.mark.parametrize("f, lam, r", [(2, "(1,1)", "-q"), (2, "(2)", "q^-1"),
                                      (1, "(3,1)", "q^-1"),
                                      (1, "(2,1,1)", "-q")])
def test_n6_zero_determinants(f, lam, r):
    """Rank 15 (f = 2) or 30 (f = 1) of 45: a kernel vector certifies the
    zero."""
    argv = ["gram", "--n", "6", "--f", str(f), "--lambda", lam,
            "--subst", "r=" + r, "--det"]
    for fmt, want in (([], "det = 0\n"), (["--output", "json"],
                                          '{\n  "det": "0"\n}\n')):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(fmt + argv) == 0
        assert out.getvalue() == want


def test_zero_certified_on_pivot_prefix(monkeypatch):
    """The kernel vector of (6,2,(1,1)) at r = -q is solved for on the 7
    pivot columns left of the first free column: one 7 x 8 elimination,
    where all 15 pivot columns would make it 15 x 16, and no Bareiss
    after it."""
    systems = []
    bareiss = exactla._bareiss

    def recorded(m, ncols, *rest):
        systems.append((len(m), ncols))
        return bareiss(m, ncols, *rest)

    monkeypatch.setattr(exactla, "_bareiss", recorded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gram", "--n", "6", "--f", "2", "--lambda", "(1,1)",
                     "--subst", "r=-q", "--det"]) == 0
    assert out.getvalue() == "det = 0\n"
    assert systems == [(7, 8)]
