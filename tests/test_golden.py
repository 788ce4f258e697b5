"""Golden bytes: sha256 digests of reports and sample output, pinned.

A refactor that must not change how randomness is consumed proves itself
by leaving every digest here unchanged.  These are byte checks only, never
gates: at seed 42 and this reduced scale the ergodic-decomposition report
misses a statistical gate, and that report's bytes are pinned all the same.
A change that does consume randomness differently re-pins the digests and
says so in CHANGES.md.
"""

import hashlib
import os
from itertools import combinations_with_replacement

import pytest

from padic_hua import cli

VERIFY_ALL_DIGESTS = {
    "00-oracle-equality.csv": "035ea12d3b88ff400e28e3946acea10bdb2106bc74fd3083039697a48d7852af",
    "00-oracle-equality.json": "52c13c8a27bb870641d9a5156b102ee73f88765c83f11ed7fcb7cc0189625b53",
    "01-oracle-equality.csv": "4ca737062490a921cfb3dda28bfce5d547961fdbeeeb5effe98d457e6a3c4216",
    "01-oracle-equality.json": "53011bff44edae18fa094e0810042b6a958be557d9e06eda04cc1f42b279d3ce",
    "02-oracle-equality.csv": "79266d1c0fafa2c660bb53f69f090dd5a1bfa334f33e5c87a5ac8f96fd790867",
    "02-oracle-equality.json": "a811767c0deb5fca2981d1a72bd1b0dfea35fe72e4d03f004fd495309592a858",
    "03-oracle-equality.csv": "57d7521450c174f19a2fef9835e2d0d025a69d0568f8ee2ab3efc1ad39399d0f",
    "03-oracle-equality.json": "913ee15c1f781e0de813ee2fe91fe7511ff699d5a3bfbb7779eb54815c4c69a6",
    "04-identities.json": "f2707caaec62ee34671c7175e4dcd2d372ae0024c8e4903d23426ade0d8cfc40",
    "05-chain-checks.csv": "4dbfb45b25598afe6164ea66b717715c8b31701e1829b1a76ba291b1fdab1d23",
    "05-chain-checks.json": "b655a63e2b0a8bef64775e2c6bbe0be588111615ec2e57a6b9d7c122ec658032",
    "06-corners-consistency.csv": "bdb452e65050edcf1514b7282de7b9b9e9be568b62caf1be5b0f1a0f82870d51",
    "06-corners-consistency.json": "bea5f79d79fcdc170d0171be7c78d286f37be7248e2c2200b9794f236308523c",
    "07-corners-consistency.csv": "591b3b3f3cf6dff01e617fbaf3b0e4c28eb7caf466c6054c8059141d5605b5a0",
    "07-corners-consistency.json": "19d71df1489b877dc73dbf9d195b1cf9760a344469e98e799773abc1ff1f5eac",
    "08-matrix-roundtrip.csv": "a12e20379c62f862481c75ef31538c860f810fab92d0f4385d23f02827e21cec",
    "08-matrix-roundtrip.json": "34abacb86d1b504745cecae4d43f5e7c39a56210f710bae59ba864b496d2fb80",
    "09-ergodic-convergence.csv": "4ca833aee70e2d556adaa4ff8f2c033ee06f1abea2f75c6477f0b8b270cdc868",
    "09-ergodic-convergence.json": "f17818182636e6c4d56f4058291828c5965ddea9b718169f715c93522540adfe",
    "10-ergodic-convergence.csv": "34937bf3c616b836d44b59e981f1c3b21009467be076a62ade947b57eb589f64",
    "10-ergodic-convergence.json": "201836ff02ba3389e26831c26aae81fa7bebfe7f0bd1d575331e50d1a8fa4d80",
    "11-ergodic-decomposition.csv": "1e825131f275ba7882d38e9e7f04614c8b24616e928f773d044d343f62f7fea2",
    "11-ergodic-decomposition.json": "433c48bce914514d8506389c81ac420a3e931e73a68a509f607d3c7157fe2c56",
    "12-nu-limit.csv": "33327ac2e9f3d08f26c3b75eebf0828ce5e955cc4c17436c020adf494ce2533c",
    "12-nu-limit.json": "c059cd34e720c5f736e0a528f524ce951b6a81792ba3abd4419bbbad9bc6eab8",
    "13-nu-limit.csv": "c7bbc5dee357f25200f85b41a97efd225b7942411c2161cc292b114f0312a7c7",
    "13-nu-limit.json": "18f0ff4481c26aac9484154430ea2526c26fe5348772acbbf14eb2dc9a427d47",
    "summary.json": "77f4d61973750872b3bc4c785fac35e184759b49381805bf92f549678706dab4",
}

# The second command's 4-digit window with no guard prints O(2^w) entries
# and error records, so both of those formats are pinned too.
SAMPLE_DIGESTS = [
    (("hua", "--N", "3", "--count", "30"),
     "3ea0c55e50b49bbac2f69d2d1ab1572411d9db6cc96df301c6ad4486175c9f16"),
    (("hua", "--N", "2", "--E", "4", "--guard", "0", "--count", "30"),
     "3c47446abaef31fc64c48a10193785538f64b56a9b7fe055622b7f8fbdf4966c"),
    (("ergodic", "--k", "3,1", "--N", "4", "--count", "10"),
     "dc6cb4788a415358f782da907f0da012c5a121cf95dd9294f939264b40315e9e"),
    (("nu", "--count", "20"),
     "6cdf64e22364c3f2c5263dee7d538a5ac530730bbfdbd50f15473a382c7146db"),
]

# `law` stdout for every x2 of the kernel rows x1 in {0, 7, 40} and every x
# of the entrance laws at N in {1, 12, 30}, one digest per law and (p, t).
LAW_SIZES = {"kernel": (0, 7, 40), "pi_N": (1, 12, 30),
             "tilde_pi_N": (1, 12, 30)}
LAW_DIGESTS = [
    ("kernel", "2", "1",
     "cdf31502cd74606792393633f7d21d0b0f30cb88514f49b613b58527e8ce4755"),
    ("kernel", "5", "3/2",
     "da8bfe03938400d97d128487e7a790e89a6d9331296b815a1476b3edb4259f40"),
    ("pi_N", "2", "1",
     "25abe5b6a6f0b1678011e58917a1131091ce34aaab14c84252b3a84a72ba9be7"),
    ("pi_N", "5", "3/2",
     "7fcdf0786afe9fa1719af3a0fb55de1e0bb336f2967ab056c84809178f1f82c3"),
    ("tilde_pi_N", "2", "1",
     "b2627d64e7fd9ec96b9cff9fa11458874f024648eab8fc4111159e666dad5b3d"),
    ("tilde_pi_N", "5", "3/2",
     "2d228f843418adc7f64460660f532339a232d02a5fca7ebaec4210070e8372c0"),
]


# `law` stdout of the laws that read t = u/v by its numerator and
# denominator, over every p in T_LAW_PRIMES and t in T_LAW_TS (nu_k1_below
# only at t <= 1), one digest per law.  Singular tuples have 1 to 3
# entries in [-2, 2]; partitions fit the 3 x 3 box.
T_LAW_PRIMES = ("2", "5")
T_LAW_TS = ("1", "1/2", "3/2")
_TUPLES = [",".join(map(str, k)) for n in (1, 2, 3)
           for k in combinations_with_replacement(range(2, -3, -1), n)]
_PARTITIONS = [",".join(str(v) for v in k if v)
               for k in combinations_with_replacement(range(3, -1, -1), 3)]
T_LAW_ARGS = {
    "mN": [(f"--k={k}",) for k in _TUPLES],
    "hua_density": [(f"--k={k}",) for k in _TUPLES],
    "nu": [(f"--k={k}",) for k in _PARTITIONS],
    "nu_chain": [(f"--k={k}",) for k in _PARTITIONS],
    "pi_s": [(f"--x={x}",) for x in range(-1, 6)],
    "nu_k1_below": [(f"--x={x}",) for x in (1, 2, 3)],
}
T_LAW_DIGESTS = {
    "mN": "219dcf3f2db5563872845bd9c6d649f1fbff3585fd2c74931be9abd66064f08f",
    "hua_density":
        "122069de3dc576f46b39d3f97ca56510d5dfd2acd81f37e09f6e07c30b1137f7",
    "nu": "f7aee19e32a5b44c4691337971518d44f9c24e02f32b3867b1cca3f2f80f0a90",
    "nu_chain":
        "c384556d470401dca57b024e9b230f82786ac31efec3feb9a42dcf919f267ed4",
    "pi_s": "7ebd9dbcf1fd29f8d1a444cf605c2f225db45cb645257b795142cc488c3946d2",
    "nu_k1_below":
        "bfa25b7bcf87bf430a8dce11f1682f84ca716e6bebf7ff42379ce7718bd2d43f",
}


# `law` stdout of the laws no digest above covers, over every argv of their
# grid, one digest per law.  Values that start with "-" are given as their
# own word, and tolerances as decimal, scientific and num/den text, since
# the printed params echo that text.
OTHER_LAW_ARGS = {
    "pochhammer": [("--a", a, "--q", q, "--n", n)
                   for a in ("-1/2", "1/3", "2")
                   for q in ("1/2", "-1/3", "3/5") for n in ("0", "1", "4")],
    "pochhammer_inf": [("--a", a, "--q", q, "--eps", eps)
                       for a in ("0", "1/3", "1/2") for q in ("1/2", "2/7")
                       for eps in ("1e-6", "0.001", "1/100")],
    "vol": [("--p", p, "--k", k) for p in T_LAW_PRIMES for k in _TUPLES],
    "haar_orbit": [("--p", p, "--k", k)
                   for p in T_LAW_PRIMES for k in _TUPLES],
    "rr_cdf": [("--p", p, "--s", s, "--x", x, "--eps", eps)
               for p in T_LAW_PRIMES for s in ("0", "1")
               for x in ("2", "3", "5") for eps in ("1e-9", "0.01", "1/1000")],
}
OTHER_LAW_DIGESTS = {
    "pochhammer":
        "d8fd7d075f63350e1b9d0d4834214da56515d21dcfb51872abd7aaeefa45e2d9",
    "pochhammer_inf":
        "c81950f66fae3675c3821cb640e0c55c2b2629c9b127e91e17edddbf8d7310cb",
    "vol": "1fd3677ae83c9b50b8aa47523daff0f614d4979980ad365b2e759c2174f799fe",
    "haar_orbit":
        "1cddcf18accf32effba1ee9fbc97d30d3081d0496c807b9592bf3f2ee159e397",
    "rr_cdf":
        "9722af68c24178173e9739d504872984a525e7024875c8625ccb11d4d517c8a7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_verify_all_report_bytes(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    cli.main(["verify", "all", "--seed", "42", "--scale", "0.002",
              "--out-dir", out_dir])
    capsys.readouterr()
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = sha256(fh.read())
    assert digests == VERIFY_ALL_DIGESTS


@pytest.mark.parametrize("argv,digest", SAMPLE_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in SAMPLE_DIGESTS])
def test_sample_stdout_bytes(capsys, argv, digest):
    assert cli.main(["sample", *argv, "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("name,p,t,digest", LAW_DIGESTS,
                         ids=[f"{n} p={p} t={t}" for n, p, t, _ in LAW_DIGESTS])
def test_law_stdout_bytes(capsys, name, p, t, digest):
    out = []
    for size in LAW_SIZES[name]:
        for x in range(size + 1):
            where = (("--x1", str(size), "--x2", str(x)) if name == "kernel"
                     else ("--N", str(size), "--x", str(x)))
            assert cli.main(["law", name, "--p", p, "--t", t, *where]) == 0
            out.append(capsys.readouterr().out)
    assert sha256("".join(out).encode()) == digest


@pytest.mark.parametrize("name", sorted(T_LAW_DIGESTS))
def test_t_law_stdout_bytes(capsys, name):
    out = []
    for p in T_LAW_PRIMES:
        for t in T_LAW_TS:
            if name == "nu_k1_below" and t == "3/2":
                continue
            for where in T_LAW_ARGS[name]:
                assert cli.main(["law", name, "--p", p, "--t", t, *where]) == 0
                out.append(capsys.readouterr().out)
    assert sha256("".join(out).encode()) == T_LAW_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(OTHER_LAW_DIGESTS))
def test_other_law_stdout_bytes(capsys, name):
    out = []
    for where in OTHER_LAW_ARGS[name]:
        assert cli.main(["law", name, *where]) == 0
        out.append(capsys.readouterr().out)
    assert sha256("".join(out).encode()) == OTHER_LAW_DIGESTS[name]
