"""Golden reports: the sha256 of the JSON document `schedcheck` prints for a
fixed set of runs.

The runs are every fix/fault combination on H,L/2, the H,H/2 combinations
whose searches cancel an IPI for a spent preemption budget, three seeded
walks on the benchmark's walk configuration (H,H,H,H,L,L,L,L/4, 3 waits,
3 preemptions), and the replay of one fault report. A changed step label,
a reordered monitor event or a moved counter changes a digest.

After a deliberate change to the output, print the current digests in the
format of GOLDEN below, and paste them over it, with

    python3 tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from itertools import combinations, product
from pathlib import Path

import pytest

if __name__ == "__main__":  # run from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schedcheck import cli  # noqa: E402

FAULTS = ("enqueue-before-state", "skip-resume-state", "skip-running-check")
# Every H,H/2 combination whose search cancels an IPI for a spent budget.
BUDGET_SPENT_FAULTS = ((), ("enqueue-before-state",), ("skip-running-check",),
                       ("enqueue-before-state", "skip-running-check"))
WALK = ("--tasks", "H,H,H,H,L,L,L,L", "--workers", "4",
        "--max-waits", "3", "--max-preemptions", "3")
REPLAYED = "explore H,L/2 wait=off preempt=on faults=enqueue-before-state"


def _explore(plan: str, fix_wait: str, fix_preempt: str, faults) -> tuple[str, list[str]]:
    run_id = (f"explore {plan}/2 wait={fix_wait} preempt={fix_preempt} "
              f"faults={'+'.join(faults) or 'none'}")
    argv = ["--tasks", plan, "--workers", "2", "--fix-wait", fix_wait,
            "--fix-preempt", fix_preempt, "--max-violations", str(10**9)]
    for fault in faults:
        argv += ["--fault", fault]
    return run_id, argv


def runs() -> dict[str, list[str]]:
    """Run id -> the CLI arguments of the run, without `--out json`."""
    out = dict(
        _explore("H,L", fix_wait, fix_preempt, faults)
        for fix_wait, fix_preempt in product(("on", "off"), repeat=2)
        for n in range(len(FAULTS) + 1)
        for faults in combinations(FAULTS, n)
    )
    out.update(_explore("H,H", "on", "on", faults) for faults in BUDGET_SPENT_FAULTS)
    for seed in (1, 2, 3):
        out[f"walk seed={seed}"] = ["--mode", "walk", "--seed", str(seed), *WALK]
    out[f"replay of {REPLAYED}"] = ["--mode", "replay"]
    return out


def report(argv: list[str]) -> str:
    """What `schedcheck ARGV --out json` prints. A replay run replays the
    report of REPLAYED."""
    if argv[-1] == "replay":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report(runs()[REPLAYED]))
            return report(argv + ["--trace-in", path])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--out", "json"])
    assert code != cli.EXIT_USAGE, argv
    return out.getvalue()


def digest(argv: list[str]) -> str:
    return hashlib.sha256(report(argv).encode()).hexdigest()


GOLDEN = {
    "explore H,L/2 wait=on preempt=on faults=none":
        "a30f8fabe37c8cc5fa7fbe1c18bfa780f826b4d77963d49b1aa9c3dbf2a6343e",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state":
        "89b6569d74133864e7d6bba2af26831767d7b6793e930c14347dd520968d8350",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state":
        "620425405a0d93c8a77131d0eeb486e731eb27e814954b6d9944a9bfd27858cc",
    "explore H,L/2 wait=on preempt=on faults=skip-running-check":
        "691b747f63dad576f4d6cc9d613242512e5007c7bd610935232741245dd9e712",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state":
        "ec909392ca4689124636191502a693015eeb5f8ef9353d5ab9803161682deca0",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "8ecdecbf22a3d78483a09ff7d8a1e6860fd73058f682558459ef25b90ee4d0d1",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state+skip-running-check":
        "1550384d2fa292e4c6e00ac3815c7a1386ec35d7d373b1cc8b8b59b3fbc05e26",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "c25e79ce1e7ba6a77b917656d3fd7d23801036630342e7613ffa63b0e0099656",
    "explore H,L/2 wait=on preempt=off faults=none":
        "866420db9f394091860d4d16df30f9af68a88bab5547b96b94aa4b05fd9a57e4",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state":
        "662fd981d083af4fa3bb4c20071bf17699d01cf97193938d6a2c059bdb36e6de",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state":
        "bf5e3d9174329a093e6baa1ae35f5ffb009aa70cabed714e2908cde470f238df",
    "explore H,L/2 wait=on preempt=off faults=skip-running-check":
        "5d8402cd895d12177d179708ce1a7024b6167ec7c5dd54bb50f96e0d2b03c8e0",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state":
        "123eb71d5052d187410dacd517bad923b621bf2544f0fa91571676c0f2ff487c",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-running-check":
        "4f196adbbdbf8fb8f9bf4aa7d5f0a42968408f7be978964627a6b2118a5ddc8c",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state+skip-running-check":
        "2b27e8c0f39a1c84380f08f091d5e1da32eac0fa065b0609731719eae8578e1e",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "2739db4a0547d523a7a6e5e978bebf46f1010655bce5d31e54380158f30ac952",
    "explore H,L/2 wait=off preempt=on faults=none":
        "05c6c7d0f5f984e8e7435e4b6ff63030ffef7d4dd669a5cb990b531c545894a3",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state":
        "7ec1dea4b5b753978a19333ccebe48c5cea4eae61c6caf0b9c0fc10a2c357cf9",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state":
        "04713708cfc442e865d7b3376dae967c7909d7ee33903a5b8410fb82717c7f3d",
    "explore H,L/2 wait=off preempt=on faults=skip-running-check":
        "c36b50fae92bde9fee7ceba9601f726b1492f2f3f5aef919bbe82945228eb3af",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state":
        "ce45e4f1f86dc4a0842831ed04f5bfc74093aa5e70ac4d5c005dc0e9cdf16007",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-running-check":
        "ccaec7a7cb4cd35dfc280216dcd921d5b0b861fd1b49afab3baeea9a7bd4efe1",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state+skip-running-check":
        "dd279e2ee4cc37b5ae887952d9893d52ee78e24bd2d0dd41c3ec0197c0654e36",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "ddf805e7577c5580bbe8410a42e7ef7391e1c59d3a85697d3dc8372cd23d1c31",
    "explore H,L/2 wait=off preempt=off faults=none":
        "0f44f87e4bb86af51542d9983179c43a6d58e197a5b3e8bc88e5975e26361d95",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state":
        "30c20e49c02851137bb73eade4e927093de8f3ece9118ae50e97e9454817a2e6",
    "explore H,L/2 wait=off preempt=off faults=skip-resume-state":
        "1aab92ed32973798c28fa8abd30db8bc643701e25b3185602d59a01acad862bb",
    "explore H,L/2 wait=off preempt=off faults=skip-running-check":
        "a31ebfba9865fc33ea361708fc7dca301cc2858084f7ddd8b9ed51b2d5a105d7",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-resume-state":
        "1ef015ed0cc7ae89d2779d60bab3e826616f256719789654185375aeb98f4c56",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-running-check":
        "2dc1f63dc8634d99654090ba98cf2380efdedba0c8260c2e2e4adcc310aeeef4",
    "explore H,L/2 wait=off preempt=off faults=skip-resume-state+skip-running-check":
        "599607b6df0bfd9079b51ac71f56043aed77a64c43359f1fd281fbdca5bfe645",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "7a34507d12b50188180c38b5010650a1b284186c1f6f5b1b150a063e879d2e10",
    "explore H,H/2 wait=on preempt=on faults=none":
        "0c62721c10ffaafd06db8177322b37a418a636c99e4a088fff0a30e9e6779e52",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state":
        "ce8d803b3bb897adca871568e7cb14388b4a64722aebe2733fc587a9b53a5b55",
    "explore H,H/2 wait=on preempt=on faults=skip-running-check":
        "c539abd5ac63326e79ff3d3b0277f8316429e715aece3ba9efd4a7516b269103",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "10638248bed2bec7db9c3488be6b533b313205d46f247e4ba58b031ffbc27d9d",
    "walk seed=1":
        "cb23a102167b41997f6d7c866841b6c418a564ba16b4cd434ac7718fbd0cd4fb",
    "walk seed=2":
        "a88f0c6ea9fd61a3f740d5dabcc324f946674682fbe2c082611f411c56dd4806",
    "walk seed=3":
        "67127e011d862714eccbb4172c12d1b5bb5f9ddd8b6c7f84633e52a6b6bfae3a",
    "replay of explore H,L/2 wait=off preempt=on faults=enqueue-before-state":
        "488cdecced4e9da88228948b978d36af885385391840a6d7d9f2d019f0c8557b",
}


def test_every_run_is_pinned():
    assert sorted(GOLDEN) == sorted(runs())


@pytest.mark.parametrize("run_id", sorted(runs()))
def test_report_bytes_are_unchanged(run_id):
    assert digest(runs()[run_id]) == GOLDEN[run_id]


if __name__ == "__main__":
    print("GOLDEN = {")
    for run_id, argv in runs().items():
        print(f'    "{run_id}":\n        "{digest(argv)}",')
    print("}")
