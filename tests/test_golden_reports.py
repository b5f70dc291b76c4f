"""Golden reports: the sha256 of the JSON document `schedcheck` prints for a
fixed set of runs.

The runs are every fix/fault combination on H,L/2, the H,H/2 combinations
whose searches cancel an IPI for a spent preemption budget, two searches
that a limit (max-states, max-depth) cuts short after they found traces,
three seeded walks on the benchmark's walk configuration
(H,H,H,H,L,L,L,L/4, 3 waits, 3 preemptions), and the replay of one fault
report. A changed step label,
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
# Searches that a limit cuts short, each still with traces.
CUT_SEARCHES = (("H,L", "off", "on", (), ("max-states", 200)),
                ("H,H", "on", "off", ("enqueue-before-state",), ("max-depth", 6)))
REPLAYED = "explore H,L/2 wait=off preempt=on faults=enqueue-before-state"


def _explore(
    plan: str, fix_wait: str, fix_preempt: str, faults, limit: tuple[str, int] | None = None,
) -> tuple[str, list[str]]:
    run_id = (f"explore {plan}/2 wait={fix_wait} preempt={fix_preempt} "
              f"faults={'+'.join(faults) or 'none'}")
    argv = ["--tasks", plan, "--workers", "2", "--fix-wait", fix_wait,
            "--fix-preempt", fix_preempt, "--max-violations", str(10**9)]
    for fault in faults:
        argv += ["--fault", fault]
    if limit is not None:
        run_id += f" {limit[0]}={limit[1]}"
        argv += [f"--{limit[0]}", str(limit[1])]
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
    out.update(_explore(*cut) for cut in CUT_SEARCHES)
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
        "d0190db0d3a30effad8271ea85fca763cf8d6f423b9b1d5a1289adae69b12c3d",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state":
        "52a2efd60a07171605208dceb96c72a932362992527efdf37e2f7a9ee690ab98",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state":
        "7caaa98a969f57ec45ff034c24c7c60f9055c0cfe4e345b7e2dae339098464f0",
    "explore H,L/2 wait=on preempt=on faults=skip-running-check":
        "220748a28aa9595f1174559f83c9b3c9773dd45cd17afc4f2a4cc5a9e45bec9b",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state":
        "eeaa30927104340aba8935f5552a68ef2c9b9e1f960361de1e5a32b2ac9f8bf2",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "70c1b3b6c37d92c2c597d9b523d99e564d82401cf7b2a64453771c7315991f64",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state+skip-running-check":
        "8d0533a24c3da238db77c48a6f29f9f120d95e0bcb4ddd0fbc83a31ce4e25625",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "cab5be4edc72eeff15a4683490a46edb5ed6fb54c737bdc83ebd1b2582ad3543",
    "explore H,L/2 wait=on preempt=off faults=none":
        "c88f51dc7f3fa047649f7d6feae85d0576761e5691f2c4a62db5021d2998e1c7",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state":
        "7ffb80754bb01acc34198afcfa82cbc3ef8dbd7b7feebf5c8da66d46ea0a6210",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state":
        "bf5e3d9174329a093e6baa1ae35f5ffb009aa70cabed714e2908cde470f238df",
    "explore H,L/2 wait=on preempt=off faults=skip-running-check":
        "624a4fddd4ad1f55e9ba3bc4e30ffe753419f395cdaef95b642710b255834429",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state":
        "123eb71d5052d187410dacd517bad923b621bf2544f0fa91571676c0f2ff487c",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-running-check":
        "71f9fce3028f70c13e011ad5f4cae89a43962fa212fb9264dc998242b3cad0a6",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state+skip-running-check":
        "2b27e8c0f39a1c84380f08f091d5e1da32eac0fa065b0609731719eae8578e1e",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "2739db4a0547d523a7a6e5e978bebf46f1010655bce5d31e54380158f30ac952",
    "explore H,L/2 wait=off preempt=on faults=none":
        "2016731c81c7cafcd3383a4cf24aee83554916070509fa765eedb561c5860af9",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state":
        "fb22a50c3966d2e35d69771c847a8de8bf44284e4627da43236d0ebdad41c6fa",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state":
        "a19d9b4469ffb6ecefb2cc15ecc7a5e5429dfc96faae5388e382aa9acf65d7e6",
    "explore H,L/2 wait=off preempt=on faults=skip-running-check":
        "1b0eaa34f112eb1f275bde4520e9bbe8efdcdc8ae3faa454aba242da994416e4",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state":
        "92482241f3d4d60fb023264fc60e339b565e4869b6fc908edf55bee11858d0f2",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-running-check":
        "65d8a101a332b4bc2f172e098af320cad5c2c5aa06b873eb47a4f70ab16d9a32",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state+skip-running-check":
        "0f903b37eacaee88a0de4bb56a18996ee98dbc6f6af4939fac0d77b1739978c5",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "258ff6054448cd30100ef8b74c68ca7ec9dfbecbbe9455e2a37aab9f7e70bf9b",
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
        "ae731a08812c5df57c16a0dabec823077dcef85724a73cefca3f64d0a5794894",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state":
        "acaacf40205bfedd4501c2b765e196bfb842cbf4ebfc228346a47e5d2744bd33",
    "explore H,H/2 wait=on preempt=on faults=skip-running-check":
        "d09c11c3f86c7315fb540ae6d0c6b4537950438d54cd8eba8d47cfad697b731c",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "c838e314977e7c988a6c5625e6a499ed8c24df24d31703cc8518107c567b29d0",
    "explore H,L/2 wait=off preempt=on faults=none max-states=200":
        "6b107105adc44d7b48988dc935afea8576c7eafb1972dae588a51771a2448424",
    "explore H,H/2 wait=on preempt=off faults=enqueue-before-state max-depth=6":
        "a74bd9284ae96e60d0201ae07f43e3988760664b516dabb24c2464fa815c1150",
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
