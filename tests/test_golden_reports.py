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
        "3c9c6dc6a9213c151b79741b6ed073f5f7b6dfc17eca479dcde574cef2abc529",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state":
        "feea90d7d13b78e8f3c323ef83be9d0f4e02628725a11ba3bf8a53ca58c6e2d7",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state":
        "a17021576a0ebe773f01bd8977e5f5a257ea24adac40e818617a12de428c2aa1",
    "explore H,L/2 wait=on preempt=on faults=skip-running-check":
        "c9ba739a8ff26823e6465b35b96fdaa03106e5ea129bbe1a48eda111273531f1",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state":
        "f45e99b14e072b0b0a524b56772b6ec251d0722c3c3a3743e94af6b808ab7494",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "86e211116b1b3fefef35e64b675139887141d657ecc7e2e8438ad15eb6b293f6",
    "explore H,L/2 wait=on preempt=on faults=skip-resume-state+skip-running-check":
        "b158b14310f37ca4b7e6c3b1121f16b7673a56bcf091d69d7a525a8cfb7d0a31",
    "explore H,L/2 wait=on preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "878c99abff286cde78fa8f50335317c60463b08bd30bb480541509fff8a9e27e",
    "explore H,L/2 wait=on preempt=off faults=none":
        "4a52cf128fafd7631602f70ffb4cd1c43bd0df99f6aad7d1a7f6295f0114f3ef",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state":
        "cc8c41847b33e8d4ef1abead6d1946960673e14f1f2cd4c1b3f848fa0eac441c",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state":
        "23bc876c903ac79e03dbbdef0346d43c544b0d90b08da8e1cb4b71b8008adb31",
    "explore H,L/2 wait=on preempt=off faults=skip-running-check":
        "640110ec22c3425e9ad757a9d21ca9f8c3c5be49280a07b29be4301e3acf7b5e",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state":
        "282c1e40bccc0147aa1222bde66c0c8f6b846ac4be2ce9539e3ba975ac7f8866",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-running-check":
        "9bdd8d2930a3e0f80939ee64a37a63bc8a5de62da4171aeef8f28b09d53a485d",
    "explore H,L/2 wait=on preempt=off faults=skip-resume-state+skip-running-check":
        "77e1f0b0afece55335bc38465ec82571f821fe047d8552c906fc4ccc9b63d5b7",
    "explore H,L/2 wait=on preempt=off faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "054302a9604fd710cb5c28fa89af43c46984e64aec5f67e83343d3c97680e19a",
    "explore H,L/2 wait=off preempt=on faults=none":
        "2e97094dcc6a1c187fb5124434673749537eb114b1fca9b41566c90dcbf03834",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state":
        "4e0d6942e260a3b3ece1e49f6bcc59cdd44426bfdac50766940afa6828e45e01",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state":
        "65c3b7cdf89422e6321988a4252d482f5ba21f118a1b1b803a1406cb4510e0a3",
    "explore H,L/2 wait=off preempt=on faults=skip-running-check":
        "e54fac6a1181076441d5d133edaa460d067d9ea7c37061ef0025dec22f5b7d3e",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state":
        "b4705d380b0772ec71a6ceba560ffceb6adebc89a98ce0f5e5bdfd348f82ec97",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-running-check":
        "62c1be1e16035a929c0ca62e4473578aaaf5ea4bba6da94c991fa9be7b47b7d5",
    "explore H,L/2 wait=off preempt=on faults=skip-resume-state+skip-running-check":
        "9ff49979f45f29771c098658b631a8927ada02b9f92c24e0509786acbfa0c214",
    "explore H,L/2 wait=off preempt=on faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "ddae37e80ddc1b581842f8d0099d339e17c5a01d6b117c5f98087bc8b9c98553",
    "explore H,L/2 wait=off preempt=off faults=none":
        "6ca7d3e5383b1c8b2a173efbfb44274c63e3b7238956bd343d0cd10df5449916",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state":
        "848d7d2b164267e60ee00a169634e65acb361d7257705fc968d380a737c0fe2f",
    "explore H,L/2 wait=off preempt=off faults=skip-resume-state":
        "9dfd883768202056f7e858c3d037a22ab44a70df8340a0fa451990c3973297b9",
    "explore H,L/2 wait=off preempt=off faults=skip-running-check":
        "0e38f2e2eaa47e6b087eee5964fd8acd2c877b407f22fe731ce1c08a325aaf6c",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-resume-state":
        "9dc5570c7d3dc401e26063d6300026aab77e1cb1f0cdd5a59da62595e1feae4a",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-running-check":
        "07d406a9bee82e161c9ce1a722f376fdbcc5870a90dab77f5631395f980adeca",
    "explore H,L/2 wait=off preempt=off faults=skip-resume-state+skip-running-check":
        "64166bd1ea7928577f04bff79b671b3596d2c4514488445a1a91c6c956ce1f9f",
    "explore H,L/2 wait=off preempt=off faults=enqueue-before-state+skip-resume-state+skip-running-check":
        "af877c77d08bd6462e9d86f3ab3a7946a3bfe791db9130dc082088b26e638e5c",
    "explore H,H/2 wait=on preempt=on faults=none":
        "5adf5da52dd27afa4ec732e7411f374092b4336263af329e1271a1329d3ed0e1",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state":
        "44d1e58418297ae0273e12974d42d918d3f2f1a5ef8d0c1217ecff0f3ec1ea1a",
    "explore H,H/2 wait=on preempt=on faults=skip-running-check":
        "77989279328ecb66a71481fea57cef2500780a906ddbc6ef65a29f715e85d2cf",
    "explore H,H/2 wait=on preempt=on faults=enqueue-before-state+skip-running-check":
        "161deb024e1029e99549ff78d1a439aa4b7e7d38c918d0052e1eb77096267325",
    "walk seed=1":
        "ed2632d12726dc4e55f0b3f69ddff5f909300357c6265becf5c6f916b0dee7de",
    "walk seed=2":
        "5eb47cd59b84df7686deb31a9caf065cfdfaa301e6d89cbbc5bc85242e45cb64",
    "walk seed=3":
        "1a1a44ab3e8e6351bb9983a4c56054725903716ed2c0347a677c32d60effa18f",
    "replay of explore H,L/2 wait=off preempt=on faults=enqueue-before-state":
        "ec31bbe60651ec797918122bfd854bcc0e36363f32b26c9cecf68e7dd73d67e4",
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
