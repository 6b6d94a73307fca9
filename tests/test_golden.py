"""Golden outputs: pinned digests of small end-to-end runs.

Each case runs ``verify --jobs 1 --dump-trajectories`` on a tiny config and
hashes the body (everything below the '#' provenance lines) of
``groups.csv`` and of every per-rollout trajectory CSV. The trajectories
carry states, controls and margins to six significant digits, so a drift in
the controller shows up here even when the group statistics do not move.

The four cases cover the single integrator with psi = 2, the same with a
binding control box (relaxed steps), ``freeze_adot``, and the double
integrator with psi = 0; their digests must differ, so no case silently
degenerates into another.

The two sweep commands are pinned the same way: ``reproduce-table1`` and
``sweep-psi`` each run once on a tiny config (ten steps; table1 with 2 x 3
rollouts per cell and theta 0.3), and the body of the CSV they write is hashed.

When a change alters the numerics on purpose, run
``pytest tests/test_golden.py``, copy the digests from the failure messages
into ``GOLDEN`` (or ``GOLDEN_SWEEPS``) and say in CHANGES.md why they moved.
"""

import hashlib
import json

import pytest

from cbfcert.cli import main

_BASE = {
    "groups": 2,
    "rollouts_per_group": 3,
    "base_seed": 2024,
    "system": {"n_agents": 3, "domain_half_width": 2.5, "horizon_steps": 30},
    "safety": {"psi": 2.0, "kappa": 0.1},
}

CASES = {
    "single_psi2": {},
    "control_bound": {"safety": {"control_bound": 0.01}},
    "freeze_adot": {"safety": {"freeze_adot": True}},
    "double_integrator": {
        "system": {
            "n_agents": 4,
            "domain_half_width": 4.0,
            "dynamics": "double_integrator",
            "state_dim": 4,
            "control_dim": 2,
        },
        "safety": {"psi": 0.0},
    },
}

GOLDEN = {
    "single_psi2": "2fc932a1c1aaea64788d76391738c72ff824440a4ccb6ad079c8f37541a73e84",
    "control_bound": "1a6f7ca6da71daaeef9def71a68bb158f58989fcfe4a34df9c81cc1d5160c703",
    "freeze_adot": "6cb4191e2fba354cc7b1e7d0b72e66a1d9fe22ac51bd7768ff68718af51ba539",
    "double_integrator": "1496e1db4f7a846e3a6319dc29b29499effcd82a7efabfcd5911b966a1bc0d73",
}


SWEEPS = {
    "reproduce-table1": (
        "table1.csv",
        {
            "groups": 2,
            "rollouts_per_group": 3,
            # Above the default 0.1 so that p_hat moves from cell to cell.
            "theta": 0.3,
            "base_seed": 2024,
            "system": {"horizon_steps": 10, "domain_half_width": 3.0},
        },
    ),
    # sweep-psi fixes its own group size (one group of 100 per psi value).
    "sweep-psi": (
        "psi_sweep.csv",
        {
            "base_seed": 2024,
            "system": {"n_agents": 3, "domain_half_width": 2.5, "horizon_steps": 10},
            "safety": {"kappa": 0.1},
        },
    ),
}

GOLDEN_SWEEPS = {
    "reproduce-table1": "7452e00989b83db73d97cd82a4835b086b124595560ed9d57466566438d057db",
    "sweep-psi": "422230e4783a8bcdeb9586b65f2ede7614e9fa9f8c0b8abf89f9dacd1268c3fa",
}


def _config(case: str) -> dict:
    data = json.loads(json.dumps(_BASE))
    for section, values in CASES[case].items():
        data[section].update(values)
    return data


def _body(path) -> bytes:
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def _digest(tmp_path, case: str) -> str:
    cfg_path = tmp_path / f"{case}.json"
    cfg_path.write_text(json.dumps(_config(case)), encoding="utf-8")
    out = tmp_path / case
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    assert main(args + ["--dump-trajectories"]) == 0
    files = [out / "groups.csv"] + sorted((out / "trajectories").glob("*.csv"))
    assert len(files) == 1 + _BASE["groups"] * _BASE["rollouts_per_group"]
    sha = hashlib.sha256()
    for path in files:
        sha.update(path.name.encode("utf-8") + b"\n" + _body(path))
    return sha.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return {case: _digest(tmp, case) for case in CASES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN[case], f"{case}: digest {digests[case]}"


def test_cases_are_distinct(digests):
    assert len(set(digests.values())) == len(CASES)


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_golden_sweep_digest(tmp_path, command):
    csv_name, data = SWEEPS[command]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    assert main(args) == 0
    digest = hashlib.sha256(_body(out / csv_name)).hexdigest()
    assert digest == GOLDEN_SWEEPS[command], f"{command}: digest {digest}"
