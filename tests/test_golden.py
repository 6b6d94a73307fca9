"""Golden outputs: pinned digests of small end-to-end runs.

Each case runs ``verify --dump-trajectories`` on a tiny config and hashes
the body (everything below the '#' provenance lines) of
``groups.csv`` and of every per-rollout trajectory CSV. The trajectories
carry states, controls and margins to six significant digits, so a drift in
the controller shows up here even when the group statistics do not move.

The five cases cover the single integrator with psi = 2, the same with a
binding control box (relaxed steps), ``freeze_adot``, the double integrator
with psi = 0, and twelve agents crowded into a 6 x 6 square; their digests
must differ, so no case silently degenerates into another.

The two sweep commands are pinned the same way: ``reproduce-table1`` and
``sweep-psi`` each run once on a tiny config (ten steps; table1 with 2 x 3
rollouts per cell and theta 0.3), and the body of the CSV they write is hashed.

The CSV digests hold at ``--jobs 1`` and at ``--jobs 2``, where every cell's
rollouts are cut into chunks on worker processes (test ids ending in
``-jobs2``).

The CSVs round to six significant digits, so the engine's numbers are also
pinned at full precision: ``GOLDEN_ROLLOUTS`` holds a digest of the bytes of
each case's per-seed ``Rollouts`` arrays from ``run_experiment``, at
``jobs`` 1 and 2.

The ``verify`` cases also pin ``certificate.json`` and ``run_manifest.json``:
each is parsed, the values that change from run to run (timestamps, output
directory, config path) are masked, and it is re-serialized in its own key
order before hashing, so a changed value, key or key order shows up. These
run at ``--jobs 1`` only, since ``run_manifest.json`` records ``--jobs``.

When a change alters the numerics on purpose, run
``pytest tests/test_golden.py``, copy the digests from the failure messages
into ``GOLDEN`` (or ``GOLDEN_JSON``, ``GOLDEN_SWEEPS``) and say in CHANGES.md
why they moved.
"""

import hashlib
import json

import pytest

from cbfcert import rollout
from cbfcert.cli import build_config, main
from cbfcert.rollout import run_experiment

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
    # Twelve agents in a 6 x 6 square: spawns reject hundreds of rounds and
    # every step solves a 66-row QP, so block spawning and warm-started
    # NNLS solves are pinned here.
    "crowded_n12": {
        "system": {"n_agents": 12, "domain_half_width": 6.0, "horizon_steps": 10},
    },
}

GOLDEN = {
    "single_psi2": "b975b018306c81db55f69e641718df09be353dbaa631f05ba8fe016976ad484c",
    "control_bound": "fd974fc554be2db4e262ac3deaddb9be06f0299d20331712a804a46ca83bad74",
    "freeze_adot": "06840f3137f3fca828f24faa4486c82fdd3f3eaea153263b7692aa51b6085f30",
    "double_integrator": "4eca0171dfa9aef937cd06f821713fb0ccfe8b80484e722f420851a392add8a0",
    "crowded_n12": "ed69a56a141b3a15021f442691d568c46e1a306f35a1a98bbd41b20ff0d34395",
}

# (certificate.json, run_manifest.json) per case, masked as in _json_digest.
GOLDEN_JSON = {
    "single_psi2": (
        "1ec2682cf1815f16a26f571a678689c8ba4c19014f41ee63892a85f25ae3dee0",
        "ac7b8c8239673f98bdc18723c6db75a54e1049790483809220ca4bd8e62b309c",
    ),
    "control_bound": (
        "7ea8d10914c75944791182340b033aea433c734d3d92ce00f9ea1104fa71b172",
        "1e76ebc64a7d8c642abba7d656a773227ba203dc2dc4debf1c23c370264feb80",
    ),
    "freeze_adot": (
        "0ff686d806d8a4487720933cb3d014638fba835ef7071bd6a0cf6363548f673b",
        "81206f7453e40f6fb7e2f219c46e72bbb7c5818053495e7a9ec31cafefadf008",
    ),
    "double_integrator": (
        "207d818bf3c688625db5c1ef3a3caf52af57a17283f98abc0954aee9de853ab6",
        "248e83866d91f84fd7ebb76a1ff20fb48a104502ab00264a948aecfceb029487",
    ),
    "crowded_n12": (
        "dd128b30c1ba942e370d5517738c7bb5ac500cf5e72c254f32f5be22005cf01a",
        "4b7647119c5a8d95a68dcafe93d24247b66f8ba6adc579ece3bf0369e623a262",
    ),
}

# Per case, over the per-seed Rollouts arrays, as in _rollouts_digest.
GOLDEN_ROLLOUTS = {
    "single_psi2": "8456ad722ef4b36a243471f0fdff47f820717f2e076b56d84c781dd0f42af7b1",
    "control_bound": "bdddc52bbfa76040beb2b984208a27e8f24344dd9edaa401498175c424a4495d",
    "freeze_adot": "88c30fe37f1da4d4907acdb1ed35a7713c118cf5cdf98300311a2fdd808d7f9b",
    "double_integrator": "ab22d0e1a9677a7900aa9b79afad2d988f932dbd6f5f20cff566428f0c0a44b8",
    "crowded_n12": "87ba89046300b7b47676e237f0daa49f81dc89b10867f43ae53ac9763513a5aa",
}

# Values that differ between two runs of the same config.
MASKED = ("generated_utc", "timestamp_utc", "out_dir", "config_path")


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
    "reproduce-table1": "538234ff64e5611f99b5faa24c38bb0ea13b081706ccc0698c9187e3808c2a2f",
    "sweep-psi": "07fbfdad5e0d46c8ec872189b37e494bc9e59162aff28ef2c43b83d16fbe4d55",
}


def _config(case: str) -> dict:
    data = json.loads(json.dumps(_BASE))
    for section, values in CASES[case].items():
        data[section].update(values)
    return data


def _body(path) -> bytes:
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def _json_digest(path) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in MASKED:
        if key in data:
            data[key] = "<masked>"
    return hashlib.sha256(json.dumps(data, indent=2).encode("utf-8")).hexdigest()


def _at_jobs(names) -> list:
    """Each name at --jobs 1 (id: the name) and at --jobs 2 (id: name-jobs2)."""
    return [pytest.param(name, 1, id=name) for name in names] + [
        pytest.param(name, 2, id=f"{name}-jobs2") for name in names
    ]


def csv_digest(out) -> str:
    """Digest of the CSV bodies that ``verify --dump-trajectories`` wrote to ``out``."""
    files = [out / "groups.csv"] + sorted((out / "trajectories").glob("*.csv"))
    assert len(files) == 1 + _BASE["groups"] * _BASE["rollouts_per_group"]
    sha = hashlib.sha256()
    for path in files:
        sha.update(path.name.encode("utf-8") + b"\n" + _body(path))
    return sha.hexdigest()


def _digest(tmp_path, case: str, jobs: int) -> tuple[str, tuple[str, str]]:
    """Digest of the CSV bodies, and of the two masked JSON outputs."""
    cfg_path = tmp_path / f"{case}.json"
    cfg_path.write_text(json.dumps(_config(case)), encoding="utf-8")
    out = tmp_path / f"{case}-jobs{jobs}"
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]
    assert main(args + ["--dump-trajectories"]) == 0
    outputs = (_json_digest(out / "certificate.json"), _json_digest(out / "run_manifest.json"))
    return csv_digest(out), outputs


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return {(case, jobs): _digest(tmp, case, jobs) for case in CASES for jobs in (1, 2)}


@pytest.mark.parametrize("case, jobs", _at_jobs(sorted(CASES)))
def test_golden_digest(digests, case, jobs):
    digest = digests[case, jobs][0]
    assert digest == GOLDEN[case], f"{case} at --jobs {jobs}: digest {digest}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_json_digest(digests, case):
    outputs = digests[case, 1][1]
    assert outputs == GOLDEN_JSON[case], f"{case}: digests {outputs}"


def test_cases_are_distinct(digests):
    assert len({digests[case, 1][0] for case in CASES}) == len(CASES)
    assert len({digests[case, 1][1] for case in CASES}) == len(CASES)


ROLLOUT_ARRAYS = ("seed", "raw_min_margin", "min_distance", "relaxed_steps", "max_control_norm")


def _rollouts_digest(case: str, jobs: int) -> str:
    """sha256 of each per-seed array's name, dtype, shape and bytes."""
    rollouts = run_experiment(build_config(_config(case)), jobs)[0]
    sha = hashlib.sha256()
    for name in ROLLOUT_ARRAYS:
        array = getattr(rollouts, name)
        sha.update(f"{name} {array.dtype.str} {array.shape}\n".encode("utf-8"))
        sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("case, jobs", _at_jobs(sorted(CASES)))
def test_golden_rollouts_digest(case, jobs):
    digest = _rollouts_digest(case, jobs)
    assert digest == GOLDEN_ROLLOUTS[case], f"{case} at jobs {jobs}: digest {digest}"


@pytest.mark.parametrize("case, relaxations", [("control_bound", 100), ("double_integrator", 7)])
def test_only_relaxations_leave_the_batch(case, relaxations, monkeypatch):
    # Both cases step back and relax (double_integrator steps back in 7 more
    # problems, which all stay exact). controller.solve_batch finishes the
    # step backs in lockstep; only the problems whose exact answer it
    # rejects go to fast_control, and each of those ends on the relaxation,
    # which clears its free set.
    calls = []

    def spy(a, b, passive):
        calls.append(fast_control(a, b, passive))
        assert not passive.any()
        return calls[-1]

    fast_control = rollout.fast_control
    monkeypatch.setattr(rollout, "fast_control", spy)
    digest = _rollouts_digest(case, 1)
    assert digest == GOLDEN_ROLLOUTS[case], f"{case}: digest {digest}"
    assert len(calls) == relaxations


@pytest.mark.parametrize("command, jobs", _at_jobs(sorted(SWEEPS)))
def test_golden_sweep_digest(tmp_path, command, jobs):
    csv_name, data = SWEEPS[command]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]
    assert main(args) == 0
    digest = hashlib.sha256(_body(out / csv_name)).hexdigest()
    assert digest == GOLDEN_SWEEPS[command], f"{command} at --jobs {jobs}: digest {digest}"
