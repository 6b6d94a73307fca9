import csv
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbfcert import cli, rollout
from cbfcert.cli import (
    build_config,
    config_hash,
    config_schema,
    load_config,
    main,
)
from cbfcert.errors import ConfigError, config_fields
from cbfcert.rollout import ExperimentConfig, run_experiment
from oracles import csv_rows_reference
import test_golden

TINY = {
    "groups": 2,
    "rollouts_per_group": 3,
    "base_seed": 4242,
    "system": {"horizon_steps": 5, "domain_half_width": 4.0},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def assert_no_child_left():
    # waitpid(-1) raises once this process has no child, running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_forks(monkeypatch) -> list:
    """The list that collects the pid of every child ``os.fork`` makes in
    this process from now on."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


# Integers and floats that a row format must write as csv.writer wrote them.
CSV_INTS = st.one_of(st.sampled_from([0, -1, 10**7, 2**63, -(2**63)]), st.integers())
CSV_FLOATS = st.one_of(
    st.sampled_from(
        [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 123456.5, 0.1 + 0.2]
    ),
    st.floats(),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.booleans(), min_size=1, max_size=6), data=st.data())
def test_write_csv_matches_csv_writer(tmp_path, kinds, data):
    # True marks an integer (%d) column, False a float (%.6g) one.
    columns = [f"c{i}" for i in range(len(kinds))]
    row_format = ",".join("%d" if is_int else "%.6g" for is_int in kinds)
    row = st.tuples(*(CSV_INTS if is_int else CSV_FLOATS for is_int in kinds))
    rows = data.draw(st.lists(row, max_size=8))
    path = tmp_path / "rows.csv"
    cli._write_csv(path, ["comment"], columns, row_format, rows, [])
    assert csv_body(path) == csv_rows_reference(columns, rows).encode("utf-8")


def csv_body(path):
    """Everything except the '#' provenance header lines."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


# Every JSON value a config file can hold, as json.loads reads it (Python's
# parser also reads NaN, Infinity and integers too large for a float).
PROBES = (0, 1, -1, 2, 10**400, True, False, None, 0.5, 1e308, math.nan, math.inf, "x", [], {}, 3.0)
PROBE_IDS = (
    "0", "1", "-1", "2", "10**400", "true", "false", "null",
    "0.5", "1e308", "NaN", "Infinity", '"x"', "[]", "{}", "3.0",
)
TYPE_ERROR, NOT_FINITE = object(), object()
T, NF = TYPE_ERROR, NOT_FINITE


@dataclass(frozen=True)
class OneOfEachKind:
    """A config section with one field of each config field type and no
    range checks, so that only the JSON kind check can reject a value."""

    integer: int = 0
    number: float = 0.0
    number_or_null: float | None = None
    boolean: bool = False
    string: str = ""


# Per field of OneOfEachKind: the words of its type error, then what each
# probe (in PROBES order) resolves to: a value of the expected type,
# TYPE_ERROR, or NOT_FINITE for a number that is not finite.
KIND_TABLE = {
    "integer": ("an integer", (0, 1, -1, 2, 10**400, T, T, T, T, T, T, T, T, T, T, T)),
    "number": ("a number", (0.0, 1.0, -1.0, 2.0, NF, T, T, T, 0.5, 1e308, NF, NF, T, T, T, 3.0)),
    "number_or_null": (
        "a number or null",
        (0.0, 1.0, -1.0, 2.0, NF, T, T, None, 0.5, 1e308, NF, NF, T, T, T, 3.0),
    ),
    "boolean": ("a boolean", (T, T, T, T, T, True, False, T, T, T, T, T, T, T, T, T)),
    "string": ("a string", (T, T, T, T, T, T, T, T, T, T, T, T, "x", T, T, T)),
}


@pytest.mark.parametrize("index", range(len(PROBES)), ids=PROBE_IDS)
@pytest.mark.parametrize("name", list(KIND_TABLE))
def test_each_field_kind_accepts_or_names_the_value(name, index):
    words, outcomes = KIND_TABLE[name]
    value, outcome = PROBES[index], outcomes[index]
    if outcome is TYPE_ERROR or outcome is NOT_FINITE:
        expected = words if outcome is TYPE_ERROR else "a finite number"
        with pytest.raises(ConfigError) as info:
            cli._build(OneOfEachKind, {name: value}, "section.")
        assert str(info.value) == f"section.{name}: expected {expected}, got {value!r}"
    else:
        got = getattr(cli._build(OneOfEachKind, {name: value}, "section."), name)
        assert type(got) is type(outcome)
        assert got == outcome


# The sha256 of `cbfcert print-config-schema`'s stdout. When a config field
# is added or changed on purpose, run `cbfcert print-config-schema | sha256sum`,
# copy the digest here and say in CHANGES.md why it moved.
SCHEMA_SHA256 = "408dbd64e9027e86704cb19685f760de7db17310af8f959219ca69b68d028b6a"


def declared_ranges(cls=ExperimentConfig, prefix=""):
    """(section class, path, type, description, (breaks, words)) for every
    config field that declares a range."""
    for f, hint, description, bound in config_fields(cls):
        if bound is not None:
            yield cls, prefix + f.name, hint, description, bound
        elif description is None:
            yield from declared_ranges(hint, prefix + f.name + ".")


# The floats next to 0 and 1.
ABOVE_0, BELOW_0, BELOW_1 = math.nextafter(0, 1), math.nextafter(0, -1), math.nextafter(1, 0)

# Per field with a declared range: its values at the edges of the range, which
# load, the nearest values past those edges, and the exact error each of
# those raises.
RANGE_TABLE = {
    "groups": ([1], [0], "groups must be >= 1"),
    "rollouts_per_group": ([2], [1], "rollouts_per_group must be >= 2"),
    "theta": ([ABOVE_0, BELOW_1], [0.0, 1.0], "theta must lie in (0, 1)"),
    "delta": ([ABOVE_0, BELOW_1], [0.0, 1.0], "delta must lie in (0, 1)"),
    "base_seed": ([0], [-1], "base_seed must be >= 0"),
    "h_min": ([0.0], [BELOW_0], "h_min must be >= 0"),
    "eps_norm": ([ABOVE_0], [0.0], "eps_norm must be > 0"),
    "system.n_agents": ([2], [1], "n_agents must be >= 2"),
    "system.control_dim": ([2], [1], "control_dim must be >= 2 (planar agent positions)"),
    "system.noise_bound": ([0.0], [BELOW_0], "noise_bound must be >= 0"),
    "system.dt": ([ABOVE_0], [0.0], "dt must be > 0"),
    "system.horizon_steps": ([1], [0], "horizon_steps must be >= 1"),
    "system.domain_half_width": ([ABOVE_0], [0.0], "domain_half_width must be > 0"),
    "system.min_initial_separation": ([ABOVE_0], [0.0], "min_initial_separation must be > 0"),
    "safety.psi": ([0.0], [BELOW_0], "psi must be >= 0"),
    "safety.reg_eps": ([ABOVE_0], [0.0], "reg_eps must be > 0"),
    "safety.d_min": ([ABOVE_0], [0.0], "d_min must be > 0"),
    "safety.kappa": ([ABOVE_0], [0.0], "kappa must be > 0"),
    "safety.control_bound": ([None, ABOVE_0], [0.0], "control_bound must be > 0 when set"),
}


# The section class of each field with a declared range, by path.
RANGED = {path: cls for cls, path, *_ in declared_ranges()}


def test_range_table_covers_every_declared_range():
    assert list(RANGED) == list(RANGE_TABLE)


@pytest.mark.parametrize("path", list(RANGED))
def test_each_range_loads_its_edges_and_rejects_the_values_past_them(path):
    # A section is built on its own, as the loader builds it, so that no
    # check that relates two fields can reject an edge value.
    name = path.rpartition(".")[2]
    cls, prefix = RANGED[path], path.removesuffix(name)
    loads, rejected, message = RANGE_TABLE[path]
    for value in loads:
        assert getattr(cli._build(cls, {name: value}, prefix), name) == value
    for value in rejected:
        with pytest.raises(ConfigError) as info:
            cli._build(cls, {name: value}, prefix)
        assert str(info.value) == message


def test_descriptions_that_state_a_range_state_the_declared_one():
    # The schema's descriptions are pinned by its sha256, so the few that
    # state a range keep a second copy of it, in words the range must match.
    stated = {}
    for _, path, _, description, (_, words) in declared_ranges():
        match = re.search(r"\((>= \d+)\)|in (\(\d+, \d+\))", description)
        if match:
            stated[path] = match[0]
            assert words in (f"be {match[1]}", f"lie in {match[2]}"), path
    assert stated == {
        "rollouts_per_group": "(>= 2)",
        "theta": "in (0, 1)",
        "delta": "in (0, 1)",
        "system.n_agents": "(>= 2)",
        "safety.psi": "(>= 0)",
    }


class TestLoadConfig:
    def test_empty_object_resolves_to_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.groups == 100
        assert cfg.rollouts_per_group == 50
        assert cfg.system.n_agents == 2
        assert cfg.system.noise_bound == pytest.approx(0.03)
        assert cfg.safety.psi == pytest.approx(2.0)
        assert cfg.theta == pytest.approx(0.1)

    def test_out_of_range_theta_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="theta"):
            load_config(write_config(tmp_path, {"theta": 1.5}))

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'thteta'"):
            load_config(write_config(tmp_path, {"thteta": 0.1}))
        with pytest.raises(ConfigError, match="system.n_agentss"):
            load_config(write_config(tmp_path, {"system": {"n_agentss": 3}}))

    def test_type_errors_carry_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="system.n_agents"):
            load_config(write_config(tmp_path, {"system": {"n_agents": "two"}}))
        with pytest.raises(ConfigError, match="groups"):
            load_config(write_config(tmp_path, {"groups": True}))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"groups": 2,,}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"groups": 1, "rollouts_per_group": 2, "groups": 3, "system": {"horizon_steps": 3}}', "groups"),
            ('{"groups": 1, "rollouts_per_group": 2, "system": {"horizon_steps": 3, "horizon_steps": 4}}', "system.horizon_steps"),
        ],
        ids=["top-level", "system"],
    )
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, path):
        # json.loads alone keeps the last of two equal keys, so such a file
        # used to run with groups = 3.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text, encoding="utf-8")
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: duplicate config key {path!r}"]
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        # A UTF-16 byte-order mark is not UTF-8; it used to escape as a
        # UnicodeDecodeError traceback.
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="not valid UTF-8"):
            load_config(path)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "x").exists()

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        resolved = asdict(cfg)
        again = build_config(json.loads(json.dumps(resolved)))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_schema_lists_every_key_with_default(self):
        schema = config_schema()
        props = schema["properties"]
        assert props["theta"]["default"] == 0.1
        assert props["system"]["properties"]["domain_half_width"]["default"] == 10.0
        assert props["safety"]["properties"]["psi"]["default"] == 2.0
        resolved = asdict(build_config({}))
        for key in resolved:
            assert key in props
        for key in resolved["system"]:
            assert key in props["system"]["properties"]
        for key in resolved["safety"]:
            assert key in props["safety"]["properties"]

    def test_every_leaf_field_declares_its_description_and_kind(self):
        # Each leaf field declares its description on its dataclass field, as
        # Annotated[type, description]; a field declared without one has none.
        def leaves(props):
            for name, prop in props.items():
                if prop["type"] == "object":
                    yield from leaves(prop["properties"])
                else:
                    yield name, prop

        for name, prop in leaves(config_schema()["properties"]):
            assert isinstance(prop["description"], str) and prop["description"], name
            assert prop["type"] in {"integer", "number", "number|null", "boolean", "string"}, name

    def test_print_config_schema_bytes(self, capsys):
        assert main(["print-config-schema"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCHEMA_SHA256


class TestVerifyCommand:
    def test_writes_certificate_and_groups(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"])
        assert rc == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["base_seed"] == 4242
        assert len(cert["groups"]) == 2
        for entry in cert["groups"]:
            assert set(entry) == {
                "group_id",
                "p_hat",
                "sigma2_hat",
                "eps_bernstein",
                "eps_hoeffding",
                "eps_scenario",
                "d_support",
                "bernstein_full",
            }
            assert entry["bernstein_full"] == pytest.approx(
                entry["p_hat"] + entry["eps_bernstein"]
            )
        assert 0.0 <= cert["pooled_violation_rate"] <= 1.0
        assert 0.0 <= cert["satisfaction"]["bernstein"] <= 1.0
        assert 0.0 < cert["analytic_delta"] <= 1.0
        assert cert["diagnostics"] == {"relaxed_steps": 0, "relaxed_rollouts": 0}
        with open(out / "groups.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [r["group_id"] for r in rows] == ["0", "1"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config_hash"] == cert["config_hash"]

    def test_byte_identical_bodies_across_runs_and_jobs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        bodies = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 0
            bodies.append(csv_body(out / "groups.csv"))
        assert bodies[0] == bodies[1] == bodies[2]

    def test_certificate_reports_relaxed_steps(self, tmp_path):
        # Six double-integrator agents regularly face an empty constraint
        # polyhedron; the relaxed steps must reach the certificate. This seed
        # also gives one rollout without any relaxed step.
        data = {
            "groups": 2,
            "rollouts_per_group": 2,
            "base_seed": 52,
            "system": {
                "n_agents": 6,
                "state_dim": 4,
                "control_dim": 2,
                "dynamics": "double_integrator",
                "domain_half_width": 5.0,
                "horizon_steps": 30,
            },
            "safety": {"psi": 0.0, "kappa": 0.1},
        }
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        steps = run_experiment(build_config(data)).relaxed_steps.ravel().tolist()
        assert 0 in steps and sum(steps) > 0
        assert cert["diagnostics"] == {
            "relaxed_steps": sum(steps),
            "relaxed_rollouts": sum(n > 0 for n in steps),
        }

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--seed", "777"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["base_seed"] == 777

    def test_six_significant_digit_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "fmt"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        body = csv_body(out / "groups.csv").decode()
        for token in re.findall(r"\d+\.\d+", body):
            digits = token.replace(".", "").lstrip("0")
            assert len(digits) <= 6

    def test_dump_trajectories(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "traj"
        rc = main(
            ["verify", "--config", str(cfg_path), "--out", str(out), "--dump-trajectories"]
        )
        assert rc == 0
        files = sorted((out / "trajectories").glob("*.csv"))
        assert len(files) == 6  # 2 groups x 3 rollouts
        with open(files[0]) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert list(rows[0]) == ["t", "agent", "x0", "x1", "u0", "u1", "min_pair_margin"]
        # horizon_steps + 1 time points, one row per agent each
        assert len(rows) == (TINY["system"]["horizon_steps"] + 1) * 2

    def test_dump_trajectories_keeps_seeds_next_to_two_to_the_63(self, tmp_path):
        # The cell's seeds are 2**63 - 2 and 2**63 - 1, the largest an int64
        # holds; each file names its seed exactly.
        data = {"groups": 1, "rollouts_per_group": 2, "system": {"horizon_steps": 2}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
        assert main([*args, "--seed", str(2**63 - 2), "--dump-trajectories"]) == 0
        files = sorted((out / "trajectories").glob("*.csv"))
        seeds = [path.read_text().splitlines()[0] for path in files]
        assert seeds == [f"# seed: {2**63 - 2}", f"# seed: {2**63 - 1}"]

    def test_seed_beyond_int64_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out), "--seed", str(2**64), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not out.exists()

    def test_dump_trajectories_t_is_the_running_sum(self, tmp_path, monkeypatch):
        # t is dt added once per step, not k * dt. The two differ only past
        # the six digits the file keeps, so the rows are read on their way
        # into _write_csv, at full precision. The golden digests stop at 30
        # steps.
        steps, dt = 120, 0.1
        data = {
            "groups": 1,
            "rollouts_per_group": 2,
            "system": {"horizon_steps": steps, "dt": dt, "domain_half_width": 4.0},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        calls = []
        write_csv = cli._write_csv

        def spy(path, comments, columns, row_format, rows, written):
            calls.append((path, rows))
            write_csv(path, comments, columns, row_format, rows, written)

        monkeypatch.setattr(cli, "_write_csv", spy)
        args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
        assert main([*args, "--dump-trajectories"]) == 0
        running, t = [], 0.0
        for _ in range(steps + 1):
            running.append(t)
            t += dt
        assert any(t != k * dt for k, t in enumerate(running))
        expected = [t for t in running for _ in range(2)]  # one row per agent
        dumps = [(path, rows) for path, rows in calls if path.parent.name == "trajectories"]
        assert len(dumps) == 2
        for path, rows in dumps:
            assert [row[0] for row in rows] == expected
            with open(path, newline="") as fh:
                body = [line for line in fh if not line.startswith("#")][1:]
            assert [line.split(",")[0] for line in body] == ["%.6g" % t for t in expected]

    def test_double_integrator_with_one_position_coordinate_exits_2(self, tmp_path, capsys):
        # Positions are the first control_dim state coordinates; at m = 1 the
        # spawn's y coordinate used to land in the velocity.
        system = {
            "dynamics": "double_integrator",
            "state_dim": 2,
            "control_dim": 1,
            "horizon_steps": 3,
            "domain_half_width": 5.0,
        }
        data = {"groups": 1, "rollouts_per_group": 2, "system": system, "safety": {"psi": 0.0}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "x"
        args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
        assert main([*args, "--dump-trajectories"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: control_dim must be >= 2 (planar agent positions)"]
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"system": {"noise_bound": -0.5}})
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "noise_bound" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    def test_zero_groups_exits_2(self, tmp_path, capsys, command):
        # Zero groups used to run: verify printed an analytic delta from no
        # rollouts and reproduce-table1 wrote rows of NaN statistics.
        cfg_path = write_config(tmp_path, {"groups": 0, "rollouts_per_group": 3})
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 2
        assert "groups must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("noise_bound", float("nan")), ("dt", float("inf")), ("domain_half_width", 10**400)],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        # json.dumps writes NaN / Infinity, which Python's JSON parser reads
        # back, and an integer too large for a float.
        data = {**TINY, "system": {**TINY["system"], key: value}}
        cfg_path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert f"system.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_state_exits_4(self, tmp_path, capsys, jobs):
        # A finite config whose noise overflows the state: the NaN right-hand
        # side must reach the solver and fail there, not later in the bounds.
        # At --jobs 2 the error is raised in a worker, which must be reaped by
        # the time main returns.
        data = {**TINY, "system": {**TINY["system"], "n_agents": 3, "noise_bound": 1e300}}
        cfg_path = write_config(tmp_path, data)
        args = ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 4
        assert "internal solver failure" in capsys.readouterr().err
        assert_no_child_left()

    def test_singular_nnls_step_back_exits_0(self, tmp_path):
        # The golden control_bound parameters at P = 7: one relaxed step meets
        # a singular free set after an NNLS step back (rollout seed 2033).
        data = {
            "groups": 2,
            "rollouts_per_group": 7,
            "base_seed": 2024,
            "system": {"n_agents": 3, "domain_half_width": 2.5, "horizon_steps": 30},
            "safety": {"psi": 2.0, "kappa": 0.1, "control_bound": 0.01},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["diagnostics"]["relaxed_steps"] > 0

    def test_setup_error_exits_3(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "groups": 1,
                "rollouts_per_group": 2,
                "system": {"n_agents": 30, "domain_half_width": 2.0},
            },
        )
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_cannot_be_made_exits_3(self, tmp_path, capsys, monkeypatch, command, below):
        # --out names a regular file, or a path below one: one error line
        # naming the path, before any cell runs.
        def boom(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(rollout, "run_rollouts", boom)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        cfg_path = write_config(tmp_path, TINY)
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"setup error: cannot make output directory {out}:" in err

    def test_taken_trajectories_path_exits_3_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # <out>/trajectories names a regular file: verify --dump-trajectories
        # fails with one error line naming it, and no cell runs.
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "out"
        out.mkdir()
        (out / "trajectories").write_text("")
        cfg_path = write_config(tmp_path, TINY)
        args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
        assert main(args + ["--dump-trajectories"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"setup error: cannot make output directory {out / 'trajectories'}:" in err
        assert ran == [] and sorted(p.name for p in out.iterdir()) == ["trajectories"]

    @pytest.mark.parametrize(
        "command, csv_name",
        [("verify", "groups.csv"), ("reproduce-table1", "table1.csv"), ("sweep-psi", "psi_sweep.csv")],
    )
    @pytest.mark.parametrize("taken", ["csv", "manifest"])
    def test_output_file_that_cannot_be_written_exits_3(self, tmp_path, capsys, command, csv_name, taken):
        # A directory where the command's CSV or run_manifest.json goes: one
        # error line naming that path.
        path = tmp_path / "out" / (csv_name if taken == "csv" else "run_manifest.json")
        path.mkdir(parents=True)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(path.parent), "--jobs", "1"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"setup error: cannot write {path}:" in err

    @pytest.mark.parametrize(
        "command, taken",
        [
            ("verify", "certificate.json"),
            ("verify", "groups.csv"),
            ("verify", "run_manifest.json"),
            ("verify", "trajectories/group0001_rollout002.csv"),
            ("reproduce-table1", "table1.csv"),
            ("reproduce-table1", "run_manifest.json"),
            ("sweep-psi", "psi_sweep.csv"),
            ("sweep-psi", "run_manifest.json"),
        ],
    )
    def test_failed_write_leaves_no_file_of_the_run(self, tmp_path, capsys, command, taken):
        # A directory where one output goes, the first or the last the
        # command writes: it exits 3, removes every file it had written
        # before and prints no "wrote" line.
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
        if command == "verify":
            args.append("--dump-trajectories")
        assert main(args) == 3
        captured = capsys.readouterr()
        assert f"setup error: cannot write {out / taken}:" in captured.err
        assert "wrote" not in captured.out
        assert [p for p in out.rglob("*") if not p.is_dir()] == []

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_minimal_legal_sizes(self, tmp_path):
        # groups=1, P=2 is the smallest run on which every statistic is defined.
        cfg_path = write_config(
            tmp_path,
            {"groups": 1, "rollouts_per_group": 2, "system": {"horizon_steps": 1}},
        )
        out = tmp_path / "minimal"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        entry = cert["groups"][0]
        for key in ("p_hat", "sigma2_hat", "eps_bernstein", "eps_hoeffding", "eps_scenario"):
            assert np.isfinite(entry[key])

    def test_solver_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        from cbfcert import cli
        from cbfcert.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg_path = write_config(tmp_path, TINY)
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
        assert "bug report" in capsys.readouterr().err


class TestSweepCommands:
    def test_reproduce_table1_layout(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "groups": 1,
                "rollouts_per_group": 2,
                "system": {"horizon_steps": 2, "domain_half_width": 4.0},
            },
        )
        out = tmp_path / "t1"
        assert main(["reproduce-table1", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "table1.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 6
        assert list(rows[0]) == [
            "w_bar", "N", "p_hat", "eps_B", "eps_H", "eps_S", "B_sat", "H_sat", "S_sat",
        ]
        assert [r["w_bar"] for r in rows] == ["0.01", "0.03", "0.05"] * 2
        assert [r["N"] for r in rows] == ["2"] * 3 + ["3"] * 3
        # The Hoeffding column depends only on (P, delta): constant across rows.
        assert len({r["eps_H"] for r in rows}) == 1

    def test_sweep_psi_layout(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {"system": {"horizon_steps": 2, "domain_half_width": 4.0, "n_agents": 2}},
        )
        out = tmp_path / "psi"
        assert main(["sweep-psi", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "psi_sweep.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert list(rows[0]) == ["psi", "p_hat_v", "min_dist"]
        assert [r["psi"] for r in rows] == ["0", "2", "4", "6", "8", "10"]
        assert all(float(r["min_dist"]) > 0 for r in rows)

    @pytest.mark.parametrize("command", ["reproduce-table1", "sweep-psi"])
    def test_manifest_records_each_cell_that_ran(self, tmp_path, monkeypatch, command):
        # Each run_manifest.json cell carries the hash of the config that
        # run_experiments received for it, in order; verify records no cells.
        ran = []
        run = cli.run_experiments
        monkeypatch.setattr(
            cli,
            "run_experiments",
            lambda cfgs, *a: ran.extend(map(config_hash, cfgs)) or run(cfgs, *a),
        )
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        cells = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["cells"]
        assert [cell["config_hash"] for cell in cells] == ran
        assert len(set(ran)) == len(ran) == 6
        if command == "sweep-psi":
            assert cells[2]["overrides"] == {
                "groups": 1,
                "rollouts_per_group": 100,
                "system": {"noise_bound": 0.03},
                "safety": {"psi": 4.0},
            }
        else:
            assert cells[4]["overrides"] == {"system": {"n_agents": 3, "noise_bound": 0.03}}
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
        assert "cells" not in json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, cells", [("verify", 1), ("reproduce-table1", 6)])
    def test_certificate_is_called_through_the_module_global(
        self, tmp_path, monkeypatch, command, cells, jobs
    ):
        # perfbench/tracer.py rebinds cli.certificate to time bounds.certificate,
        # so every cell's certificate must be built through that global, in
        # this process, whatever --jobs is.
        calls = []
        build = cli.certificate
        monkeypatch.setattr(
            cli, "certificate", lambda cell, *rest: calls.append(cell) or build(cell, *rest)
        )
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 0
        assert len(calls) == cells

    @pytest.mark.parametrize(
        "command, csv_name", [("verify", "groups.csv"), ("reproduce-table1", "table1.csv")]
    )
    def test_certificate_sections_are_read_by_name(
        self, tmp_path, monkeypatch, capsys, command, csv_name
    ):
        # A section ahead of the others must not shift what the reports read.
        cfg_path = write_config(tmp_path, TINY)

        def run(name):
            out = tmp_path / name
            args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
            assert main(args) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1].startswith("wrote ")  # names the output directory
            return lines[:-1], csv_body(out / csv_name)

        plain = run("plain")
        build = cli.certificate
        monkeypatch.setattr(cli, "certificate", lambda *args: {"ahead": 0, **build(*args)})
        assert run("ahead") == plain

    @pytest.mark.parametrize("command", ["reproduce-table1", "sweep-psi"])
    def test_sweeps_reject_dump_trajectories(self, tmp_path, capsys, command):
        # Only verify writes trajectories; the sweeps must not accept the flag.
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--dump-trajectories"]
        assert main(args) == 2
        assert "--dump-trajectories" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_print_config_schema(self, capsys):
        assert main(["print-config-schema"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["properties"]["system"]["properties"]["dt"]["default"] == 0.1


class TestWorkerPool:
    @staticmethod
    def forks(tmp_path, monkeypatch, command, jobs) -> int:
        """How many workers ``command`` on TINY at ``--jobs jobs`` forks."""
        forks = record_forks(monkeypatch)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", jobs]
        assert main(args) == 0
        assert_no_child_left()
        return len(forks)

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("jobs, workers", [("1", 0), ("2", 1)])
    def test_one_pool_per_command(self, tmp_path, monkeypatch, command, jobs, workers):
        # Every cell of a command runs on one set of forked workers; --jobs 1
        # forks none. TINY's work is far below one worker's worth, so --jobs 2
        # forks one.
        assert self.forks(tmp_path, monkeypatch, command, jobs) == workers

    @pytest.mark.parametrize(
        "command, workers", [("verify", 6), ("reproduce-table1", 7), ("sweep-psi", 7)]
    )
    def test_work_above_every_job_forks_min_jobs_units(
        self, tmp_path, monkeypatch, command, workers
    ):
        # When one row-step pays for a worker, --jobs 7 forks min(jobs, units):
        # verify cuts its one cell of six seeds into six units, table1 each of
        # its two stacks into four, and sweep-psi each of its six cells into two.
        monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        assert self.forks(tmp_path, monkeypatch, command, "7") == workers

    def test_dead_worker_fails_the_command(self, tmp_path, fresh_env):
        # A worker that exits without writing its results makes the command
        # exit 5 promptly, naming the worker, with no child left behind.
        cfg_path = write_config(tmp_path, TINY)
        code = (
            "import os, sys\n"
            "from cbfcert import cli, rollout\n"
            "rollout.run_rollouts = lambda *args: os._exit(9)\n"
            "try:\n"
            "    sys.exit(cli.main())\n"
            "finally:\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        )
        args = ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", "2"]
        result = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=fresh_env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 5
        assert re.search(r"^worker failure: worker process \d+ died .*exit status 9", result.stderr), result.stderr
        assert result.stdout == "no child left\n"

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_worker_that_cannot_start_fails_the_command(
        self, tmp_path, monkeypatch, capsys, failing_call
    ):
        # A fork that fails with EAGAIN makes the command exit 5 with one
        # error line and no output file; at the second call, the worker that
        # did start is killed and reaped. TINY's work forks one worker at
        # --jobs 2, or two when one row-step pays for a worker.
        if failing_call == 2:
            monkeypatch.setattr(rollout, "_ROW_STEPS_PER_WORKER", 1)
        calls, fork = [], os.fork

        def failing_fork():
            calls.append(fork)
            if len(calls) == failing_call:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 5
        assert len(calls) == failing_call
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("worker failure: cannot start a worker process: ")
        assert list(out.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["verify", "reproduce-table1", "sweep-psi"])
    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        # Rejected while parsing: nothing runs and no output is written.
        out = tmp_path / "x"
        assert main([command, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestSchedule:
    @pytest.mark.parametrize(
        "command, csv_name", [("reproduce-table1", "table1.csv"), ("sweep-psi", "psi_sweep.csv")]
    )
    def test_sweep_bodies_equal_at_any_jobs(self, tmp_path, command, csv_name):
        cfg_path = write_config(tmp_path, TINY)
        bodies = set()
        for jobs in ("1", "2", "3", "7"):
            out = tmp_path / jobs
            args = [command, "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
            assert main(args) == 0
            bodies.add(csv_body(out / csv_name))
        assert len(bodies) == 1

    @pytest.mark.parametrize(
        "command, units",
        [("reproduce-table1", [18] * 2), ("sweep-psi", [100] * 6), ("verify", [6])],
    )
    def test_every_unit_is_submitted_before_any_is_joined(
        self, tmp_path, monkeypatch, command, units
    ):
        # At --jobs 2 on TINY, whose work pays for one worker, table1 runs
        # each stack of its three same-N cells as one work unit, sweep-psi
        # one whole cell per unit, and verify its one cell as one unit; every
        # unit reaches the runner in one call, before any result is joined.
        calls = []
        run_units = rollout._run_units

        def spy(work, n_workers):
            calls.append([len(unit[1]) for unit in work])
            return run_units(work, 0)

        monkeypatch.setattr(rollout, "_run_units", spy)
        cfg_path = write_config(tmp_path, TINY)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--jobs", "2"]
        assert main(args) == 0
        assert calls == [units]

    @pytest.mark.parametrize("jobs", ["1", "2", "3", "7"])
    def test_crowded_table1_cell_exits_3(self, tmp_path, capsys, jobs):
        # A 2 x 2 spawn square holds two agents at separation 1 but is too
        # crowded for three, so the N = 3 cells fail to spawn; every --jobs
        # reports the first failing cell, as --jobs 1 does.
        data = {**TINY, "system": {"horizon_steps": 5, "domain_half_width": 2.0}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "x"
        args = ["reproduce-table1", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "setup error: spawn domain too crowded: 3 agents at separation 1.0 "
            "in a 2.0 x 2.0 square\n"
        )
        assert_no_child_left()


class TestForkedOutput:
    def test_each_cell_line_is_printed_once(self, tmp_path, fresh_env):
        # stdout to a pipe is block-buffered; a forked worker must never
        # write the parent's buffer a second time.
        cfg_path = write_config(tmp_path, TINY)
        code = "import sys; from cbfcert.cli import main; sys.exit(main())"
        args = ["reproduce-table1", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        result = subprocess.run(
            [sys.executable, "-c", code, *args, "--jobs", "2"],
            env=fresh_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        cells = [line for line in lines if line.startswith("cell N=")]
        assert len(cells) == len(set(cells)) == 6
        assert len(lines) == 7

    def test_results_larger_than_a_pipe_buffer(self, tmp_path):
        # The one worker returns 20 rollouts of 101 frames of 2 agents: about
        # 140 KiB of trajectories, more than a 64 KiB pipe buffer holds.
        data = {**TINY, "rollouts_per_group": 10}
        data["system"] = {**TINY["system"], "horizon_steps": 100}
        cfg_path = write_config(tmp_path, data)
        files = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
            assert main([*args, "--dump-trajectories"]) == 0
            traj = sorted((out / "trajectories").iterdir())
            files[jobs] = [(p.name, p.read_bytes()) for p in traj] + [
                ("groups.csv", csv_body(out / "groups.csv"))
            ]
        assert len(files["1"]) == 21
        assert files["1"] == files["2"]
        assert_no_child_left()


class TestJobsDefault:
    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert cli._build_parser().parse_args(["verify"]).jobs == 1

    @pytest.mark.parametrize("count, jobs", [(3, 3), (None, 1)])
    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch, count, jobs):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
        assert cli._build_parser().parse_args(["verify"]).jobs == jobs


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["crowded_n12", "double_integrator"])
def test_golden_verify_in_fresh_interpreter(tmp_path, fresh_env, case, jobs):
    # The in-process golden tests import numpy before the CLI does; here the
    # CLI loads it, so the run goes through its one-thread BLAS.
    cfg_path = write_config(tmp_path, test_golden._config(case))
    out = tmp_path / "out"
    code = "import sys; from cbfcert.cli import main; sys.exit(main())"
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
    result = subprocess.run(
        [sys.executable, "-c", code, *args, "--dump-trajectories"],
        env=fresh_env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert test_golden.csv_digest(out) == test_golden.GOLDEN[case]


def test_python_m_cli_runs_the_command(tmp_path, fresh_env):
    # `python -m cbfcert.cli` runs the same entry point as the `cbfcert` script.
    cfg_path = write_config(tmp_path, TINY)
    out = tmp_path / "out"
    args = ["verify", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "cbfcert.cli", *args], env=fresh_env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (out / "certificate.json").is_file()
