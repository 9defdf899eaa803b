"""Golden regression: fixed-seed runs must match checked-in histories.

Each row of :data:`GOLDEN_CONFIGS` pins the full numeric trajectory
(losses, accuracies, simulated clock, traffic, cohorts) of a small
fixed-seed 3-round run, so a refactor that silently changes the training
math -- a reordered reduction, a changed default, an off-by-one in batch
regulation -- fails loudly even when every unit test still passes.  Every
built-in algorithm name has a row (the nine split rows of
``repro.algorithms.BUILTIN_ALGORITHMS`` on the split engine,
``fedavg``/``pyramidfl`` on the FL engine), plus elastic rounds, a
candidate pool over sampled shards, a conv
row whose rounds reach the fine-tuning solver (Alg. 1 line 6), three
:data:`PER_DEPTH` rows whose adaptive split policy assigns mixed cut depths
(merged mixed groups, per-worker updates through a bridge, per-iteration
re-installs with bridges) and three :data:`LOSSY` rows whose link codec
the round applies, so each must hold on every executor.

:data:`CHECKPOINT_FIXTURES` additionally pins the checkpoint *data*: a
checkpoint file written after two rounds must keep loading, must save
again as (same keys, same values) what a fresh two-round run saves today,
and must continue to the golden's remaining records.  :data:`TOPK_PROCESS_CHECKPOINT`
pins that a checkpoint whose residuals the process executor gathered from
its children still resumes, on any executor.

Float fields are compared at 1e-9 relative tolerance (bit-exactness across
BLAS builds and numpy versions is not guaranteed); everything else exactly.
Only the fields a golden file carries are compared, so older files with
fewer ``RoundRecord`` fields stay valid; the fields it carries that were
retired since (:data:`~repro.metrics.history.RETIRED_FIELDS`) are skipped.

To regenerate after an *intentional* change to the training math::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate [NAME ...]

(every row when no name is given) and explain in the commit message why
the trajectory moved.  It writes a fresh run's values of the record keys
each golden already has into its existing file, so a golden keeps its
keys, its ``config`` and its ``description``; only a row with no file yet
is written whole, in today's schema.  It never writes a checkpoint
fixture: a fixture pins a layout today's code would not save, so when the
trajectory moves, only the leaves that depend on it are re-taken from a
fresh two-round run of the fixture's config, leaf by leaf, and every
other byte is kept (as when samples moved to a float32 store;
EXPERIMENTS.md "Samples stored in float32").
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Golden name -> overrides on the shared base configuration.
GOLDEN_CONFIGS: dict[str, dict] = {
    "mergesfl_blobs_seed3": {},
    "fedavg_blobs_seed3": {"algorithm": "fedavg"},
    "pyramidfl_blobs_seed3": {"algorithm": "pyramidfl"},
    "splitfed_blobs_seed3": {"algorithm": "splitfed"},
    "mergesfl_elastic_blobs_seed3": {
        "dropout_rate": 0.3, "over_select_factor": 1.25,
    },
    **{
        f"{algorithm}_blobs_seed3": {"algorithm": algorithm}
        for algorithm in (
            "locfedmix_sl", "adasfl", "sfl_t", "sfl_fm", "sfl_br",
            "mergesfl_no_fm", "mergesfl_no_br",
        )
    },
    **{
        f"{algorithm}_har_adaptive_seed5": {
            "algorithm": algorithm, "dataset": "har", "model": "cnn_h",
            "model_width": 0.3, "split_policy": "adaptive", "seed": 5,
        }
        for algorithm in ("mergesfl", "sfl_t", "splitfed")
    },
    # Conv2d/MaxPool2d layers, and the only row whose rounds reach the
    # fine-tuning solver (Alg. 1 line 6): its merged KL starts above epsilon
    # in every round.
    "mergesfl_cifar10_alexnet_seed3": {
        "dataset": "cifar10", "model": "alexnet_s", "model_width": 0.25,
    },
    # A per-round candidate pool over sampled shards, 40 workers.  Recorded
    # while the pool could evict its cohort at round end, on the evicting
    # pool: the resident pool must reproduce that trajectory.
    "mergesfl_candidates_blobs_seed3": {
        "num_workers": 40, "population_candidates": 8,
        "extras": {"population_sharding": "sampled"},
    },
    # Lossy links, recorded on two processes over shared memory.
    "mergesfl_int8_blobs_seed3": {
        "executor": "process", "codec": "int8",
        "extras": {"executor_processes": 2},
    },
    "sfl_t_topk_blobs_seed3": {
        "algorithm": "sfl_t", "executor": "process", "codec": "topk",
        "extras": {"executor_processes": 2, "codec_topk_ratio": 0.3},
    },
    "fedavg_fp16_weights_blobs_seed3": {
        "algorithm": "fedavg", "executor": "process",
        "extras": {"executor_processes": 2, "codec_policy": {"weights": "fp16"}},
    },
}

#: Rows that pin the per-depth data path: each must really see workers at
#: two or more cut depths in some round, or it pins nothing the uniform
#: rows do not.
PER_DEPTH = sorted(
    name for name, overrides in GOLDEN_CONFIGS.items()
    if overrides.get("split_policy", "uniform") != "uniform"
)

#: Rows with a lossy codec.  Their goldens carry no wire fields
#: (``WIRE_FIELDS``): host bytes depend on the executor, the trajectory
#: must not.
LOSSY = sorted(
    name for name, overrides in GOLDEN_CONFIGS.items()
    if overrides.get("codec", "none") != "none"
    or "codec_policy" in overrides.get("extras", {})
)

#: A two-round checkpoint of ``sfl_t_topk_blobs_seed3`` saved by the process
#: executor over shared memory, its top-k residuals gathered from the
#: children (``features|<worker>``) and the parent (``gradients|<worker>``).
#: Never re-saved, since today's code would not write that layout: it pins
#: that such a checkpoint keeps loading.  When samples moved to a float32
#: store, only the leaves that depend on sample values were re-taken from a
#: fresh two-round run of the same config (the server's ``bottom`` and
#: ``top`` weights, the records' losses and the codec residuals), so that it
#: still resumes to the golden; every other byte is the original's.
TOPK_PROCESS_CHECKPOINT = GOLDEN_DIR / "sfl_t_topk_blobs_seed3.round2.process.ckpt.json"

#: What a round costs on the simulated network; a run resumed from
#: :data:`TOPK_PROCESS_CHECKPOINT` is compared on every other field.
COST_FIELDS = ("sim_time", "duration", "waiting_time", "traffic_mb")

#: Names the algorithm table builds from the same row: their goldens must
#: agree record for record.
SAME_ROW = [("sfl_t", "locfedmix_sl"), ("sfl_br", "adasfl")]

#: Golden name -> rounds completed when its checkpoint fixture was saved.
CHECKPOINT_FIXTURES: dict[str, int] = {
    "mergesfl_blobs_seed3": 2,
    "fedavg_blobs_seed3": 2,
}


def _golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def _checkpoint_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.round{CHECKPOINT_FIXTURES[name]}.ckpt.json"


def _golden_config(name: str, **changes):
    from repro.config import ExperimentConfig

    base = dict(
        algorithm="mergesfl",
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=3,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        seed=3,
    )
    return ExperimentConfig(**{**base, **GOLDEN_CONFIGS[name], **changes})


def _run_history(name: str, depth_log: list | None = None, **changes) -> list[dict]:
    """The run's records; ``depth_log`` collects each round's assigned depths
    and ``changes`` override the row's configuration."""
    from repro.api.session import Session

    with Session.from_config(_golden_config(name, **changes)) as session:
        if depth_log is not None:
            policy = session.algorithm._split_policy
            assign = policy.assign_depths

            def logged(round_index, worker_ids, context):
                depths = assign(round_index, worker_ids, context)
                depth_log.append(sorted(depths.values()))
                return depths

            policy.assign_depths = logged
        history = session.run()
    return history.to_dict()["records"]


def _assert_same(expected, actual, where: str) -> None:
    """Structural equality: floats at tolerance, everything else exact."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            _assert_same(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for index, value in enumerate(expected):
            _assert_same(value, actual[index], f"{where}[{index}]")
    elif isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, where
        assert actual.shape == expected.shape, where
        if expected.dtype.kind == "f":
            np.testing.assert_allclose(
                actual, expected, rtol=1e-9, atol=1e-12, err_msg=where
            )
        else:
            assert np.array_equal(actual, expected), where
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), where
    else:
        assert actual == expected, where


def _current_fields(record: dict) -> dict:
    """A golden record without the fields retired since it was written."""
    from repro.metrics.history import RETIRED_FIELDS

    return {k: v for k, v in record.items() if k not in RETIRED_FIELDS}


def _assert_records_match(golden_records: list[dict], records: list[dict]) -> None:
    assert len(records) == len(golden_records)
    for index, (expected, actual) in enumerate(zip(golden_records, records)):
        expected = _current_fields(expected)
        _assert_same(
            expected,
            {field: actual[field] for field in expected},
            f"records[{index}]",
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_history_matches_golden(name):
    path = _golden_path(name)
    assert path.exists(), (
        f"golden file missing: {path}; regenerate with "
        f"'PYTHONPATH=src python {pathlib.Path(__file__).name} --regenerate'"
    )
    golden = json.loads(path.read_text())
    depth_log = [] if name in PER_DEPTH else None
    _assert_records_match(golden["records"], _run_history(name, depth_log))
    if depth_log is not None:
        # A policy change must not silently turn the row degenerate.
        assert any(len(set(depths)) >= 2 for depths in depth_log), depth_log


@pytest.mark.parametrize("executor", ["serial", "batched"])
@pytest.mark.parametrize("name", LOSSY)
def test_a_lossy_golden_holds_on_every_executor(name, executor):
    """The round applies the codec, so a lossy trajectory does not depend
    on where the workers compute."""
    golden = json.loads(_golden_path(name).read_text())
    _assert_records_match(golden["records"], _run_history(name, executor=executor))


@pytest.mark.parametrize("alias,name", SAME_ROW)
def test_same_row_names_share_one_trajectory(alias, name):
    first, second = (
        json.loads(_golden_path(f"{algorithm}_blobs_seed3").read_text())["records"]
        for algorithm in (alias, name)
    )
    assert first == second


@pytest.mark.parametrize("name", sorted(CHECKPOINT_FIXTURES))
def test_checkpoint_fixture_loads_and_continues(name, tmp_path):
    from repro.api.checkpoint import load_checkpoint_payload
    from repro.api.session import Session

    fixture = _checkpoint_path(name)
    golden = json.loads(_golden_path(name).read_text())["records"]

    # The fixture, loaded and saved again, is what a fresh run saves today:
    # its data stays pinned to a fresh run's, whatever format it was
    # written in.
    with Session.from_config(_golden_config(name)) as session:
        session.run(CHECKPOINT_FIXTURES[name])
        session.save_checkpoint(tmp_path / "fresh.json")
    with Session.load_checkpoint(fixture) as loaded:
        loaded.save_checkpoint(tmp_path / "resaved.json")
    _assert_same(
        load_checkpoint_payload(tmp_path / "fresh.json"),
        load_checkpoint_payload(tmp_path / "resaved.json"),
        "checkpoint",
    )

    # The fixture itself resumes to the uninterrupted run's records.
    with Session.load_checkpoint(fixture) as resumed:
        history = resumed.run()
    _assert_records_match(golden, history.to_dict()["records"])


@pytest.mark.parametrize("name", sorted(CHECKPOINT_FIXTURES))
def test_checkpoint_echoing_serial_still_resumes_to_golden(name, tmp_path):
    """Checkpoints written while ``executor`` defaulted to ``"serial"`` echo
    that name; they are the fixture with that one field put back."""
    from repro.api.session import Session

    payload = json.loads(_checkpoint_path(name).read_text())
    assert payload["config"]["executor"] == "auto"
    payload["config"]["executor"] = "serial"
    legacy = tmp_path / "serial.ckpt.json"
    legacy.write_text(json.dumps(payload))
    with Session.load_checkpoint(legacy) as resumed:
        assert resumed.components.executor.name == "serial"
        history = resumed.run()
    _assert_records_match(
        json.loads(_golden_path(name).read_text())["records"],
        history.to_dict()["records"],
    )


@pytest.mark.parametrize("name", sorted(CHECKPOINT_FIXTURES))
def test_checkpoint_with_the_retired_staleness_keys_still_resumes_to_golden(
    name, tmp_path
):
    """Checkpoints written while bounded staleness existed carry
    ``config.staleness`` and every record's ``effective_staleness``, both at
    their exact value; they are the fixture with those keys put back."""
    from repro.api.session import Session

    payload = json.loads(_checkpoint_path(name).read_text())
    payload["config"]["staleness"] = 0
    records = payload["algorithm"]["history"]["records"]
    assert records
    for record in records:
        record["effective_staleness"] = 0.0
    legacy = tmp_path / "staleness.ckpt.json"
    legacy.write_text(json.dumps(payload))
    with Session.load_checkpoint(legacy) as resumed:
        history = resumed.run()
    _assert_records_match(
        json.loads(_golden_path(name).read_text())["records"],
        history.to_dict()["records"],
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_a_golden_with_the_retired_staleness_keys_loads_unchanged(name):
    """Goldens written while bounded staleness existed carry
    ``config.staleness`` and every record's ``effective_staleness``, both at
    their exact value; with those keys put back each still loads to its own
    config and records."""
    from repro.config import ExperimentConfig
    from repro.metrics.history import History

    golden = json.loads(_golden_path(name).read_text())
    legacy = json.loads(json.dumps(golden))
    legacy["config"]["staleness"] = 0
    for record in legacy["records"]:
        record["effective_staleness"] = 0.0
    assert ExperimentConfig.from_dict(legacy["config"]) == ExperimentConfig.from_dict(
        golden["config"]
    )
    _assert_records_match(
        golden["records"], History.from_dict(legacy).to_dict()["records"]
    )


@pytest.mark.parametrize("executor", ["serial", "batched", "process"])
def test_topk_process_checkpoint_resumes_to_golden(executor, tmp_path):
    """The fixture carries per-worker feature and gradient residuals and
    resumes, on ``executor``, to the golden's trajectory."""
    from repro.api.session import Session

    payload = json.loads(TOPK_PROCESS_CHECKPOINT.read_text())
    residual_keys = payload["algorithm"]["codec"]
    assert {key.split("|")[0] for key in residual_keys} == {"features", "gradients"}
    payload["config"]["executor"] = executor
    path = tmp_path / "topk.ckpt.json"
    path.write_text(json.dumps(payload))
    with Session.load_checkpoint(path) as resumed:
        records = resumed.run().to_dict()["records"]
    golden = json.loads(_golden_path("sfl_t_topk_blobs_seed3").read_text())
    _assert_records_match(
        [
            {k: v for k, v in record.items() if k not in COST_FIELDS}
            for record in golden["records"]
        ],
        records,
    )


def _regenerate(names: list[str], golden_dir: pathlib.Path = GOLDEN_DIR) -> None:
    """Write each named row's fresh record values into its golden file
    under ``golden_dir`` (see the module docstring)."""
    from repro.metrics.history import WIRE_FIELDS

    golden_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        path = golden_dir / f"{name}.json"
        records = _run_history(name)
        if path.exists():
            payload = json.loads(path.read_text())
            assert len(payload["records"]) == len(records), name
            for golden, fresh in zip(payload["records"], records):
                golden.update({k: fresh[k] for k in golden if k in fresh})
        else:
            config = _golden_config(name)
            if name in LOSSY:
                records = [
                    {k: v for k, v in record.items() if k not in WIRE_FIELDS}
                    for record in records
                ]
            payload = {
                "description": (
                    f"Fixed-seed {config.num_rounds}-round {config.algorithm} "
                    f"history on {config.dataset}/{config.model}; see "
                    f"tests/test_golden_regression.py"
                ),
                "config": config.to_dict(),
                "records": records,
            }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


def test_regenerate_on_unchanged_code_rewrites_three_goldens_byte_for_byte(
    tmp_path,
):
    """``--regenerate`` writes the named goldens' files as they are and no
    checkpoint fixture: a split row with a fixture, the FL row with one,
    and a lossy row recorded on the process executor."""
    import shutil

    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, copy)
    before = {path.name: path.stat().st_mtime_ns for path in copy.iterdir()}
    names = ["mergesfl_blobs_seed3", "fedavg_blobs_seed3", "sfl_t_topk_blobs_seed3"]
    _regenerate(names, copy)
    written = {
        path.name for path in copy.iterdir()
        if path.stat().st_mtime_ns != before[path.name]
    }
    assert written == {f"{name}.json" for name in names}
    assert sorted(before) == sorted(path.name for path in copy.iterdir())
    for path in GOLDEN_DIR.iterdir():
        assert (copy / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        requested = [arg for arg in sys.argv[1:] if not arg.startswith("--")]
        _regenerate(requested or sorted(GOLDEN_CONFIGS))
    else:
        print(__doc__)
