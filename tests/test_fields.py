"""Tests for the field contract: each spec field's type hint is checked by check_fields.

Oracles: a wrongly typed or non-finite field raises ConfigError before round
0, at construction or at ExperimentSpec.validate, and every init field of
every spec class is read by the check.
"""

import dataclasses
import os

import numpy as np
import pytest

from meritfed.aggregators import FedAdp, FedAvg, MeritFed, Rule, SgdFull, SgdIdeal, Tawt
from meritfed.cli import RunConfig, build_experiment, main
from meritfed.clients import ATTACK_BIT_FLIP, ATTACK_NONE, ATTACK_RANDOM_NOISE, AttackSpec
from meritfed.engine import ExperimentSpec, run_experiment
from meritfed.errors import ConfigError
from meritfed.simplex_opt import MdConfig
from meritfed.tasks import MeanTask, SoftmaxTask, Task

NAN = float("nan")


def tiny_spec(**changes):
    """A mean spec of three clients that runs one round, with the given fields changed."""
    fields = dict(
        methods=[SgdFull("sgd-full")],
        task=MeanTask(),
        dim=2,
        group_counts=(1, 1, 1),
        shard_size=10,
        batch_size=2,
        rounds=1,
        validation_size=5,
    )
    return ExperimentSpec(**{**fields, **changes})


def softmax_spec(**changes):
    """A one-client softmax spec, the smallest the class layout allows."""
    task = SoftmaxTask(n_classes=3, test_size=5)
    return tiny_spec(task=task, group_counts=(1, 0, 0), dim=4, model_step=0.05, **changes)


def meritfed(**md_changes):
    return MeritFed("meritfed-md", md=MdConfig(**{"step_size": 1.0, "step_count": 2, **md_changes}))


# Each of these ran silently, or failed inside the run with a traceback or a
# NumericInputError, before the field contract.
WRONGLY_TYPED = [
    pytest.param(lambda: tiny_spec(attack=None), id="attack=None"),
    pytest.param(lambda: tiny_spec(task=None), id="task=None"),
    pytest.param(lambda: tiny_spec(methods=SgdFull("sgd-full")), id="methods=SgdFull"),
    pytest.param(lambda: tiny_spec(methods=["sgd-full"]), id="methods=[str]"),
    pytest.param(lambda: tiny_spec(master_seed=1.5), id="master_seed=1.5"),
    pytest.param(lambda: tiny_spec(dim=2.0), id="dim=2.0"),
    pytest.param(lambda: tiny_spec(rounds="3"), id="rounds=str"),
    pytest.param(lambda: tiny_spec(model_step="0.1"), id="model_step=str"),
    pytest.param(lambda: tiny_spec(exact_gradients="no"), id="exact_gradients=str"),
    pytest.param(lambda: tiny_spec(weight_log_every=1.5), id="weight_log_every=1.5"),
    pytest.param(lambda: tiny_spec(group_counts=[1, 1, 1]), id="group_counts=list"),
    pytest.param(lambda: tiny_spec(group_counts=(1.0, 1, 1)), id="group_counts=(1.0,1,1)"),
    pytest.param(lambda: tiny_spec(shard_size=True, batch_size=1), id="shard_size=True"),
    pytest.param(
        lambda: tiny_spec(byzantine_count=1.0, attack=AttackSpec(ATTACK_BIT_FLIP)), id="byzantine_count=1.0"
    ),
    pytest.param(lambda: tiny_spec(task=MeanTask(group2_shift=NAN)), id="group2_shift=nan"),
    pytest.param(lambda: softmax_spec(task=SoftmaxTask(n_classes=3.0, test_size=5)), id="n_classes=3.0"),
    pytest.param(
        lambda: tiny_spec(byzantine_count=1, attack=AttackSpec(ATTACK_RANDOM_NOISE, sigma="x")), id="sigma=str"
    ),
    pytest.param(
        lambda: tiny_spec(byzantine_count=1, attack=AttackSpec(ATTACK_RANDOM_NOISE, sigma=NAN)), id="sigma=nan"
    ),
    pytest.param(lambda: tiny_spec(methods=[FedAdp("fedadp", alpha=NAN)]), id="fedadp alpha=nan"),
    pytest.param(lambda: tiny_spec(methods=[Tawt("tawt", step_size="1")]), id="tawt step_size=str"),
    pytest.param(lambda: tiny_spec(methods=[meritfed(step_count=2.5)]), id="md step_count=2.5"),
    pytest.param(lambda: tiny_spec(methods=[FedAvg("fedavg-1", sample_count=1.5)]), id="fedavg sample_count=1.5"),
    pytest.param(lambda: tiny_spec(methods=[SgdIdeal("sgd-ideal", group_size=1.0)]), id="sgd-ideal group_size=1.0"),
]


class TestWronglyTypedFieldsRejected:
    @pytest.mark.parametrize("build", WRONGLY_TYPED)
    def test_config_error_before_round_zero(self, build):
        rounds = []
        with pytest.raises(ConfigError):
            run_experiment(build(), observer=lambda t, *rest: rounds.append(t))
        assert rounds == []

    def test_the_valid_bases_run(self):
        for spec in (tiny_spec(), softmax_spec()):
            assert len(run_experiment(spec).metrics) == 2

    def test_messages_name_the_field_and_the_value(self):
        cases = [
            (lambda: tiny_spec(rounds="3").validate(), "ExperimentSpec.rounds must be an integer, got '3'"),
            (
                lambda: tiny_spec(group_counts=(1.0, 1, 1)).validate(),
                "ExperimentSpec.group_counts[0] must be an integer, got 1.0",
            ),
            (
                lambda: tiny_spec(methods=["sgd-full"]).validate(),
                "ExperimentSpec.methods[0] must be of type Rule, got 'sgd-full'",
            ),
            (
                lambda: AttackSpec(ATTACK_NONE, shift_sign=True),
                "AttackSpec.shift_sign must be one of -1, 1, got True",
            ),
            (
                lambda: MdConfig(1.0, 2, estimator="newton"),
                "MdConfig.estimator must be one of 'exact-chain-rule', 'zeroth-order', got 'newton'",
            ),
            (lambda: FedAdp("fedadp", alpha=NAN), "fedadp: alpha must be a finite number, got nan"),
            (lambda: MeanTask(group2_shift=10**400), "MeanTask.group2_shift must be a finite number, got 1000"),
            (lambda: RunConfig(seeds=0), "seeds must be >= 1, got 0"),
        ]
        for build, message in cases:
            with pytest.raises(ConfigError) as caught:
                build()
            assert str(caught.value).startswith(message)

    def test_numpy_integers_and_ints_for_floats_accepted(self):
        counts = tuple(np.int64(c) for c in (1, 1, 1))
        spec = tiny_spec(
            group_counts=counts,
            dim=np.int32(2),
            master_seed=np.int64(3),
            model_step=1,
            methods=[FedAvg("fedavg-2", sample_count=np.int64(2)), FedAdp("fedadp", alpha=5)],
            attack=AttackSpec(ATTACK_NONE, sigma=0, z=np.float32(2.0)),
        )
        result = run_experiment(spec)
        same = run_experiment(tiny_spec(master_seed=3, model_step=1.0, methods=spec.methods))
        for label, x in result.final_points.items():
            np.testing.assert_array_equal(x, same.final_points[label])


class TestBoundsAndVariadicTuples:
    def test_rounds_fit_one_32_bit_word(self):
        # A round index is one word of its streams' entropy.
        tiny_spec(rounds=2**32 - 1).validate()
        rounds = []
        with pytest.raises(ConfigError, match=r"ExperimentSpec.rounds must be in \[1, 2\*\*32\), got 4294967296"):
            run_experiment(tiny_spec(rounds=2**32), observer=lambda t, *rest: rounds.append(t))
        assert rounds == []

    def test_rounds_key_past_32_bits_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        status = main(["run", "--preset", "byzantine-rn", "--set", "rounds=4294967296", "--out", out])
        err = capsys.readouterr().err.splitlines()
        assert status == 2
        assert len(err) == 1 and err[0].startswith("config error:") and "rounds" in err[0]
        assert not os.path.exists(out)

    def test_method_labels_are_strings(self):
        with pytest.raises(ConfigError, match=r"^methods\[0\] must be of type str, got 1$"):
            build_experiment(RunConfig(methods=(1,)))
        with pytest.raises(ConfigError, match=r"^methods must be a tuple of str, got \['sgd-full'\]$"):
            RunConfig(methods=["sgd-full"])
        assert RunConfig(methods=()).methods == ()


# A valid construction of every spec class; each Rule and Task subclass is
# listed, so a new one without an entry fails test_every_rule_and_task_listed.
VALID = {
    ExperimentSpec: dict(methods=[SgdFull("sgd-full")], task=MeanTask()),
    AttackSpec: dict(kind=ATTACK_NONE),
    MdConfig: dict(step_size=1.0, step_count=1),
    MeanTask: {},
    SoftmaxTask: {},
    MeritFed: dict(label="meritfed-md", md=MdConfig(step_size=1.0, step_count=1)),
    SgdFull: dict(label="sgd-full"),
    SgdIdeal: dict(label="sgd-ideal", group_size=1),
    FedAdp: dict(label="fedadp"),
    Tawt: dict(label="tawt", step_size=1.0),
    FedAvg: dict(label="fedavg-1", sample_count=1),
    RunConfig: {},
}


def build_and_check(cls, **fields):
    """Construct cls; an ExperimentSpec, which checks at validate, is validated too."""
    obj = cls(**fields)
    if cls is ExperimentSpec:
        obj.validate()
    return obj


class TestEveryFieldChecked:
    def test_every_rule_and_task_listed(self):
        assert set(Rule.__subclasses__() + Task.__subclasses__()) <= set(VALID)

    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_each_field_set_to_an_object_rejected(self, cls):
        build_and_check(cls, **VALID[cls])
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        assert names
        for name in names:
            with pytest.raises(ConfigError, match=rf"\b{name} must be "):
                build_and_check(cls, **{**VALID[cls], name: object()})
