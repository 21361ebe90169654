import pytest

from rile.envs import MazeSpec, generate_expert
from rile.nets import mlp_to_bytes
from rile.orchestrator import RunConfig, run_training

EXPERT = generate_expert(MazeSpec(), 2)

# Tiny nets, buffers and batches; 12-step episodes so that rile_on finishes
# the 25 rollouts after which it writes an update row.
TINY = dict(
    env=MazeSpec(max_steps=12),
    student_hidden=(8, 8), trainer_hidden=(8, 8), disc_hidden=(8, 8),
    student_buffer=512, trainer_buffer=512, disc_buffer=512,
    student_batch=16, trainer_batch=16, disc_batch=8,
    total_steps=400, warmup_steps=50, eval_every=200, eval_episodes=2,
    metric_window=100, bc_epochs=3,
)


def _trained_nets(artifacts):
    nets = [artifacts.student.actor, artifacts.student.critic,
            artifacts.student.critic_target]
    if artifacts.trainer is not None:
        nets += [artifacts.trainer.actor, artifacts.trainer.critic,
                 artifacts.trainer.critic_target]
    if artifacts.disc is not None:
        nets.append(artifacts.disc.params)
    if artifacts.airl is not None:
        nets += [artifacts.airl.reward, artifacts.airl.potential]
    return [mlp_to_bytes(p) for p in nets]


@pytest.mark.parametrize("algorithm", ["rile_off", "rile_on", "gail", "airl", "bc"])
def test_same_seed_runs_are_bit_identical(algorithm):
    cfg = RunConfig(algorithm=algorithm, seed=7, **TINY)
    first = run_training(cfg, EXPERT)
    second = run_training(cfg, EXPERT)

    # Both runs trained: every algorithm logs at least one update row.
    assert any(k in row for row in first.diagnostics_rows
               for k in ("disc_loss", "train_loss"))
    assert _trained_nets(first) == _trained_nets(second)
    assert first.diagnostics_rows == second.diagnostics_rows
    assert first.metrics_rows == second.metrics_rows
    assert (first.final_return, first.final_goal_rate) == (
        second.final_return, second.final_goal_rate)
