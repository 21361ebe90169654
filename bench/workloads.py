"""The benchmark's workloads: one `RunConfig` recipe each.

Every workload trains on the default maze with a 4-episode scripted expert
dataset and the default eval, checkpoint, metric-window and log cadences.
`TOTAL_STEPS` is the first step count at which every one of those cadences
fires at least once. Early stop and trainer freezing are off in all of them,
so that every run does the same amount of work whatever the learners do; see
README.md for why each workload exists.

This module imports nothing from `rile`, so the parent process can validate
arguments without loading the program under test.
"""

TOTAL_STEPS = 10_000
EXPERT_EPISODES = 4

COMMON = {"early_stop_success": False, "freeze_threshold": 0.0}

WORKLOADS = {
    "rile_off_small": {"algorithm": "rile_off"},
    "airl_wide": {"algorithm": "airl", "student_hidden": (128, 128),
                  "disc_hidden": (128, 128)},
}
