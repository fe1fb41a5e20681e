"""
Generated maps and benchmark sweeps
===================================

"""

# Random boards come from one call: width, height, obstacle density, start
# count (None marks every free cell), goal count, seed. Rejection sampling
# keeps every start connected to a goal.
from evopath import gen_map

for density in (0.0, 0.2, 0.4):
    grid = gen_map(6, 6, density, 2, 1, 7)
    print(f"density {density}:")
    print(grid.to_text())

# A sweep runs a full train-and-evaluate experiment per (algorithm, axis
# value, repetition) cell. Each cell gets its own seed derived from the
# master seed, so adding a value or an algorithm never perturbs the others.
from evopath import SweepSpec, run_sweep

base = {
    "seed": "11",
    "timing": "off",
    "map.density": "0.15",
    "map.goals": "1",
    "egt.episodes": "auto",
    "eval.episodes": "10",
}
spec = SweepSpec(axis="grid_size", values=(6, 10), algorithms=("astar", "egt"), reps=2)

data, summary = run_sweep(spec, base)
print(data)

# The summary holds one row per (algorithm, value): means over repetitions.
print(summary)

# With timing off the whole thing is reproducible to the byte.
again, again_summary = run_sweep(spec, base)
print("byte identical rerun:", (data, summary) == (again, again_summary))
