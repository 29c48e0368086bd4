"""Sketch-free repeat mining: hypothesized subtasks are repeated action
subsequences of the confirmed plan, ranked by how often they repeat."""

from procsearch.envs.craft import ACTION_NAMES
from procsearch.repeats import RepeatStore


def main():
    down, left, use = 1, 2, 4
    plan = [down, down, down, down, left, use, down, down, down, down, left, use, down, down]
    store = RepeatStore()
    for t in range(1, len(plan) + 1):
        store.update(bytes(plan[:t]))

    print("plan:", " ".join(ACTION_NAMES[a] for a in plan))
    print("\nrepeated subsequences (count desc):")
    ranked = sorted(store.counts.items(), key=lambda kv: (-kv[1], -len(kv[0])))
    for seq, count in ranked[:6]:
        print(f"  x{count}  {' '.join(ACTION_NAMES[a] for a in seq)}")

    suggestions = store.suggest_ranked()
    print("\nnext-action suggestions after the trailing (down, down):",
          [ACTION_NAMES[a] for a in suggestions])


if __name__ == "__main__":
    main()
