"""Episode-count comparison of every agent on the gem and island tasks.

Gem has no repeated subtasks, so the structure-aware agents collapse to
plain search there; the island task repeats its wood-gathering cycle three
times and rewards anything able to exploit that. Writes per-run CSVs, a
summary CSV, and learning-curve SVGs under demo_out/.
"""

from procsearch.harness import parse_sweep_spec, sweep

SPEC = """
envs=gem,island
agents=bps,plots_sketch,plots_nosketch,bpsosa,rmax_plus,ucb_plus
seeds=0-2
"""
OUT_DIR = "demo_out"


def main():
    result = sweep(parse_sweep_spec(SPEC), out_dir=OUT_DIR)
    print(f"{'env':<8} {'agent':<16} {'episodes':>9} {'complete':>9}")
    for row in result.summary_rows:
        print(f"{row['env']:<8} {row['agent']:<16} {row['mean_episodes']:>9.1f} "
              f"{row['complete_rate']:>9.2f}")
    print("\nartifacts in", OUT_DIR)


if __name__ == "__main__":
    main()
