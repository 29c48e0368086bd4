"""Command line front end.

    procsearch run --env island --agent bps --seed 0 [--out DIR]
    procsearch sweep --spec sweep.txt [--out DIR] [--jobs N]
    procsearch demo-gen --env cpr --out cpr_demo.txt
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .agents import ConfigError
from .core import write_demo_file
from .envs import make_task
from .harness import RunConfig, field_type, parse_sweep_spec, run, sweep


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="procsearch",
                                description="Procedure learning from observation trajectories")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="one seeded learning run")
    # one flag per RunConfig field, required ones first; a bool field
    # defaults to true and is switched off by --no-<name>
    for f in sorted(fields(RunConfig), key=lambda f: f.default is not MISSING):
        name = f.name.replace("_", "-")
        kind = field_type(f)
        if kind is bool:
            pr.add_argument(f"--no-{name}", dest=f.name, action="store_false")
        else:
            pr.add_argument(f"--{name}", dest=f.name, type=kind, required=f.default is MISSING,
                            default=f.default, help=f.metadata.get("help"))

    ps = sub.add_parser("sweep", help="run a grid of configs from a spec file")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--out", default="sweep_out")
    ps.add_argument("--jobs", type=int, default=1)

    pd = sub.add_parser("demo-gen", help="write an environment's demonstration file")
    pd.add_argument("--env", required=True)
    pd.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
            record = run(config)
            print(f"env={config.env} agent={config.agent} seed={config.seed} "
                  f"episodes={record.episodes} episodes_run={len(record.rows)} "
                  f"steps={record.total_steps} "
                  f"backtracks={record.backtracks} complete={record.complete} "
                  f"stop_reason={record.stop_reason}")
            return 0
        if args.command == "sweep":
            spec_text = Path(args.spec).read_text()
            configs = parse_sweep_spec(spec_text)
            result = sweep(configs, out_dir=args.out, jobs=args.jobs)
            print(f"{len(result.records)} runs -> {result.out_dir}/summary.csv")
            for row in result.summary_rows:
                print(f"  {row['env']:<10} {row['agent']:<16} "
                      f"mean_episodes={row['mean_episodes']:.1f} "
                      f"complete={row['complete_rate']:.2f}")
            return 0
        if args.command == "demo-gen":
            task = make_task(args.env)
            demo = task.demo()
            Path(args.out).write_text(write_demo_file(demo, task.env().n_actions))
            print(f"wrote {args.out} (H={demo.horizon})")
            return 0
    except (ConfigError, KeyError, OSError, ValueError) as e:
        # str() of a KeyError is the repr of its key, quotes and all
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
