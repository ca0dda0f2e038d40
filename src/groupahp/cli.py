"""Command-line interface for batch aggregation, attacks, and experiments.

Exit codes: 0 success, 2 parse error, 3 domain invariant violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .aggregate import _wgm_stack
from .attack import run_attack
from .core import _ranking
from .errors import DomainError, GroupAHPError, PanelParseError
from .inconsistency import _stack_k, panel_cis
from .montecarlo import (
    Scenario,
    experiment1,
    experiment2,
    generate_corpus,
    headline_stats,
    summarize,
)
from .panelio import RunConfig, check_value, load_config, load_panel, panel_document, save_panel
from .robust import METHODS, _panel_weights

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _print_vector(label: str, w: np.ndarray) -> None:
    print(f"{label}: [{', '.join(map(_fmt, w.tolist()))}]")


def _load_config(args) -> RunConfig:
    """The ``--config`` file, with each ``--seed``, ``--workers`` or ``--max-bribes`` given
    checked like its config key and put over it."""
    flags = {key: getattr(args, key, None) for key in ("seed", "workers", "max_bribes")}
    return replace(load_config(args.config), **{
        key: check_value(key, value, "--" + key.replace("_", "-"))
        for key, value in flags.items() if value is not None
    })


def cmd_aggregate(args) -> int:
    panel, ids = load_panel(args.input)
    config = _load_config(args)
    print(f"panel: {panel.k} experts, {panel.n} alternatives")
    G, CI, weights = _panel_weights(panel, config.robust)
    for eid, v in zip(ids, G):
        _print_vector(f"priorities {eid}", v)
    for eid, ci in zip(ids, CI.tolist()):
        print(f"CI {eid}: {_fmt(ci)}")
    W = dict(zip(METHODS, weights)).get(args.method)  # None for CLASSIC
    if W is not None:
        _print_vector("expert weights", W[0])
    final = _wgm_stack(W, G[None])[0]
    _print_vector(f"final ranking ({args.method})", final)
    order = _ranking(final).tolist()
    print("order:", " > ".join(f"a{i + 1}" for i in order))
    print(f"winner: a{order[0] + 1} ({_fmt(final[order[0]])})")
    return 0


def cmd_attack(args) -> int:
    panel, ids = load_panel(args.input)
    config = _load_config(args)
    outcome = run_attack(panel, config.max_bribes, config.saturation)
    if args.out:  # a failed write prints nothing
        save_panel(args.out, outcome.manipulated_panel, ids)
    _print_vector("honest aggregate", outcome.honest_ranking.weights)
    print("bribed:", [ids[q] for q in outcome.bribed_indices])
    _print_vector("manipulated ranking", outcome.manipulated_ranking.weights)
    print("success:", outcome.succeeded)
    if args.out:
        print("manipulated panel written to", args.out)
    return 0


def cmd_inspect(args) -> int:
    panel, ids = load_panel(args.input)
    print(f"panel: {panel.k} experts, {panel.n} alternatives")
    ks = map(_fmt, _stack_k(panel.stack).tolist()) if panel.n >= 3 else ["n/a"] * panel.k
    for eid, ci, k in zip(ids, panel_cis(panel), ks):
        print(f"{eid}: CI={_fmt(ci)} K={k}")
    return 0


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])


def _prepare_run(args) -> tuple[RunConfig, Path, list[Scenario]]:
    """Resolve the config, check that the output directory is writable, generate the corpus."""
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"
    probe.write_text("")
    probe.unlink()
    scenarios = generate_corpus(
        config.seed,
        config.counts,
        config.alphas,
        config.panel_size,
        config.epsilon_distribution,
    )
    return config, out_dir, scenarios


def cmd_experiment(args) -> int:
    config, out_dir, scenarios = _prepare_run(args)
    if args.which == 1:
        records = experiment1(scenarios, config.robust, config.max_bribes, config.saturation)
    else:
        records = experiment2(scenarios, config.robust)
    # load_config rejects an empty corpus, so there is a first row
    _write_csv(out_dir / "records.csv", list(records[0]), (r.values() for r in records))
    _write_csv(
        out_dir / "summary.csv",
        ["bucket_ci", "method", "metric", "value", "count"],
        summarize(records),
    )
    print(f"wrote {out_dir / 'records.csv'} and {out_dir / 'summary.csv'}")
    for method, stats in headline_stats(records).items():
        for key, value in stats.items():
            print(f"{method.lower()} {key} {_fmt(value)}")
    return 0


def cmd_gen(args) -> int:
    _, out_dir, scenarios = _prepare_run(args)
    index = []
    for s in scenarios:
        name = f"scenario_{s.scenario_id:05d}.json"
        doc = {
            "scenario_id": s.scenario_id,
            "base_vector": s.base_vector.weights.tolist(),
            "alpha": s.alpha,
            "mean_ci": s.mean_ci,
            **panel_document(s.panel),
        }
        (out_dir / name).write_text(json.dumps(doc))
        index.append((s.scenario_id, name, s.panel.n, s.alpha, s.mean_ci))
    _write_csv(
        out_dir / "index.csv",
        ["scenario_id", "file", "n", "alpha", "mean_ci"],
        index,
    )
    print(f"wrote {len(scenarios)} scenarios to {out_dir}")
    return 0


@functools.cache  # one parser per process: main parses each command with the same one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupahp",
        description="Group AHP aggregation, bribery attacks, and Monte Carlo experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="aggregate an expert panel")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="CLASSIC", choices=["CLASSIC", *METHODS])
    p.add_argument("--config")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("attack", help="run the bribery attack on a panel")
    p.add_argument("--input", required=True)
    p.add_argument("--config")
    p.add_argument("--out", help="write the manipulated panel here")
    p.add_argument("--max-bribes", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--which", type=int, required=True, choices=[1, 2])
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gen", help="generate a scenario corpus to disk")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("inspect", help="per-matrix inconsistency report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PanelParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except GroupAHPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
