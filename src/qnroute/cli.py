"""Command-line interface.

Subcommands mirror the pipeline stages: ``generate`` a graph file,
``cluster`` it into a scheme document, ``route``/``eval``/``qsearch``
against a scheme document, ``compare`` two configurations, and ``report``
to run a full experiment from a config file. Exit code 0 means every
enabled assertion passed. ``report`` reads every setting from its config
file, a null for a known field standing for the field's default;
``--out-dir`` applies only where the file sets no ``output_dir``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import harness
from .errors import (
    ConfigError, InvalidRequestError, QnrouteError, check_output_dir, make_output_dir,
)
from .metrics import metric_by_name
from .qsearch import instance_from_table, run_search
from .routing import evaluate_all_pairs, resolve
from .serialize import dump_json, load_json, scheme_from_dict, scheme_to_dict
from .topology import generate_graph, load_graph, save_graph


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        key, _, raw = pair.partition("=")
        if not raw:
            raise ConfigError(f"bad parameter {pair!r}, expected key=value")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _check_node(tables, flag: str, v: int) -> None:
    if not 0 <= v < tables.n_e:
        raise InvalidRequestError(
            f"{flag} {v}: the scheme has nodes 0 to {tables.n_e - 1}"
        )


def _check_non_negative(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise InvalidRequestError(f"{flag} {value}: must be non-negative")


def cmd_generate(args) -> int:
    metric = metric_by_name(args.metric, **_parse_params(args.metric_param))
    graph = generate_graph(
        args.model, args.n_e, _parse_params(args.param), metric, seed=args.seed
    )
    save_graph(graph, args.out)
    print(f"wrote {args.out}: n_e={graph.n_e} edges={graph.edge_count()}")
    return 0


def cmd_cluster(args) -> int:
    graph = load_graph(args.graph)
    known = harness.ExperimentConfig.__dataclass_fields__
    fields = {k: v for k, v in vars(args).items() if k in known}
    if "metric_params" in fields:
        fields["metric_params"] = _parse_params(fields["metric_params"])
    config = harness.ExperimentConfig(n_e=graph.n_e, **fields)
    config.validate()
    tables = harness.build_scheme(config, graph, args.seed)
    dump_json(scheme_to_dict(tables, config.metric, config.metric_params), args.out)
    sizes = [len(t) for t in tables.tables]
    print(
        f"wrote {args.out}: scheme={config.scheme} k={config.effective_k()} "
        f"tables max={max(sizes)} mean={sum(sizes) / len(sizes):.1f}"
    )
    return 0


def cmd_route(args) -> int:
    from .routing import make_packet, swap_and_replenish
    from .serialize import write_delivery_log

    _check_non_negative("--send", args.send)
    _check_non_negative("--replenish-rate", args.replenish_rate)
    tables, _, _ = scheme_from_dict(load_json(args.scheme))
    _check_node(tables, "--source", args.source)
    _check_node(tables, "--dest", args.dest)
    if args.source == args.dest:
        raise InvalidRequestError("--source and --dest must name different nodes")
    if args.delivery_log:
        check_output_dir(args.delivery_log)
    path = resolve(
        tables, args.source, args.dest, allow_fallback=not args.no_fallback
    )
    # an unresolved pair's cost and stretch are infinite, which JSON cannot
    # hold: they print as null
    print(
        json.dumps(
            {
                "source": args.source,
                "dest": args.dest,
                "case": path.case.value,
                "nodes": list(path.nodes),
                "cost": path.total_cost if math.isfinite(path.total_cost) else None,
                "optimal": path.optimal,
                "stretch": path.stretch if math.isfinite(path.stretch) else None,
                "reason": path.reason,
            },
            sort_keys=True,
            allow_nan=False,
        )
    )
    if args.send:
        records = []
        for _ in range(args.send):
            attempt = resolve(
                tables, args.source, args.dest, allow_fallback=not args.no_fallback
            )
            packet = make_packet(tables.plan, args.source, args.dest)
            records.append(
                swap_and_replenish(
                    tables, attempt, packet, replenish_rate=args.replenish_rate
                )
            )
        delivered = sum(r.success for r in records)
        consumed = sum(len(r.consumed) for r in records)
        on_demand = sum(len(r.on_demand) for r in records)
        print(
            f"delivered {delivered}/{len(records)} packets; "
            f"segments consumed {consumed}, on demand {on_demand}"
        )
        if args.delivery_log:
            write_delivery_log(records, args.delivery_log)
            print(f"wrote {args.delivery_log}")
    return 0 if path.case.value != "failure" else 1


def cmd_eval(args) -> int:
    tables, _, _ = scheme_from_dict(load_json(args.scheme))
    out_dir = harness.resolve_output_dir(args.out_dir)
    make_output_dir(out_dir)
    evaluation = evaluate_all_pairs(tables)
    csv_path = os.path.join(out_dir, args.prefix + "_pairs.csv")
    harness.write_pairs_csv(csv_path, [(tables.seed, evaluation)])
    summary = {
        "schema_version": harness.SCHEMA_VERSION,
        "max_stretch": evaluation.max_stretch,
        "mean_stretch": evaluation.mean_stretch,
        "case_counts": dict(evaluation.case_counts),
        "fallback_fraction": evaluation.fallback_fraction,
        "failure_fraction": evaluation.failure_fraction,
        "fallback_reasons": dict(evaluation.fallback_reasons),
    }
    json_path = os.path.join(out_dir, args.prefix + "_summary.json")
    dump_json(summary, json_path)
    print(f"wrote {csv_path} and {json_path}; max stretch {evaluation.max_stretch}")
    return 0


def cmd_qsearch(args) -> int:
    _check_non_negative("--iterations", args.iterations)
    tables, _, _ = scheme_from_dict(load_json(args.scheme))
    _check_node(tables, "--owner", args.owner)
    _check_node(tables, "--target", args.target)
    instance = instance_from_table(tables.table(args.owner), tables.plan)
    outcome = run_search(
        instance, args.target, iterations=args.iterations, seed=args.seed
    )
    print(
        json.dumps(
            {
                "owner": args.owner,
                "target": args.target,
                "iterations": outcome.iterations,
                "measured": outcome.measured,
                "hit_labels": sorted(outcome.hit_labels),
                "success_probability": outcome.success_probability,
                "distribution": list(outcome.distribution),
            },
            sort_keys=True,
        )
    )
    return 0


def _load_config(path: str) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a config must be a JSON object")
    return doc


def cmd_compare(args) -> int:
    config_a = harness.ExperimentConfig.from_dict(_load_config(args.config_a))
    config_b = harness.ExperimentConfig.from_dict(_load_config(args.config_b))
    check_output_dir(args.out)
    doc = harness.compare_schemes(config_a, config_b)
    dump_json(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    # a null known field takes its default; an unknown field is kept, null
    # or not, so that ``from_dict`` refuses it
    known = harness.ExperimentConfig.__dataclass_fields__
    doc = {k: v for k, v in _load_config(args.config).items() if v is not None or k not in known}
    if args.out_dir:
        doc.setdefault("output_dir", args.out_dir)
    config = harness.ExperimentConfig.from_dict(doc)
    report = harness.run_experiment(config)
    for line in harness.assertion_lines(report):
        print(line)
    csv_path = os.path.join(
        harness.resolve_output_dir(config.output_dir), config.name + "_pairs.csv"
    )
    print(f"outputs: {csv_path}, {config.name}_summary.json and {config.name}_timings.json")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnroute",
        description="Compact entanglement routing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="store_true",
        help="log progress notes, such as graph generation retries, to stderr",
    )

    p = sub.add_parser("generate", parents=[common],
                       help="generate a connected overlay graph file")
    p.add_argument("--model", default="erdos_renyi")
    p.add_argument("--n-e", dest="n_e", type=int, required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--metric", default="hop")
    p.add_argument("--metric-param", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    # a flag whose destination is an ExperimentConfig field is absent unless
    # given, so the config's default applies
    p = sub.add_parser("cluster", parents=[common], argument_default=argparse.SUPPRESS,
                       help="build neighborhoods, cover, and tables")
    p.add_argument("--graph", required=True)
    p.add_argument("--scheme", choices=["partial", "full"])
    p.add_argument("--metric")
    p.add_argument("--metric-param", dest="metric_params", action="append", metavar="KEY=VALUE")
    p.add_argument("--m", type=float)
    p.add_argument("--k", dest="k_override", type=int, metavar="K",
                   help="override the derived neighborhood size")
    p.add_argument("--anchors", dest="anchor_method", choices=["greedy", "random"])
    p.add_argument("--f", type=int)
    p.add_argument("--ebit-budget", type=int)
    p.add_argument("--capacity-cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("route", parents=[common], help="resolve one source/destination pair")
    p.add_argument("--scheme", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--dest", type=int, required=True)
    p.add_argument("--no-fallback", action="store_true")
    p.add_argument("--send", type=int, default=0,
                   help="also deliver this many packets, consuming ebits")
    p.add_argument("--replenish-rate", type=int, default=0)
    p.add_argument("--delivery-log", default=None, help="CSV path for delivery records")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("eval", parents=[common], help="resolve all pairs and emit CSV + summary")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--prefix", default="eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("qsearch", parents=[common], help="amplified lookup inside one table")
    p.add_argument("--scheme", required=True)
    p.add_argument("--owner", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_qsearch)

    p = sub.add_parser("compare", parents=[common], help="paired-seed comparison of two configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", parents=[common], help="run an experiment config end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None,
                   help="output directory where the config sets no output_dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except QnrouteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
