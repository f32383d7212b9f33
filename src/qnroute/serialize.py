"""Scheme-document and report serialization.

Node references inside documents are fixed-width address bitstrings; integer
node ids appear only in the plain-text graph format. JSON documents carry a
schema_version field and serialize with sorted keys so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json

from .addressing import AddressPlan
from .clustering import AnchorSet, Scheme, TrackedSets
from .errors import InputFileError, MetricError, SchemeDocumentError
from .metrics import metric_by_name
from .routing import SchemeTables, build_tables
from .topology import NetworkGraph, all_neighborhoods, all_pairs_optimal

SCHEME_SCHEMA_VERSION = 3
DELIVERY_LOG_SCHEMA_VERSION = 2


def scheme_to_dict(tables: SchemeTables, metric_name: str, metric_params: dict | None = None) -> dict:
    """The scheme's inputs, from which ``scheme_from_dict`` derives every
    neighborhood and table again.

    A document describes a freshly built scheme: one whose entries hold fewer
    ebits than the budget raises ``ValueError``.
    """
    plan = tables.plan
    debited = sum(e.ebits < tables.ebit_budget for t in tables.tables for e in t.entries)
    if debited:
        raise ValueError(f"{debited} entries hold fewer ebits than the budget")

    def addr(v: int) -> str:
        return plan.esp_addresses[v].bits

    doc = {
        "schema_version": SCHEME_SCHEMA_VERSION,
        "scheme": tables.scheme.value,
        "metric": {"name": metric_name, "params": metric_params or {}},
        "k": tables.neighborhoods[0].k,
        "f": tables.f,
        "ebit_budget": tables.ebit_budget,
        "capacity_cap": tables.capacity_cap,
        "graph": {
            "n_e": tables.graph.n_e,
            "edges": [[i, j, c] for i, j, c in tables.graph.edges()],
        },
    }
    if tables.anchors is not None:
        doc["anchors"] = {
            "members": sorted(addr(a) for a in tables.anchors.members),
            "construction": tables.anchors.construction,
            "m": tables.anchors.m,
        }
    if tables.tracked is not None:
        doc["tracked"] = {
            "blocks": [[addr(v) for v in block] for block in tables.tracked.blocks],
            "assignment": {addr(v): idx for v, idx in sorted(tables.tracked.assignment.items())},
        }
    return doc


def scheme_from_dict(doc: dict) -> tuple[SchemeTables, str, dict]:
    """Rebuild a SchemeTables plus the metric name/params it was built with,
    through ``all_pairs_optimal``, ``all_neighborhoods`` and ``build_tables``.

    Another schema version, a missing field, an invalid value or a node
    reference other than a node id's ``AddressPlan`` bitstring raises
    ``SchemeDocumentError``.
    """
    version = doc.get("schema_version")
    if version != SCHEME_SCHEMA_VERSION:
        raise SchemeDocumentError(
            f"scheme document has schema_version {version!r}; "
            f"only {SCHEME_SCHEMA_VERSION} is supported"
        )
    try:
        return _read_scheme(doc)
    except (MetricError, TypeError, ValueError) as err:
        raise SchemeDocumentError(f"scheme document: {err}") from None
    except KeyError as err:
        raise SchemeDocumentError(
            f"scheme document: missing field or unknown address {err.args[0]!r}"
        ) from None


def _read_scheme(doc: dict) -> tuple[SchemeTables, str, dict]:
    n_e, k, f = doc["graph"]["n_e"], doc["k"], doc["f"]
    edges = doc["graph"]["edges"]
    if not 1 <= k < n_e:
        raise ValueError(f"k {k}: must be in [1, {n_e})")
    if not 1 <= f <= k:
        raise ValueError(f"f {f}: must be in [1, k={k}]")
    if len(edges) < n_e - 1:
        # checked before anything of size n_e is built
        raise ValueError(f"graph: {len(edges)} edges cannot connect {n_e} nodes")
    index_of = AddressPlan(n_e).node

    graph = NetworkGraph(n_e=n_e)
    for i, j, c in edges:
        graph.add_edge(int(i), int(j), float(c))
    metric_name = doc["metric"]["name"]
    metric_params = doc["metric"].get("params", {})
    metric = metric_by_name(metric_name, **metric_params)

    anchors = tracked = None
    if Scheme(doc["scheme"]) is Scheme.PARTIAL_ANCHOR:
        anchors = AnchorSet(
            members=frozenset(index_of(a) for a in doc["anchors"]["members"]),
            construction=doc["anchors"]["construction"],
            m=doc["anchors"].get("m"),
        )
    else:
        blocks = tuple(tuple(index_of(v) for v in block) for block in doc["tracked"]["blocks"])
        assignment = {index_of(v): idx for v, idx in doc["tracked"]["assignment"].items()}
        if len(assignment) != n_e:
            raise ValueError(f"tracked.assignment covers {len(assignment)} of {n_e} nodes")
        if not all(0 <= idx < len(blocks) for idx in assignment.values()):
            raise ValueError(f"tracked.assignment: block indices must lie in [0, {len(blocks)})")
        tracked = TrackedSets(blocks=blocks, assignment=assignment)

    pair_costs = all_pairs_optimal(graph, metric)
    tables = build_tables(
        graph, metric, all_neighborhoods(graph, k, pair_costs), pair_costs,
        anchors=anchors, tracked=tracked, f=f, ebit_budget=doc["ebit_budget"],
        capacity_cap=doc["capacity_cap"],
    )
    return tables, metric_name, metric_params


def write_delivery_log(records, path: str) -> None:
    """Delivery log CSV: one row per routed packet."""

    def segments(pairs) -> str:
        return ";".join(f"{a}-{b}" for a, b in pairs)

    with open(path, "w", newline="\n") as fh:
        fh.write(f"# schema_version={DELIVERY_LOG_SCHEMA_VERSION}\n")
        fh.write("request,source,dest,case,nodes,success,retried,consumed,on_demand,detail\n")
        for idx, rec in enumerate(records):
            nodes = "-".join(str(n) for n in rec.path.nodes)
            fh.write(
                f"{idx},{rec.path.source},{rec.path.dest},{rec.path.case.value},"
                f"{nodes},{int(rec.success)},{int(rec.retried)},{segments(rec.consumed)},"
                f"{segments(rec.on_demand)},{rec.detail}\n"
            )


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InputFileError(f"cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise InputFileError(f"{path} is not valid JSON: {err}") from None
