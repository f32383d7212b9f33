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
from .routing import Origin, RoutingTable, SchemeTables, TableEntry
from .topology import ENeighborhood, NetworkGraph, all_pairs_optimal

SCHEMA_VERSION = 1


def scheme_to_dict(tables: SchemeTables, metric_name: str, metric_params: dict | None = None) -> dict:
    plan = tables.plan
    if plan is None:
        raise ValueError("scheme serialization requires an address plan")

    def addr(v: int) -> str:
        return plan.esp_addresses[v].bits

    doc = {
        "schema_version": SCHEMA_VERSION,
        "scheme": tables.scheme.value,
        "metric": {"name": metric_name, "params": metric_params or {}},
        "f": tables.f,
        "ebit_budget": tables.ebit_budget,
        "capacity_cap": tables.capacity_cap,
        "plan": plan.to_dict(),
        "graph": {
            "n_e": tables.graph.n_e,
            "edges": [[i, j, c] for i, j, c in tables.graph.edges()],
        },
        "neighborhoods": {
            addr(nb.owner): [[addr(m), c] for m, c in nb.members]
            for nb in tables.neighborhoods
        },
        "tables": {
            addr(t.owner): {
                "entries": [
                    {
                        "e_hop": addr(e.e_hop),
                        "cost": e.cost,
                        "ebits": e.ebits,
                        "partitions": [sorted(addr(m) for m in p) for p in e.partitions],
                        "anchor": e.anchor_flag,
                        "origin": e.origin.value,
                    }
                    for e in t.entries
                ],
                "dropped": [[addr(peer), reason] for peer, reason in t.dropped],
            }
            for t in tables.tables
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
            "assignment": {
                addr(v): idx for v, idx in sorted(tables.tracked.assignment.items())
            },
        }
    return doc


def scheme_from_dict(doc: dict) -> tuple[SchemeTables, str, dict]:
    """Rebuild a SchemeTables plus the metric name/params it was built with.

    Another schema version, a missing field, an invalid value or an address
    the plan does not assign raises ``SchemeDocumentError``.
    """
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemeDocumentError(
            f"scheme document has schema_version {version!r}; "
            f"only {SCHEMA_VERSION} is supported"
        )
    try:
        return _read_scheme(doc)
    except KeyError as err:
        raise SchemeDocumentError(
            f"scheme document: missing field or unknown address {err.args[0]!r}"
        ) from None
    except ValueError as err:
        raise SchemeDocumentError(f"scheme document: {err}") from None


def _read_scheme(doc: dict) -> tuple[SchemeTables, str, dict]:
    plan = AddressPlan.from_dict(doc["plan"])
    index_of = {a.bits: i for i, a in enumerate(plan.esp_addresses)}

    graph = NetworkGraph(n_e=doc["graph"]["n_e"], plan=plan)
    for i, j, c in doc["graph"]["edges"]:
        graph.add_edge(int(i), int(j), float(c))

    metric_name = doc["metric"]["name"]
    metric_params = doc["metric"].get("params", {})
    try:
        metric = metric_by_name(metric_name, **metric_params)
    except MetricError as err:
        raise SchemeDocumentError(f"scheme document: {err}") from None

    neighborhoods = [
        ENeighborhood(
            owner=index_of[owner],
            members=tuple((index_of[m], float(c)) for m, c in members),
        )
        for owner, members in sorted(
            doc["neighborhoods"].items(), key=lambda kv: index_of[kv[0]]
        )
    ]

    scheme = Scheme(doc["scheme"])
    anchors = None
    tracked = None
    if "anchors" in doc:
        anchors = AnchorSet(
            members=frozenset(index_of[a] for a in doc["anchors"]["members"]),
            construction=doc["anchors"]["construction"],
            m=doc["anchors"].get("m"),
        )
    if "tracked" in doc:
        tracked = TrackedSets(
            blocks=tuple(
                tuple(index_of[v] for v in block) for block in doc["tracked"]["blocks"]
            ),
            assignment={
                index_of[v]: idx for v, idx in doc["tracked"]["assignment"].items()
            },
        )

    # entries that announce the same mirror share one partitions tuple
    mirrors: dict[tuple, tuple[frozenset[int], ...]] = {}

    def mirror(parts: list) -> tuple[frozenset[int], ...]:
        key = tuple(map(tuple, parts))
        if key not in mirrors:
            mirrors[key] = tuple(frozenset(index_of[m] for m in part) for part in parts)
        return mirrors[key]

    tables = []
    for owner_addr, tdoc in sorted(doc["tables"].items(), key=lambda kv: index_of[kv[0]]):
        owner = index_of[owner_addr]
        table = RoutingTable(owner=owner, scheme=scheme, capacity_cap=doc["capacity_cap"])
        for edoc in tdoc["entries"]:
            table.add(
                TableEntry(
                    e_hop=index_of[edoc["e_hop"]],
                    cost=float(edoc["cost"]),
                    ebits=int(edoc["ebits"]),
                    partitions=mirror(edoc["partitions"]),
                    anchor_flag=bool(edoc["anchor"]),
                    origin=Origin(edoc["origin"]),
                )
            )
        table.dropped = [(index_of[p], reason) for p, reason in tdoc["dropped"]]
        tables.append(table)

    scheme_tables = SchemeTables(
        scheme=scheme,
        tables=tables,
        neighborhoods=neighborhoods,
        graph=graph,
        metric=metric,
        pair_costs=all_pairs_optimal(graph, metric),
        anchors=anchors,
        tracked=tracked,
        plan=plan,
        f=doc["f"],
        ebit_budget=doc["ebit_budget"],
        capacity_cap=doc["capacity_cap"],
    )
    return scheme_tables, metric_name, metric_params


def write_delivery_log(records, path: str) -> None:
    """Delivery log CSV: one row per routed packet."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write("request,source,dest,case,nodes,success,retried,consumed,detail\n")
        for idx, rec in enumerate(records):
            nodes = "-".join(str(n) for n in rec.path.nodes)
            consumed = ";".join(f"{a}-{b}" for a, b in rec.consumed)
            fh.write(
                f"{idx},{rec.path.source},{rec.path.dest},{rec.path.case.value},"
                f"{nodes},{int(rec.success)},{int(rec.retried)},{consumed},{rec.detail}\n"
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
