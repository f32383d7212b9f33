"""Scheme-document and report serialization.

A scheme document is a scheme's build recipe: the graph, the metric, and the
construction fields and seed that ``harness.build_scheme`` took. Readers build
the scheme again through that same function, so a document names a node only
as an integer id in the graph's edge list. JSON documents carry a
schema_version field and serialize with sorted keys so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import re

from .errors import (
    ConfigError,
    EdgeListError,
    InputFileError,
    MetricError,
    SchemeDocumentError,
    open_output,
    read_text,
)
from .harness import ExperimentConfig, build_scheme
from .metrics import metric_by_name
from .routing import SchemeTables
from .topology import graph_from_edges

SCHEME_SCHEMA_VERSION = 4
DELIVERY_LOG_SCHEMA_VERSION = 2
_SCHEME_FIELDS = {
    "schema_version", "scheme", "anchor_method", "metric", "k", "f", "ebit_budget",
    "capacity_cap", "seed", "graph",
}
# the document fields that ExperimentConfig names otherwise
_DOCUMENT_NAMES = {"k_override": "k", "seeds": "seed"}


def scheme_to_dict(tables: SchemeTables, metric_name: str, metric_params: dict | None = None) -> dict:
    """The recipe ``harness.build_scheme`` built ``tables`` from, from which
    ``scheme_from_dict`` builds them again.

    A document describes a freshly built scheme: one whose entries hold fewer
    ebits than the budget, or that ``harness.build_scheme`` did not build,
    raises ``ValueError``.
    """
    debited = sum(e.ebits < tables.ebit_budget for t in tables.tables for e in t.entries)
    if debited:
        raise ValueError(f"{debited} entries hold fewer ebits than the budget")
    if tables.seed is None:
        raise ValueError("tables not built by harness.build_scheme have no recipe")
    doc = {
        "schema_version": SCHEME_SCHEMA_VERSION,
        "scheme": tables.scheme.value,
        "metric": {"name": metric_name, "params": metric_params or {}},
        "k": tables.neighborhoods[0].k,
        "f": tables.f,
        "ebit_budget": tables.ebit_budget,
        "capacity_cap": tables.capacity_cap,
        "seed": tables.seed,
        "graph": {
            "n_e": tables.graph.n_e,
            "edges": [[i, j, c] for i, j, c in tables.graph.edges()],
        },
    }
    if tables.anchors is not None:
        doc["anchor_method"] = tables.anchors.construction
    return doc


def scheme_from_dict(doc: dict) -> tuple[SchemeTables, str, dict]:
    """Rebuild a SchemeTables plus the metric name/params it was built with,
    through ``harness.build_scheme``.

    Another schema version, an unknown or missing field, or a value that
    ``ExperimentConfig.validate``, the metric or the graph refuses raises
    ``SchemeDocumentError``.
    """
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEME_SCHEMA_VERSION:
        raise SchemeDocumentError(
            f"scheme document has schema_version {version!r}; "
            f"only {SCHEME_SCHEMA_VERSION} is supported"
        )
    unknown = sorted(set(doc) - _SCHEME_FIELDS)
    if unknown:
        raise SchemeDocumentError(f"scheme document: unknown fields {unknown}")
    try:
        return _read_scheme(doc)
    except EdgeListError as err:
        raise SchemeDocumentError(f"scheme document: graph: {err}") from None
    except ConfigError as err:
        message = str(err)
        name = re.match(r"\w+", message)[0]
        raise SchemeDocumentError(
            f"scheme document: {_DOCUMENT_NAMES.get(name, name)}{message[len(name):]}"
        ) from None
    except (MetricError, OverflowError, TypeError, ValueError) as err:
        raise SchemeDocumentError(f"scheme document: {err}") from None
    except KeyError as err:
        raise SchemeDocumentError(f"scheme document: missing field {err.args[0]!r}") from None


def _read_scheme(doc: dict) -> tuple[SchemeTables, str, dict]:
    scheme, graph_doc, metric_doc = doc["scheme"], doc["graph"], doc["metric"]
    if scheme == "full" and "anchor_method" in doc:
        raise ValueError("anchor_method: a full scheme elects no anchors")
    config = ExperimentConfig(
        n_e=graph_doc["n_e"], metric=metric_doc["name"], metric_params=metric_doc.get("params", {}),
        scheme=scheme, anchor_method=doc["anchor_method"] if scheme == "partial" else "greedy",
        k_override=doc["k"], f=doc["f"], ebit_budget=doc["ebit_budget"],
        capacity_cap=doc["capacity_cap"], seeds=[doc["seed"]],
    )
    config.validate()
    graph = graph_from_edges(config.n_e, graph_doc["edges"])
    metric = metric_by_name(config.metric, **config.metric_params)
    tables = build_scheme(config, graph, metric, doc["seed"])
    return tables, config.metric, config.metric_params


def write_delivery_log(records, path: str) -> None:
    """Delivery log CSV: one row per routed packet."""
    rows = [
        f"# schema_version={DELIVERY_LOG_SCHEMA_VERSION}\n"
        "request,source,dest,case,nodes,success,retried,consumed,on_demand,detail\n"
    ]
    for idx, rec in enumerate(records):
        route = rec.path
        consumed = ";".join([f"{a}-{b}" for a, b in rec.consumed])
        on_demand = ";".join([f"{a}-{b}" for a, b in rec.on_demand])
        rows.append(
            f"{idx},{route.source},{route.dest},{route.case.value},"
            f"{'-'.join(map(str, route.nodes))},{int(rec.success)},{int(rec.retried)},"
            f"{consumed},{on_demand},{rec.detail}\n"
        )
    with open_output(path, newline="\n") as fh:
        fh.write("".join(rows))


def dump_json(doc: dict, path: str) -> None:
    with open_output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    try:
        return json.loads(read_text(path))
    except (RecursionError, ValueError) as err:
        # not only JSONDecodeError: an int of too many digits, arrays nested too deep
        raise InputFileError(f"{path} is not valid JSON: {err}") from None
