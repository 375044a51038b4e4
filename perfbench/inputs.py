"""Seeded inputs.  Everything a run feeds the program derives from the
workload seed through :func:`rng`, so one seed always gives the same
documents, query sets and request schedule; the program sees only the
generated files and strings."""

from __future__ import annotations

import os
import random

from repro.workloads.xmark.generator import generate_file
from repro.workloads.xmark.queries import XMARK_QUERIES
from repro.workloads.xpathmark import XPATHMARK_QUERIES

#: QM01–QM20 (XQuery, Fig. 3) ∪ QP01–QP33 (XPath with predicates and
#: backward/sibling axes, §3.3/§4.3).
QUERIES: dict[str, str] = {**XMARK_QUERIES, **XPATHMARK_QUERIES}


def rng(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose), so adding a draw for
    one purpose never shifts the inputs of another."""
    return random.Random(f"{seed}/{label}")


def document_seed(stream: random.Random) -> int:
    return stream.randrange(1, 2**31)


def xmark(path: str, factor: float, seed: int) -> int:
    """Write one XMark document; returns its size in bytes."""
    generate_file(path, factor=factor, seed=seed)
    return os.path.getsize(path)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def stamp(markup: str, number: int) -> str:
    """Make ``markup`` byte-unique for request ``number``: trailing
    whitespace after the root element encodes the number in binary
    (space = 0, tab = 1).  Whitespace after the root is outside the data
    model, so the pruned output, and its tree reference, are unchanged,
    while every content hash (the ledger's input key) differs."""
    return markup + "\n" + format(number, "024b").replace("0", " ").replace("1", "\t") + "\n"


def balanced_subsets(stream: random.Random, rounds: int, per_round: int,
                     low: int, high: int) -> list[list[str]]:
    """``rounds`` partitions of :data:`QUERIES` into ``per_round`` subsets
    of ``low``..``high`` queries, each with at least one XQuery (QM) and
    one XPath (QP) query.  Every query is analyzed exactly ``rounds``
    times per pass over the subsets, so seeds change how queries are
    grouped, not how much analysis a pass does."""
    names = sorted(QUERIES)
    subsets: list[list[str]] = []
    for _ in range(rounds):
        sizes = [low] * per_round
        for _ in range(len(names) - low * per_round):
            sizes[stream.choice([i for i, size in enumerate(sizes) if size < high])] += 1
        xquery = [name for name in names if name.startswith("QM")]
        xpath = [name for name in names if name.startswith("QP")]
        stream.shuffle(xquery)
        stream.shuffle(xpath)
        groups = [[xquery.pop(), xpath.pop()] for _ in range(per_round)]
        rest = xquery + xpath
        stream.shuffle(rest)
        for group, size in zip(groups, sizes):
            while len(group) < size:
                group.append(rest.pop())
        subsets.extend([QUERIES[name] for name in sorted(group)] for group in groups)
    return subsets


#: Templates for server-side fresh query sets: each instance carries a
#: seeded constant, so its text (the projector cache key) is new and the
#: server must run the analysis.
FRESH_TEMPLATES = (
    "/site/people/person[@id='person{n}']/name",
    "/site/closed_auctions/closed_auction[price > {n}]/price",
    "//item[quantity > {n}]/name",
    "/site/people/person[profile/age > {n}]/emailaddress",
    'for $b in /site/people/person where $b/@id = "person{n}" return $b/name/text()',
    "for $a in /site/open_auctions/open_auction where $a/initial > {n} return <a>{{$a/current/text()}}</a>",
)


def fresh_query_set(stream: random.Random) -> list[str]:
    count = stream.randint(1, 3)
    templates = stream.sample(FRESH_TEMPLATES, count)
    return [template.format(n=stream.randrange(10**9)) for template in templates]
