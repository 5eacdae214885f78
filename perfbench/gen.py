"""Seeded instance and request-stream generators for the benchmark.

Everything here is a pure function of (seed, sizes): the same seed gives
byte-identical files and request lines. Sizes are fixed per family so that
only the structure (which edges, which weights) varies with the seed, which
keeps circuit sizes, and therefore timings, comparable across seeds.
"""

import json
import random

TC_PROGRAM = """% Transitive closure, linear (paper Example 2.1).
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), E(Z,Y).
"""

TC_NONLINEAR_PROGRAM = """% Transitive closure, non-linear: forces the grounded construction.
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), T(Z,Y).
"""

REACH_PROGRAM = """% Monadic reachability (paper Example 2.1, right program).
@target U.
U(X) :- A(X).
U(X) :- U(Y), E(X,Y).
"""

BOUNDED_PROGRAM = """% The bounded program of paper Example 4.2.
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- A(X), T(Z,Y).
"""

RPQ_PROGRAM = """% Finite chain language S = A | A B (Theorem 5.8).
@target S.
S(X,Y) :- A(X,Y).
S(X,Y) :- A(X,Z), B(Z,Y).
"""

# Family sizes. `n` vertices; `deg` edges per vertex (a Hamiltonian cycle
# plus random extra out-edges), so the edge count is exactly n * deg.
FULL_SIZES = {
    "tc": {"n": 24, "deg": 3},
    "tc-nonlinear": {"n": 8, "deg": 2},
    # The cost model routes reach to uvg from n ~ 16 on (at n = 14 to
    # grounded); 18 keeps the uvg pick on every seed tried.
    "reach": {"n": 18, "deg": 2, "roots": 2},
    "bounded": {"n": 70, "deg": 2, "guards": 18},
    "rpq-finite": {"n": 400, "a_deg": 3, "b_deg": 3},
}
SMOKE_SIZES = {
    "tc": {"n": 8, "deg": 2},
    "tc-nonlinear": {"n": 5, "deg": 2},
    "reach": {"n": 6, "deg": 2, "roots": 1},
    "bounded": {"n": 8, "deg": 2, "guards": 2},
    "rpq-finite": {"n": 12, "a_deg": 1, "b_deg": 1},
}
FAMILIES = ["tc", "tc-nonlinear", "reach", "bounded", "rpq-finite"]
LANES = 16          # tagging lanes per one-shot `dlcirc run --batch`
QUERIES = 8         # facts asked per one-shot run


def vname(v):
    return "v%d" % v


def cyclic_edges(rng, n, deg):
    """n * deg distinct directed edges, no self loops, strongly connected."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    seen = set(edges)
    for u in range(n):
        extra = 0
        while extra < deg - 1:
            v = rng.randrange(n)
            if v != u and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
                extra += 1
    return edges


def weight_lanes(rng, num_vars, lanes, semiring):
    rows = []
    for _ in range(lanes):
        if semiring == "fuzzy":
            rows.append(["0.%02d" % rng.randrange(1, 100) for _ in range(num_vars)])
        else:
            rows.append([str(rng.randrange(1, 101)) for _ in range(num_vars)])
    return rows


def csv_rows(rows):
    return "".join(",".join(r) + "\n" for r in rows)


def distinct_pairs(rng, n, count):
    pairs = []
    while len(pairs) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in pairs:
            pairs.append((u, v))
    return pairs


def family_instance(family, seed, sizes):
    """One compile-workload instance: its files (name -> text), semiring,
    EDB flag and file, and the facts every run asks for."""
    rng = random.Random("%s/%d" % (family, seed))
    s = sizes[family]
    files = {}
    if family in ("tc", "tc-nonlinear"):
        n = s["n"]
        edges = cyclic_edges(rng, n, s["deg"])
        files["program.dl"] = TC_PROGRAM if family == "tc" else TC_NONLINEAR_PROGRAM
        files["edb.graph.csv"] = "".join("%s,%s\n" % (vname(u), vname(v)) for u, v in edges)
        num_vars, semiring, edb_flag = len(edges), "tropical", "--graph"
        queries = ["T(%s,%s)" % (vname(u), vname(v))
                   for u, v in distinct_pairs(rng, n, QUERIES)]
    elif family == "reach":
        n = s["n"]
        edges = cyclic_edges(rng, n, s["deg"])
        roots = rng.sample(range(n), s["roots"])
        facts = ["A(%s)." % vname(r) for r in roots]
        facts += ["E(%s,%s)." % (vname(u), vname(v)) for u, v in edges]
        files["program.dl"] = REACH_PROGRAM
        files["edb.facts"] = "\n".join(facts) + "\n"
        num_vars, semiring, edb_flag = len(facts), "tropical", "--facts"
        targets = rng.sample([v for v in range(n) if v not in roots], min(QUERIES, n - len(roots)))
        queries = ["U(%s)" % vname(v) for v in targets]
    elif family == "bounded":
        n = s["n"]
        edges = cyclic_edges(rng, n, s["deg"])
        guards = rng.sample(range(n), s["guards"])
        facts = ["E(%s,%s)." % (vname(u), vname(v)) for u, v in edges]
        facts += ["A(%s)." % vname(g) for g in guards]
        files["program.dl"] = BOUNDED_PROGRAM
        files["edb.facts"] = "\n".join(facts) + "\n"
        num_vars, semiring, edb_flag = len(facts), "fuzzy", "--facts"
        # Derivable facts: edges, and guarded vertices paired with any vertex.
        pairs = rng.sample(edges, QUERIES // 2)
        while len(pairs) < QUERIES:
            pair = (rng.choice(guards), rng.randrange(n))
            if pair not in pairs:
                pairs.append(pair)
        queries = ["T(%s,%s)" % (vname(u), vname(v)) for u, v in pairs]
    elif family == "rpq-finite":
        n = s["n"]
        rows = []
        for label, deg in (("A", s["a_deg"]), ("B", s["b_deg"])):
            for u in range(n):
                for v in rng.sample([x for x in range(n) if x != u], deg):
                    rows.append((u, v, label))
        files["program.dl"] = RPQ_PROGRAM
        files["edb.graph.csv"] = "".join("%s,%s,%s\n" % (vname(u), vname(v), l) for u, v, l in rows)
        num_vars, semiring, edb_flag = len(rows), "tropical", "--graph"
        a_edges = [(u, v) for u, v, l in rows if l == "A"]
        b_out = {}
        for u, v, l in rows:
            if l == "B":
                b_out.setdefault(u, []).append(v)
        queries = []
        for u, v in rng.sample(a_edges, QUERIES // 2):
            queries.append("S(%s,%s)" % (vname(u), vname(v)))
            queries.append("S(%s,%s)" % (vname(u), vname(rng.choice(b_out[v]))))
    else:
        raise ValueError(family)
    files["tags.csv"] = csv_rows(weight_lanes(rng, num_vars, LANES, semiring))
    edb_file = "edb.graph.csv" if edb_flag == "--graph" else "edb.facts"
    return {
        "family": family,
        "files": files,
        "semiring": semiring,
        "edb_flag": edb_flag,
        "edb_file": edb_file,
        "queries": queries,
    }


# ------------------------------------------------------------------ serving

SERVE_SIZES = {"full": {"n": 40, "deg": 3}, "smoke": {"n": 8, "deg": 2}}
FACTS_PER_REQUEST = 4
LANES_PER_CONN = 8


def serve_instance(seed, smoke):
    """The served graph (sparse cyclic TC): edge list and graph CSV text."""
    s = SERVE_SIZES["smoke" if smoke else "full"]
    rng = random.Random("serve/%d" % seed)
    edges = cyclic_edges(rng, s["n"], s["deg"])
    return {
        "n": s["n"],
        "edges": edges,
        "program": TC_PROGRAM,
        "graph_csv": "".join("%s,%s\n" % (vname(u), vname(v)) for u, v in edges),
    }


def _query(rng, n):
    return ["T(%s,%s)" % (vname(u), vname(v)) for u, v in distinct_pairs(rng, n, FACTS_PER_REQUEST)]


def eval_stream(seed, inst, count):
    """`count` inline-tag eval requests: each a fresh tropical tagging of
    every edge (weights 1..100) plus FACTS_PER_REQUEST random T(u,v)."""
    rng = random.Random("serve-eval/%d" % seed)
    m = len(inst["edges"])
    out = []
    for i in range(count):
        tags = [str(rng.randrange(1, 101)) for _ in range(m)]
        out.append({"id": i, "op": "eval", "tags": tags, "query": _query(rng, inst["n"])})
    return out


def lane_name(conn, k):
    return "c%dl%d" % (conn, k)


def lane_setup(seed, inst, conns):
    """One `lane` request per owned lane (LANES_PER_CONN per connection)."""
    rng = random.Random("serve-lanes-setup/%d" % seed)
    m = len(inst["edges"])
    out = []
    for c in range(conns):
        for k in range(LANES_PER_CONN):
            tags = [str(rng.randrange(1, 101)) for _ in range(m)]
            out.append({"id": "mk-%s" % lane_name(c, k), "op": "lane",
                        "lane": lane_name(c, k), "tags": tags,
                        "query": _query(rng, inst["n"])})
    return out


def lanes_stream(seed, inst, conns, count):
    """`count` requests, assigned round-robin to connections: ~90% lane
    reads of 4 facts, ~8% sparse updates of 1-4 edge weights, ~2% top-1
    explains; each request names a lane owned by its connection."""
    rng = random.Random("serve-lanes/%d" % seed)
    m = len(inst["edges"])
    out = []
    for i in range(count):
        lane = lane_name(i % conns, rng.randrange(LANES_PER_CONN))
        r = rng.random()
        if r < 0.90:
            req = {"id": i, "op": "eval", "lane": lane, "query": _query(rng, inst["n"])}
        elif r < 0.98:
            sets = [["x%d" % rng.randrange(m), str(rng.randrange(1, 101))]
                    for _ in range(rng.randrange(1, 5))]
            req = {"id": i, "op": "update", "lane": lane, "set": sets,
                   "query": _query(rng, inst["n"])}
        else:
            req = {"id": i, "op": "explain", "lane": lane, "mode": "proofs", "k": 1,
                   "query": _query(rng, inst["n"])[:1]}
        out.append(req)
    return out


def encode(req):
    return (json.dumps(req, separators=(",", ":")) + "\n").encode()
