"""The four benchmark workloads.

Each workload has

* ``prepare(B)`` -- the declared set-up: input generation plus any warm
  state the timed jobs may use.  It builds its groups with fresh
  ``named_group`` calls, so repeating it (to take a median set-up time)
  never serves one repetition from another's per-group memo.
* ``jobs(B, state, out)`` -- the fixed, seed-independent job list.  Every
  timed job builds its group with its own ``named_group`` call; no job
  recomputes a (group, computation) pair that an earlier job or the set-up
  already computed.  ``out`` collects each job's result by id, and later
  jobs may read earlier results.
* ``queries(B, state, out, rng)`` -- one pass of the seeded query stream:
  a fixed number of small lookups per group against structures already
  built.  The benchmark draws every input from ``rng``; the library only
  sees the generated inputs.
* ``digest(B, job_id, result)`` -- the mathematical content of a job's
  result, read through accessors the library keeps (``md.S[i, j]``,
  ``md.T``, quantum dimensions, mapping sets, orders, class counts, CLI
  stdout bytes), never provenance or internal types.

``B`` is the imported ``brpic`` package.  Library functions are looked up on
it (or its submodules) at call time, so the layer trace sees every call.
Query checks run after timing, with the trace removed, and use identities
that hold for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from typing import Any, Callable, NamedTuple

import numpy as np


class Job(NamedTuple):
    id: str
    run: Callable[[], Any]


class Query(NamedTuple):
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mapping_set(elements) -> list:
    return sorted({tuple(F.mapping) for F in elements})


def unit_index(B, G) -> int:
    """Index of the unit object: identity class, trivial character."""
    ident = next(c.index for c in B.conjugacy_classes(G) if c.rep == G.identity)
    return next(i for i, s in enumerate(B.simple_objects(G))
                if s.class_index == ident and s.char_index == 0)


def unit_seeded_search(B, G):
    """The whole S/T-preserving group: search from the unit object alone."""
    u = unit_index(B, G)
    return B.complete_extensions(
        B.PartialBrEq(G, {u: u}, {}, B.Provenance("searched")))


def preserves(md, mapping) -> bool:
    """The benchmark's own exact S/T check, used to grade verify queries."""
    S, T, ns = md.S, md.T, md.size
    if sorted(mapping) != list(range(ns)):
        return False
    if any(T[mapping[i]] != T[i] for i in range(ns)):
        return False
    return all(S[mapping[i], mapping[j]] == S[i, j]
               for i in range(ns) for j in range(i, ns))


# ---------------------------------------------------------------------------
# center: modular data builds and Verlinde fusion queries
# ---------------------------------------------------------------------------

class Center:
    """Fresh ``modular_data`` per group; fusion queries over the results.

    Nonabelian groups with small fields, and abelian groups where the number
    of simple objects N = |G|^2 and the field grow.  Certification and
    cyclotomic arithmetic do nearly all the work.  The fusion queries read
    ``md.S[i, j]`` entry by entry, so a representation that builds faster
    but decodes entries lazily shows up as a query regression.  Left out as
    too slow to repeat: Z/4xZ/2, Z/8, Z/5xZ/2, Z/12 (12 s to 6 min each).
    """

    name = "center"
    prepare_repeats = 5
    GROUPS = ("S3", "D4", "Q8", "A4", "S4", "A5", "S3xZ/2",
              "Z/2^2", "Z/3", "Z/5", "Z/6", "Z/2^3")
    TRIPLES = 10            # per group and pass; each is queried as (i,j,k), (j,i,k)

    def prepare(self, B):
        return {"groups": self.GROUPS}

    def jobs(self, B, state, out):
        def build(name):
            return lambda: B.modular_data(B.named_group(name))
        return [Job(f"modular_data:{name}", build(name))
                for name in state["groups"]]

    def queries(self, B, state, out, rng):
        qs = []
        for name in state["groups"]:
            md = out.get(f"modular_data:{name}")
            if md is None:
                continue
            ns = md.size
            for _ in range(self.TRIPLES):
                i, j, k = (rng.randrange(ns) for _ in range(3))
                pair = []
                for a, b in ((i, j), (j, i)):
                    pair.append(Query(
                        name, lambda md=md, a=a, b=b, k=k:
                        B.verlinde_fusion(md, a, b, k), None))
                # the check of the pair reads both values; see check_pass
                qs.extend(pair)
        return qs

    @staticmethod
    def check_pass(values) -> list[bool]:
        """N_ij^k is an integer >= 0 and equals N_ji^k."""
        ok = []
        for x, y in zip(values[0::2], values[1::2]):
            good = (isinstance(x, int) and isinstance(y, int)
                    and x >= 0 and x == y)
            ok.extend((good, good))
        return ok

    def digest(self, B, job_id, md):
        ns = md.size
        return {
            "N": ns,
            "qdims": [s.qdim for s in B.simple_objects(md.group)],
            "S": [[md.S[i, j].to_json() for j in range(ns)] for i in range(ns)],
            "T": [list(t.as_root_of_unity()) for t in md.T],
        }


# ---------------------------------------------------------------------------
# cohomology: H^2 classes and class_index queries
# ---------------------------------------------------------------------------

class Cohomology:
    """``h2_classes`` on fresh nonabelian groups of order 8 to 24.

    The dense cocycle system and its spanning-row selection (``cohom``,
    ``zmodlin``) do nearly all the work; no cyclotomic arithmetic or modular
    data is involved.  ``h2_classes(A5, 60)`` is left out: it exceeds the
    enumeration budget today and is meant to succeed later.
    """

    name = "cohomology"
    prepare_repeats = 5
    # (group, modulus); None is the default modulus |G|
    GROUPS = (("S4", 2), ("A4xZ/2", 2), ("Z/5:Z/4", 4), ("S3xZ/3", 6),
              ("D4xZ/2", None), ("Q8xZ/2", None), ("A4", None), ("D4", None))
    # queries per group and pass.  S3xZ/3 is the middle group by query
    # latency; its larger share puts the median inside its block of
    # latencies rather than in the gap between two groups' blocks.
    QUERIES = {"S3xZ/3": 60}
    PER_GROUP = 30

    def prepare(self, B):
        return {"groups": self.GROUPS}

    def jobs(self, B, state, out):
        def build(name, m):
            return lambda: B.h2_classes(B.named_group(name), m)
        return [Job(f"h2:{name}@{m}", build(name, m))
                for name, m in state["groups"]]

    def queries(self, B, state, out, rng):
        qs = []
        for name, m in state["groups"]:
            H = out.get(f"h2:{name}@{m}")
            if H is None:
                continue
            G, mod = H.group, H.m
            for _ in range(self.QUERIES.get(name, self.PER_GROUP)):
                j = rng.randrange(len(H))
                phi = np.array([rng.randrange(mod) for _ in range(G.n)],
                               dtype=np.int64)
                phi[G.identity] = 0
                d = phi[:, None] + phi[None, :] - phi[G.table]
                eta = B.Cocycle2(G, mod, (H[j].values + d) % mod, check=False)
                qs.append(Query(name, lambda H=H, eta=eta: H.class_index(eta),
                                lambda got, j=j: got == j))
        return qs

    check_pass = None

    def digest(self, B, job_id, H):
        return {"classes": len(H),
                "divisors": [int(d) for d in H.elementary_divisors]}


# ---------------------------------------------------------------------------
# symmetries: constructions, searches and closures on warm modular data
# ---------------------------------------------------------------------------

class Symmetries:
    """V, BV and R' constructions, completion searches, closures and
    bimodule invariants, on modular data built during set-up.

    ``autoeq`` does nearly all the timed work.  The verify queries mix
    products of closure elements (always accepted) with random permutations
    inside (quantum dimension, twist) classes (mostly rejected), so a change
    that speeds up one path at the other's cost shows.  In Z/2^3 all
    subgroups of one order are equivalent under Aut(Z/2^3) = GL_3(2), so its
    R' job takes the first abelian normal subgroup of each order instead of
    all 15; the full search and closure of Z/2^3 are left out as too slow.
    """

    name = "symmetries"
    prepare_repeats = 3
    GROUPS = ("S3", "Z/3", "Z/2^2", "A4", "D4", "Q8", "S4", "S3xZ/2", "Z/2^3")
    BV_GROUPS = ("D4", "A4", "Z/2^2", "Q8", "S3xZ/2")
    SMALL = ("S3", "Z/3", "Z/2^2", "D4", "Q8", "A4", "S3xZ/2", "S4")
    ONE_PER_ORDER = ("Z/2^3",)
    # per group and pass: products of closure elements, then random
    # permutations.  Rejections are faster than acceptances, so an even
    # split would put the median in the gap between the two; with 2:1 the
    # median falls inside the accepted queries (in A4's block).  Z/2^3 gets
    # a double share of both kinds, which puts the 95th percentile in the
    # middle of its accepted block (about 2.3 ms, the slowest) rather than
    # near that block's edge.
    ACCEPT, RANDOM = 20, 10
    DOUBLE = ("Z/2^3",)

    def prepare(self, B):
        groups = {n: B.named_group(n) for n in self.GROUPS}
        mds = {n: B.modular_data(G) for n, G in groups.items()}
        h2 = {n: B.h2_classes(groups[n]) for n in self.BV_GROUPS}
        classes = {}
        for n, md in mds.items():
            by_key: dict = {}
            for i in range(md.size):
                by_key.setdefault((md.S[0, i], md.T[i]), []).append(i)
            classes[n] = list(by_key.values())
        return {"groups": groups, "mds": mds, "h2": h2, "classes": classes}

    def jobs(self, B, state, out):
        groups, h2 = state["groups"], state["h2"]
        errors = (B.errors.NoComplement, B.errors.NotSelfDual)

        def v(n):
            return lambda: [B.from_hopf_auto(a)
                            for a in B.automorphisms(groups[n])]

        def bv(n):
            G = groups[n]
            return lambda: [B.from_bv(B.identity_morphism(G), mu)
                            for mu in h2[n]]

        def rprime(n):
            def run():
                found, seen = [], set()
                for N in B.abelian_normal_subgroups(groups[n]):
                    if N.order == 1 or (n in self.ONE_PER_ORDER
                                        and N.order in seen):
                        continue
                    seen.add(N.order)
                    try:
                        partial = B.partial_dualization_rprime(N)
                        found.append((N, partial,
                                      B.complete_extensions(partial)))
                    except errors as e:
                        found.append((N, None, type(e).__name__))
                return found
            return run

        def completions(n):
            return [F for _, p, c in out[f"rprime:{n}"] if p is not None
                    for F in c]

        def closure(n):
            return lambda: B.generate_group(
                out[f"v:{n}"] + out.get(f"bv:{n}", []) + completions(n))

        def bimodule(n):
            def run():
                partials = [p for _, p, _ in out[f"rprime:{n}"]
                            if p is not None]
                return [B.bimodule_data(x) for x in
                        out[f"v:{n}"] + out.get(f"bv:{n}", []) + partials]
            return run

        jobs = [Job(f"v:{n}", v(n)) for n in self.GROUPS]
        jobs += [Job(f"bv:{n}", bv(n)) for n in self.BV_GROUPS]
        jobs += [Job(f"rprime:{n}", rprime(n)) for n in self.GROUPS]
        jobs += [Job(f"search:{n}",
                     lambda n=n: unit_seeded_search(B, groups[n]))
                 for n in self.SMALL]
        jobs += [Job(f"closure:{n}", closure(n)) for n in self.SMALL]
        jobs += [Job(f"bimodule:{n}", bimodule(n)) for n in self.GROUPS]
        return jobs

    def queries(self, B, state, out, rng):
        qs = []
        for n in self.GROUPS:
            md = state["mds"][n]
            if f"closure:{n}" in out:
                pool = list(out[f"closure:{n}"].elements)
            else:
                pool = out.get(f"v:{n}", []) + [
                    F for _, p, c in out.get(f"rprime:{n}", [])
                    if p is not None for F in c]
            if not pool:
                continue
            share = 2 if n in self.DOUBLE else 1
            for _ in range(share * self.ACCEPT):
                F, H = rng.choice(pool), rng.choice(pool)
                mapping = tuple(F.mapping[t] for t in H.mapping)
                qs.append(Query(n, lambda m=mapping, md=md:
                                bool(B.preserves_modular_data(m, md)),
                                lambda got: got is True))
            for _ in range(share * self.RANDOM):
                mapping = list(range(md.size))
                for cls in state["classes"][n]:
                    shuffled = list(cls)
                    rng.shuffle(shuffled)
                    for src, dst in zip(cls, shuffled):
                        mapping[src] = dst
                mapping = tuple(mapping)
                qs.append(Query(n, lambda m=mapping, md=md:
                                bool(B.preserves_modular_data(m, md)),
                                lambda got, m=mapping, md=md:
                                got is preserves(md, m)))
        return qs

    check_pass = None

    def digest(self, B, job_id, result):
        kind = job_id.split(":", 1)[0]
        if kind in ("v", "bv", "search"):
            return {"count": len(result), "mappings": mapping_set(result)}
        if kind == "rprime":
            return [{"normal": list(N.elements),
                     "outcome": c if p is None else mapping_set(c)}
                    for N, p, c in result]
        if kind == "closure":
            return {"order": result.order,
                    "mappings": mapping_set(result.elements)}
        return [[d.U.order, d.U1.order, d.U2.order, list(d.conditions)]
                for d in result]


# ---------------------------------------------------------------------------
# matrix_model: CLI commands over the F_p matrix model, dictionary queries
# ---------------------------------------------------------------------------

def run_cli(B, argv) -> tuple[int, str]:
    """One in-process CLI command; returns (exit code, stdout text)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = B.cli.dispatch(argv)
    return rc, stdout.getvalue()


class MatrixModel:
    """``brpic.cli.dispatch`` on the matrix-model commands, stdout captured
    and digested, plus Bruhat and dictionary round-trip queries.

    The closure, oracle and Bruhat cells (``fpn``) and the CLI's JSON
    emission lead here and nowhere else.  The three p = 5 commands each
    close the same generators, and ``fpn 3 2 bruhat --all`` repeats a
    closure of ``examples fpn-orders``: each stands for a separate CLI
    invocation, so a cache shared across ``dispatch`` calls would show a gain
    here that no command-line user sees.  Left out: ``--cap`` (its meaning
    is being split), and ``matrix_to_autoeq`` on p = 2 symplectic matrices
    outside O(q) (it raises NotBraided by design).
    """

    name = "matrix_model"
    prepare_repeats = 3
    COMMANDS = (
        ("fpn", "5", "2", "orders"),
        ("fpn", "5", "2", "bruhat", "--all"),
        ("fpn", "5", "2", "generate"),
        ("fpn", "3", "2", "bruhat", "--all"),
        ("examples", "fpn-orders"),
    )
    BRUHAT_P, BRUHAT_N, WORD = 3, 2, 12
    # Bruhat queries (about 2.5 ms, mostly argparse and JSON) outnumber the
    # round trips (0.2 to 0.5 ms), so the median falls inside one mode of
    # the latency distribution instead of in the gap between two
    BRUHAT_QUERIES = 100
    ROUND_TRIPS = (("Z/2^2", 2, 2, 32), ("Z/3", 3, 1, 8))

    def prepare(self, B):
        # the dictionary's own label group, so that round trips never build
        # modular data inside the timed region
        searched = {}
        for name, p, n, _ in self.ROUND_TRIPS:
            G = B.matrix_to_autoeq(B.FpMatrix.identity(p, n)).group
            searched[name] = unit_seeded_search(B, G)
        gens = [g.entries for g in
                B.standard_generators(self.BRUHAT_P, self.BRUHAT_N)]
        return {"searched": searched, "gens": gens}

    def jobs(self, B, state, out):
        return [Job("cli:" + " ".join(argv),
                    lambda argv=list(argv): run_cli(B, argv))
                for argv in self.COMMANDS]

    def queries(self, B, state, out, rng):
        p, n, gens = self.BRUHAT_P, self.BRUHAT_N, state["gens"]
        qs = []
        for _ in range(self.BRUHAT_QUERIES):
            M = np.eye(2 * n, dtype=np.int64)
            for _ in range(self.WORD):
                M = (M @ rng.choice(gens)) % p
            argv = ["fpn", str(p), str(n), "bruhat", "--matrix",
                    json.dumps(M.tolist())]
            qs.append(Query("bruhat", lambda argv=argv: run_cli(B, argv),
                            lambda got, M=M: bruhat_ok(B, p, M, got)))
        for name, _, _, count in self.ROUND_TRIPS:
            pool = state["searched"][name]
            for _ in range(count):
                F = rng.choice(pool)
                qs.append(Query(name, lambda F=F: B.matrix_to_autoeq(
                    B.autoeq_to_matrix(F)).mapping,
                    lambda got, F=F: tuple(got) == tuple(F.mapping)))
        return qs

    check_pass = None

    def digest(self, B, job_id, result):
        rc, text = result
        return {"rc": rc, "stdout_sha256": sha256(text), "bytes": len(text)}


def bruhat_ok(B, p, M, got) -> bool:
    """The CLI factorization multiplies back to the queried matrix."""
    rc, text = got
    if rc != 0:
        return False
    res = json.loads(text)["result"]
    b, e, r = (B.FpMatrix(p, res[k]) for k in ("b", "e", "r"))
    return b @ e @ r == B.FpMatrix(p, M)


# modular data the cyclotomic probe samples from: center-workload groups
# whose S and T entries cover the fields Q, Q(zeta_3), Q(zeta_4), Q(zeta_5)
PROBE_GROUPS = ("S3", "D4", "A4", "S4", "A5")

WORKLOADS = {w.name: w for w in (Center(), Cohomology(), Symmetries(),
                                 MatrixModel())}
