"""Instance generators for the benchmark workloads.

The constructions mirror the acceptance-test builders (box-plus-cuts sets,
planted policies, gram matrices) but live here so that the benchmark inputs
stay fixed when the tests change.

Each workload solves a fixed corpus, drawn once from CORPUS_SEED, and every
pass solves every corpus instance once.  On ``search``, ``psd`` and ``cli``
the run seed draws the order of the instances in each pass; the instances themselves are solved exactly as drawn, so run-to-run
spread measures the machine, not which instances a seed happened to draw.
With independent draws, 100 search instances cost anywhere from 20 s to
30 s.

The ``-permuted`` variants (``search-permuted``, ``psd-permuted``,
``cli-permuted``) solve, in every pass, an exact status-preserving
presentation of every corpus instance drawn from the seed: an order of the
complementarity rows (and of the free block), a signed order of the
uncertainty coordinates and an order of the set rows.  On ``cli-permuted``
every pure instance also gets a row-rescaled copy.  The solver's answer
should not change under any of these, but today it sometimes does (see
README.md), so the variants show those defects and are not part of
BENCHMARK.json, whose operations must all succeed.

Each case carries how its reference status is known: ``planted`` cases are
feasible by construction, ``rescaled`` cases share the status of their
unscaled base, and ``oracle`` cases get their status from exhaustive
enumeration of the corpus instance, computed outside any timed region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aarlcp import Instance, MixedExtension

# Exhaustive enumeration runs 2^n supports; above this it is too slow to
# serve as the reference, so larger unplanted instances are not generated.
ORACLE_MAX_N = 10


@dataclass(eq=False)
class Case:
    """One benchmark operation: an instance plus how its answer is known."""

    name: str
    inst: Instance
    reference: str  # "planted", "oracle" or "rescaled"
    base: str | None = None  # name of the unscaled case, for "rescaled"


def box_cut_set(rng, k: int, g: int):
    """Compact set {u : Theta u >= zeta} with 0 in its interior, g rows.

    A box of random radius supplies compactness; the remaining g - 2k rows
    are random unit-normal cuts at random positive distance.
    """
    radius = float(rng.uniform(0.5, 2.0))
    eye = np.eye(k)
    rows = [v for c in range(k) for v in (eye[c], -eye[c])]
    rhs = [-radius] * (2 * k)
    while len(rows) < g:
        v = rng.standard_normal(k)
        nv = float(np.linalg.norm(v))
        if nv < 1e-6:
            continue
        rows.append(v / nv)
        rhs.append(-float(rng.uniform(0.3, 2.0)))
    return np.array(rows), np.array(rhs)


def _planted_policy(rng, n: int, k: int, size: int):
    """Support S of the given size with a rule D, r nonnegative over radius 2."""
    S = set(int(i) for i in rng.choice(n, size=size, replace=False))
    D = np.zeros((n, k))
    r = np.zeros(n)
    for i in S:
        D[i] = rng.standard_normal(k) * 0.3
        r[i] = 2.0 * np.abs(D[i]).sum() + rng.uniform(0.1, 1.0)
    return S, D, r


def planted(rng, n: int, k: int, g: int, M=None, size=None) -> Instance:
    """Instance built around a known feasible affine rule.

    Rows on the support are tight along the rule; rows off it keep a margin
    that covers the set (which sits inside the radius-2 box).  M is drawn
    standard normal unless given, so a gram matrix yields a PSD instance.
    The support size is drawn from 1..n unless given.
    """
    Theta, zeta = box_cut_set(rng, k, g)
    if size is None:
        size = int(rng.integers(1, n + 1))
    S, D, r = _planted_policy(rng, n, k, size)
    if M is None:
        M = rng.standard_normal((n, n))
    T = rng.standard_normal((n, k))
    q = rng.standard_normal(n)
    for i in range(n):
        if i in S:
            T[i] = -M[i] @ D
            q[i] = -float(M[i] @ r)
        else:
            slack = 2.0 * np.abs(M[i] @ D + T[i]).sum()
            q[i] = -float(M[i] @ r) + slack + float(rng.uniform(0.05, 0.5))
    return Instance(M=M, q=q, T=T, Theta=Theta, zeta=zeta)


def random_pure(rng, n: int, k: int, g: int) -> Instance:
    Theta, zeta = box_cut_set(rng, k, g)
    return Instance(
        M=rng.standard_normal((n, n)),
        q=rng.standard_normal(n),
        T=rng.standard_normal((n, k)),
        Theta=Theta,
        zeta=zeta,
    )


def gram(rng, n: int) -> np.ndarray:
    """PSD matrix G^T G, rank-deficient when G has fewer rows than n."""
    rows = int(rng.integers(n // 2, n + 1))
    G = rng.standard_normal((rows, n))
    return G.T @ G


def random_gram(rng, n: int, k: int, g: int) -> Instance:
    Theta, zeta = box_cut_set(rng, k, g)
    return Instance(
        M=gram(rng, n),
        q=rng.standard_normal(n),
        T=rng.standard_normal((n, k)) * 0.5,
        Theta=Theta,
        zeta=zeta,
    )


def planted_mixed(rng, n: int, m: int, k: int, g: int):
    """Mixed pair around a rule that keeps the free block constant.

    Returns (pinned, adjustable) over identical data; the planted rule is
    valid for both, so both are feasible.
    """
    Theta, zeta = box_cut_set(rng, k, g)
    S, D, r = _planted_policy(rng, n, k, int(rng.integers(0, n + 1)))
    y = rng.standard_normal(m)
    V = rng.standard_normal((m, n)) * 0.5
    W = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    N = rng.standard_normal((n, m)) * 0.5
    P = -(V @ D)
    p = -(V @ r + W @ y)
    M = rng.standard_normal((n, n))
    T = rng.standard_normal((n, k))
    q = np.zeros(n)
    for i in range(n):
        base = -float(M[i] @ r + N[i] @ y)
        if i in S:
            T[i] = -(M[i] @ D)
            q[i] = base
        else:
            q[i] = base + 2.0 * np.abs(M[i] @ D + T[i]).sum() + float(
                rng.uniform(0.05, 0.5)
            )
    common = dict(M=M, q=q, T=T, Theta=Theta, zeta=zeta)
    return tuple(
        Instance(
            mixed=MixedExtension(V=V, W=W, N=N, p=p, P=P, y_adjustable=adj),
            **common,
        )
        for adj in (False, True)
    )


def random_mixed(rng, n: int, m: int, k: int, g: int, adjustable: bool) -> Instance:
    Theta, zeta = box_cut_set(rng, k, g)
    return Instance(
        M=rng.standard_normal((n, n)),
        q=rng.standard_normal(n) + 1.0,
        T=rng.standard_normal((n, k)) * 0.5,
        Theta=Theta,
        zeta=zeta,
        mixed=MixedExtension(
            V=rng.standard_normal((m, n)) * 0.5,
            W=rng.standard_normal((m, m)) + 2.0 * np.eye(m),
            N=rng.standard_normal((n, m)) * 0.5,
            p=rng.standard_normal(m) * 0.5,
            P=rng.standard_normal((m, k)) * 0.5,
            y_adjustable=adjustable,
        ),
    )


def rescaled(rng, inst: Instance) -> Instance:
    """Rows of (M, q, T) scaled by 10^u, u uniform in [-6, 6].

    Positive row scaling multiplies each slack row by a constant, so the
    complementarity conditions and hence the status are unchanged.
    """
    s = 10.0 ** rng.uniform(-6.0, 6.0, size=inst.n)
    return Instance(
        M=inst.M * s[:, None],
        q=inst.q * s,
        T=inst.T * s[:, None],
        Theta=inst.Theta,
        zeta=inst.zeta,
        h=inst.h,
        mixed=inst.mixed,
    )


def permuted(rng, inst: Instance) -> Instance:
    """The same problem with rows, coordinates and set rows reordered.

    Complementarity rows follow a permutation p (M -> M[p][:, p]), the free
    block and its equations another one; the uncertainty vector is replaced
    by a signed permutation of itself, which maps the set and the channels
    onto each other exactly.  Policies map one to one, so the status is
    unchanged, and no arithmetic rounds.
    """
    if inst.h:
        raise ValueError("presentations cover instances with h = 0")
    n, k, g = inst.n, inst.k, inst.g
    p = rng.permutation(n)
    cols = rng.permutation(k)
    signs = rng.choice((-1.0, 1.0), size=k)
    rows = rng.permutation(g)
    mixed = None
    if inst.mixed is not None:
        mx = inst.mixed
        a = rng.permutation(mx.m)
        mixed = MixedExtension(
            V=mx.V[a][:, p],
            W=mx.W[a][:, a],
            N=mx.N[p][:, a],
            p=mx.p[a],
            P=mx.P[a][:, cols] * signs,
            y_adjustable=mx.y_adjustable,
        )
    return Instance(
        M=inst.M[p][:, p],
        q=inst.q[p],
        T=inst.T[p][:, cols] * signs,
        Theta=inst.Theta[rows][:, cols] * signs,
        zeta=inst.zeta[rows],
        mixed=mixed,
    )


# Fixed before any instance was solved; the corpora follow from it.
CORPUS_SEED = 2208

_TAGS = {"search": 1, "psd": 2, "cli": 3}

# Sizes follow a fixed schedule; unplanted cases stay small enough for the
# oracle (2^n supports, about 0.8 s at n = 8).
SEARCH_PLANTED_N = (8, 9) * 20
SEARCH_RANDOM_N = (8,) * 40
PSD_PLANTED_N = (10, 12, 14, 16) * 16
PSD_RANDOM_N = (6, 7, 8, 8) * 4
CLI_GROUPS = 12


def _corpus_rng(workload: str):
    return np.random.default_rng([CORPUS_SEED, _TAGS[workload]])


def search_corpus() -> list[Case]:
    """c8 family (k=4, g=10): half planted, half random.

    Planted supports cycle through the sizes n/2..n.  Smaller supports give
    trees of 10 to 90 nodes at n = 8 and double the cost of a pass; the
    random half already explores deep infeasible trees.
    """
    rng = _corpus_rng("search")
    cases = []
    for t, (np_, nr) in enumerate(zip(SEARCH_PLANTED_N, SEARCH_RANDOM_N)):
        half = (np_ + 1) // 2
        size = half + (t // 2) % (np_ - half + 1)
        inst = planted(rng, np_, 4, 10, size=size)
        cases.append(Case(f"planted{t}-n{np_}-s{size}", inst, "planted"))
        cases.append(Case(f"random{t}-n{nr}", random_pure(rng, nr, 4, 10), "oracle"))
    return cases


def psd_corpus() -> list[Case]:
    """Gram-matrix instances: four planted feasible ones per unplanted draw.

    k alternates 2 and 3 and the planted support size cycles through 1..n.
    """
    rng = _corpus_rng("psd")
    cases = []
    for t, n in enumerate(PSD_PLANTED_N):
        k = 2 + (t // 4) % 2
        size = 1 + (t // 8) % n
        inst = planted(rng, n, k, 2 * k + 2, M=gram(rng, n), size=size)
        cases.append(Case(f"planted{t}-n{n}-k{k}-s{size}", inst, "planted"))
    for t, n in enumerate(PSD_RANDOM_N):
        k = 2 + t % 2
        cases.append(Case(f"random{t}-n{n}-k{k}", random_gram(rng, n, k, 2 * k + 2), "oracle"))
    return cases


def cli_corpus() -> list[Case]:
    """Small n, wide sets and mixed blocks, plus every fifth psd case.

    Each group holds a planted and a random pure instance, a planted mixed
    pair (pinned and adjustable) and a random mixed instance.  The set has
    2k rows at n = 5 and up to 8k at n = 2, so the node LPs (about 2gn
    columns) stay small while validation and hull LPs grow with g.  The
    gram-matrix cases take the CLI's automatic PSD shortcut, so psd runs on
    this workload too.
    """
    rng = _corpus_rng("cli")
    cases = []
    for t in range(CLI_GROUPS):
        n = 2 + t % 4
        k = 4 + t % 5
        g = k * (2 + 2 * (5 - n))
        m = 1 + t % 2
        pinned, adjustable = planted_mixed(rng, n, m, k, g)
        cases += [
            Case(f"g{t}-planted", planted(rng, n, k, g), "planted"),
            Case(f"g{t}-random", random_pure(rng, n, k, g), "oracle"),
            Case(f"g{t}-mixed-pinned", pinned, "planted"),
            Case(f"g{t}-mixed-adjustable", adjustable, "planted"),
            Case(
                f"g{t}-mixed-random",
                random_mixed(rng, n, m, k, g, adjustable=bool(t % 2)),
                "oracle",
            ),
        ]
    cases += [Case(f"psd-{c.name}", c.inst, c.reference) for c in psd_corpus()[::5]]
    return cases


CORPORA = {"search": search_corpus, "psd": psd_corpus, "cli": cli_corpus}


PERMUTED = "-permuted"


def corpus_of(workload: str) -> str:
    return workload.removesuffix(PERMUTED)


def presented(workload: str, seed: int, index: int = 0) -> list[Case]:
    """The cases of pass ``index`` of a run with this seed.

    Every corpus instance once: as drawn and in a seeded order on search,
    cli and psd; in a fresh presentation on a ``-permuted`` variant, where on
    cli each pure one is followed by a row-rescaled copy of it.
    """
    corpus = corpus_of(workload)
    rng = np.random.default_rng([int(seed), _TAGS[corpus], int(index)])
    cases = CORPORA[corpus]()
    if workload == corpus:
        return [cases[i] for i in rng.permutation(len(cases))]
    out = []
    for c in cases:
        inst = permuted(rng, c.inst)
        out.append(Case(c.name, inst, c.reference, c.base))
        if corpus == "cli" and inst.mixed is None:
            out.append(Case(f"{c.name}-rescaled", rescaled(rng, inst), "rescaled", c.name))
    return out
