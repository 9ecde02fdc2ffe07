"""Brute-force reference semantics for the tests.

The growth corpus is evaluated here from a model's parent array alone, by
walking from leaves towards the root, and realized sign rows are enumerated
one tuple at a time.  Traces and shatter functions are taken set by set,
and the built-in linear-order instance's psi predicates are read off the
order.  Nothing here uses the library's formula table or its tree views,
so the tests compare two independent implementations.
"""

import math
from itertools import combinations, product
from random import Random

from laminarvc import DomainError, ResourceCapError, SetFamily
from laminarvc.models import UltrametricModel
from laminarvc.setsystem import ENUM_CAP


def trace(family, probe):
    """Deduplicated family {S & probe : S in family}, members keeping their
    order of first appearance."""
    probe_set = frozenset(probe)
    n = family.universe.size
    for x in probe_set:
        if not 0 <= x < n:
            raise DomainError(f"probe element {x} outside universe of size {n}")
    out = dict.fromkeys(s & probe_set for s in family.sets)
    return SetFamily(family.universe, tuple(out))


def shatter_function(family, k, cap=ENUM_CAP):
    """Max over k-subsets A of the number of distinct traces on A, by trying
    every k-subset of the universe on the members' bit masks."""
    n = family.universe.size
    if not 0 <= k <= n:
        raise DomainError(f"k={k} out of range for universe size {n}")
    if k == 0:
        return 1
    if math.comb(n, k) * max(1, len(family.sets)) > cap:
        raise ResourceCapError(f"shatter_function({n} choose {k}) exceeds enumeration cap")
    best = 0
    for idx in combinations(range(n), k):
        pm = sum(1 << i for i in idx)
        best = max(best, len({m & pm for m in family.masks}))
        if best == 1 << k:
            break
    return best


def dlo_psi(i, j, x1, b, bp):
    """psi[i][j](x1; b, b') of the built-in linear-order instance, whose
    delta0 is {x0 < x1, x0 < y} and delta1 {x1 >= y', x1 > y}: [0, x1) lies
    in [0, x1); [0, b') lies in [0, x1) exactly when delta1[0], x1 >= b';
    [0, x1) lies in [0, b) exactly when not delta1[1], not x1 > b; and
    [0, b') lies in [0, b) when b' <= b, whatever x1."""
    return [[True, x1 >= bp], [not x1 > b, bp <= b]][i][j]


class Tree:
    """Ancestor and lca walks over an ultrametric model's parent array."""

    def __init__(self, model):
        self.parent = model.parent
        inner = set(self.parent)
        self.leaves = [v for v in range(len(self.parent)) if v not in inner]

    def chain(self, x):
        """Node ids from the leaf at carrier index x up to the root."""
        return self.chain_from(self.leaves[x])

    def chain_from(self, v):
        """Node ids from node v up to the root."""
        out = [v]
        while self.parent[out[-1]] != -1:
            out.append(self.parent[out[-1]])
        return out

    def up(self, y, k):
        chain = self.chain(y)
        return chain[min(k, len(chain) - 1)]

    def lca(self, y0, y1):
        above_y1 = set(self.chain(y1))
        return next(v for v in self.chain(y0) if v in above_y1)

    def in_ball(self, x, node):
        return node in self.chain(x)


def holds(kind, tree, x, y0, y1):
    """phi(x; y0, y1) for a growth-corpus kind; `tree` is the model's Tree
    (pair-equality reads none)."""
    if kind == "pair-equality":
        return x in (y0, y1)
    if kind == "lca-ball":
        return tree.in_ball(x, tree.lca(y0, y1))
    if kind.startswith("twin-ball-"):
        k = int(kind.rsplit("-", 1)[1])
        return tree.in_ball(x, tree.up(y0, k)) or tree.in_ball(x, tree.up(y1, k))
    if kind == "boolean-mix":
        return tree.in_ball(x, tree.up(y0, 2)) and not tree.in_ball(x, tree.up(y1, 1))
    raise ValueError(kind)


def positive_part(kind, model, y0, y1):
    """The carrier elements of the union of balls that the kind's positive
    part is made of: the whole extent, except that boolean-mix keeps only
    its positive conjunct ball_2(y0)."""
    t = Tree(model)
    if kind == "boolean-mix":
        return frozenset(x for x in range(model.size) if t.in_ball(x, t.up(y0, 2)))
    return frozenset(x for x in range(model.size) if holds(kind, t, x, y0, y1))


def corpus_pred(kind, arity, model):
    """Scalar (object tuple, parameter tuple) -> bool for the kind read at
    the given object arity; arity 2 exchanges the roles of x and (y0, y1)."""
    t = Tree(model) if hasattr(model, "parent") else None
    if arity == 1:
        return lambda x, y: holds(kind, t, x[0], y[0], y[1])
    return lambda v, u: holds(kind, t, u[0], v[0], v[1])


def sign_rows(preds, params, tuples):
    """Sorted distinct sign rows of the tuples, param-major, one byte per
    (parameter, predicate) slot."""
    return sorted({bytes(int(p(t, b)) for b in params for p in preds) for t in tuples})


def corpus_rows(kinds, arity, params, model, tuples=None):
    """sign_rows for corpus kinds, over every object tuple by default."""
    if tuples is None:
        tuples = product(range(model.size), repeat=arity)
    preds = [corpus_pred(kind, arity, model) for kind in kinds]
    return sign_rows(preds, params, tuples)


def with_unary_nodes(model, rng, count):
    """The model's tree with `count` unary nodes, each inserted above a random
    node (the root included); the leaves and their carrier order stay."""
    parent = list(model.parent)
    for _ in range(count):
        v = rng.randrange(len(parent))
        parent.append(parent[v])
        parent[v] = len(parent) - 1
    return type(model)(tuple(parent), seed=model.seed)


def shuffled_ids(model, rng):
    """The model's tree with its node ids permuted at random: the root and
    the leaves land anywhere, and the carrier follows the new leaf ids."""
    perm = list(range(len(model.parent)))
    rng.shuffle(perm)
    parent = [0] * len(perm)
    for v, p in enumerate(model.parent):
        parent[perm[v]] = -1 if p == -1 else perm[p]
    return type(model)(tuple(parent), seed=model.seed)


def caterpillar(size):
    """A tree whose inner nodes form one path, each with a leaf child, and
    two leaves below the last: every ball is a leaf or a suffix of leaves."""
    return UltrametricModel((-1, *range(size - 2), *range(size - 1), size - 2))


def random_ultrametric_parent(leaf_count, max_branching, seed):
    """The parent array random_ultrametric builds, from CPython's own
    Random.randint and Random.sample calls."""
    rng = Random(f"ultrametric/{leaf_count}/{max_branching}/{seed}")
    parent = []
    stack = [(leaf_count, -1)]
    while stack:
        n_leaves, par = stack.pop()
        node = len(parent)
        parent.append(par)
        if n_leaves == 1:
            continue
        b = rng.randint(2, min(max_branching, n_leaves))
        cuts = sorted(rng.sample(range(1, n_leaves), b - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n_leaves])]
        stack.extend((s, node) for s in reversed(sizes))
    return tuple(parent)


def extent_leq(extents):
    """The quasi-forest order of concrete extents, from Python-int masks:
    leq[i][j] when extent j lies inside extent i."""
    masks = [sum(1 << x for x in e) for e in extents]
    return [[(mj & mi) == mj for mj in masks] for mi in masks]


def class_of(leq):
    """The quotient of a preorder by mutual comparability, by the pairwise
    loop: each node not yet placed opens the next class, and takes every
    later node it is mutually comparable with."""
    n = len(leq)
    cls = [-1] * n
    next_id = 0
    for i in range(n):
        if cls[i] != -1:
            continue
        cls[i] = next_id
        for j in range(i + 1, n):
            if cls[j] == -1 and leq[i][j] and leq[j][i]:
                cls[j] = next_id
        next_id += 1
    return cls


def chain_failure(leq, labels):
    """The message QuasiForest.validate gives when the chain condition fails
    on a preorder, or None: the first class c, then the first pair of
    classes a < b below it, with a and b incomparable; classes are named by
    the labels of their least nodes."""
    cls = class_of(leq)
    reps = [cls.index(c) for c in range(max(cls, default=-1) + 1)]
    for c in reps:
        down = [a for a in reps if leq[a][c]]
        for x, a in enumerate(down):
            for b in down[x + 1:]:
                if not (leq[a][b] or leq[b][a]):
                    return (
                        f"forest chain condition fails: classes of {labels[a]} and "
                        f"{labels[b]} are incomparable below {labels[c]}"
                    )
    return None


def type_tree(leq):
    """The tree of types of a preorder as a frozenset lattice: the empty type
    and each class's down-set, the ids (class_of numbering) of the classes
    below it, sorted by (size, sorted members).  Returns (nodes, parent,
    children), the last two from lattice."""
    cls = class_of(leq)
    reps = [cls.index(c) for c in range(max(cls, default=-1) + 1)]
    downs = {frozenset(cls[a] for a in reps if leq[a][r]) for r in reps} | {frozenset()}
    nodes = tuple(sorted(downs, key=lambda s: (len(s), sorted(s))))
    return (nodes, *lattice(nodes))


def lattice(nodes):
    """(parent, children) of a tree of types given by its nodes, once the
    nodes pass the checks that make them one, or a ValueError naming the
    first that fails: distinct, holding the empty type, meet-closed, and the
    proper subsets of each node a chain.  A node's parent is the first of
    the largest nodes inside it (-1 for the empty type)."""
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValueError("type tree nodes must be distinct")
    if frozenset() not in node_set:
        raise ValueError("type tree must contain the empty type")
    if any(p & q not in node_set for p, q in combinations(nodes, 2)):
        raise ValueError("type tree is not meet-closed")
    for r in nodes:
        subs = [p for p in nodes if p < r]
        if any(not (p <= q or q <= p) for p, q in combinations(subs, 2)):
            raise ValueError("type tree has a node with incomparable subsets")
    parent = []
    for p in nodes:
        subs = [j for j, q in enumerate(nodes) if q < p]
        parent.append(max(subs, key=lambda j: len(nodes[j])) if p else -1)
    children = tuple(
        tuple(i for i, par in enumerate(parent) if par == k) for k in range(len(nodes))
    )
    return tuple(parent), children
