"""Brute-force reference semantics for the tests.

The growth corpus is evaluated here from a model's parent array alone, by
walking from leaves towards the root, and realized sign rows are enumerated
one tuple at a time.  Nothing here uses the library's formula table or its
tree views, so the tests compare two independent implementations.
"""

from itertools import product


class Tree:
    """Ancestor and lca walks over an ultrametric model's parent array."""

    def __init__(self, model):
        self.parent = model.parent
        inner = set(self.parent)
        self.leaves = [v for v in range(len(self.parent)) if v not in inner]

    def chain(self, x):
        """Node ids from the leaf at carrier index x up to the root."""
        out = [self.leaves[x]]
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
