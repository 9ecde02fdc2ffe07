"""Concrete finite carrier models and the built-in formula corpus.

An ultrametric model is a rooted tree whose leaves form the carrier; the
subtree-leaf sets ("balls") are a directed family by construction, with
level-k balls playing the role of radii.  An order model is a finite total
order whose proper initial segments form a nested directed family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ModelFormatError
from .forest import DirectedFamily
from .setsystem import ParametrizedFormula, SetFamily, Universe, distinct_rows


@dataclass(frozen=True)
class UltrametricModel:
    """Rooted tree given as a parent array (root has parent -1); the carrier is
    the set of leaves, indexed in ascending node-id order."""

    parent: tuple[int, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        n = len(self.parent)
        roots = [i for i, p in enumerate(self.parent) if p == -1]
        if len(roots) != 1:
            raise ModelFormatError(f"parent array must have exactly one root, found {len(roots)}")
        for i, p in enumerate(self.parent):
            if p != -1 and not 0 <= p < n:
                raise ModelFormatError(f"parent[{i}] = {p} out of range")
        # reachability from the root doubles as a cycle check
        if len(self._topo_order) != n:
            raise ModelFormatError("parent array contains a cycle or unreachable nodes")
        if len(self.leaves) < 2:
            raise ModelFormatError("ultrametric model needs at least 2 leaves")
        Universe(len(self.leaves))  # leaf count against the universe cap

    @cached_property
    def root(self) -> int:
        return next(i for i, p in enumerate(self.parent) if p == -1)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.parent]
        for i, p in enumerate(self.parent):
            if p != -1:
                kids[p].append(i)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def _topo_order(self) -> tuple[int, ...]:
        """Root first, parents before children."""
        out = [self.root]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return tuple(out)

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.parent)) if not self.children[i])

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.n_nodes
        for node in self._topo_order[1:]:
            d[node] = d[self.parent[node]] + 1
        return tuple(d)

    def ball(self, node: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.ball_bool[node]).tolist())

    def ancestor_up(self, node: int, k: int) -> int:
        """Ancestor k levels above node, clamped at the root."""
        for _ in range(k):
            p = self.parent[node]
            if p == -1:
                break
            node = p
        return node

    def lca(self, a: int, b: int) -> int:
        da, db = self.depth[a], self.depth[b]
        while da > db:
            a, da = self.parent[a], da - 1
        while db > da:
            b, db = self.parent[b], db - 1
        while a != b:
            a, b = self.parent[a], self.parent[b]
        return a

    @property
    def label(self) -> str:
        return f"ultrametric-L{self.size}-s{self.seed}"

    # cached numpy views used by batched formula evaluation

    @cached_property
    def ball_bool(self) -> np.ndarray:
        """(nodes, L) matrix: is the leaf at carrier index i below node v.
        Built by walking every leaf up to the root at once, one level per step."""
        parent = np.array(self.parent)
        mat = np.zeros((self.n_nodes, self.size), dtype=bool)
        cols = np.arange(self.size)
        nodes = np.array(self.leaves)
        while len(nodes):
            mat[nodes, cols] = True
            up = parent[nodes]
            keep = up != -1
            nodes, cols = up[keep], cols[keep]
        return mat

    @cached_property
    def lca_node_matrix(self) -> np.ndarray:
        """(L, L) matrix: lca node id of the leaves at carrier indices (i, j).
        No counting path reads it (they call lca_of); the benchmark's model
        views timing still builds it."""
        mat = np.full((self.size, self.size), self.root, dtype=np.int32)
        for node in self._topo_order:
            if node == self.root:
                continue
            idx = np.flatnonzero(self.ball_bool[node])
            mat[np.ix_(idx, idx)] = node
        return mat

    @cached_property
    def ancestor_by_depth(self) -> np.ndarray:
        """(L, height + 1) matrix: per carrier index, its leaf's ancestor at
        each depth, and the leaf itself at every depth below the leaf's own."""
        parent = np.array(self.parent)
        depth = np.array(self.depth)
        leaves = np.array(self.leaves)
        table = np.repeat(leaves[:, None], depth.max() + 1, axis=1).astype(np.int32)
        rows, nodes = np.arange(self.size), leaves
        while len(nodes):
            table[rows, depth[nodes]] = nodes
            up = parent[nodes]
            keep = up != -1
            rows, nodes = rows[keep], up[keep]
        return table

    def lca_of(self, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """lca node ids of the leaves at carrier index arrays y0, y1: their
        ancestor_by_depth rows agree down to the lca's depth and nowhere below
        it, since a leaf is nobody's ancestor."""
        a, b = self.ancestor_by_depth[y0], self.ancestor_by_depth[y1]
        d = np.count_nonzero(a == b, axis=-1) - 1
        return np.take_along_axis(a, d[..., None], axis=-1)[..., 0]

    @cached_property
    def _anc_arrays(self) -> dict[int, np.ndarray]:
        return {}

    def ancestor_array(self, k: int) -> np.ndarray:
        """Per carrier index, the node id k levels above its leaf, clamped at
        the root: its ancestor_by_depth entry at the leaf's depth minus k."""
        if k not in self._anc_arrays:
            depth = np.array(self.depth)[list(self.leaves)]
            self._anc_arrays[k] = self.ancestor_by_depth[
                np.arange(self.size), np.maximum(depth - k, 0)
            ]
        return self._anc_arrays[k]

    def ball_profiles(self, k: int, xs: np.ndarray) -> np.ndarray:
        """(L, ceil(m/8)) packed rows: per carrier index y, which of the m
        parameters xs lie in the ball k levels above y."""
        return np.packbits(self.ball_bool[:, xs][self.ancestor_array(k)], axis=1)

    # ball membership.  x is a carrier index or an array of them, and y0, y1
    # are indices, index arrays of object columns, or (k, 1) parameter
    # blocks; with object columns, x may itself be a (k, 1) block.  A block
    # gives a (k, T) matrix, one row per member.

    def _rows(self, nodes, x):
        """x in the ball of one node, or of each node of a (k, 1) block: the
        block's distinct node rows first, the x columns last."""
        if np.ndim(nodes) == 0:
            return self.ball_bool[nodes][x]
        distinct, inverse = np.unique(nodes[:, 0], return_inverse=True)
        return self.ball_bool[distinct].take(x, axis=1)[inverse]

    @staticmethod
    def _per_x(x, row):
        """row(x), or the rows of a (k, 1) block of x stacked: each row
        gathers 1-D, as one x does."""
        if np.ndim(x) == 0:
            return row(x)
        return np.stack([row(xi) for xi in x[:, 0]])

    def in_lca_ball(self, x, y0, y1):
        """x is in the ball at lca(y0, y1)."""
        if np.ndim(y0) == 1:
            # object columns: the pairs' lcas once, x's column gathered at them
            nodes = self.lca_of(y0, y1)
            return self._per_x(x, lambda xi: self.ball_bool[:, xi][nodes])
        if np.ndim(y0) == 0:
            # one pair: walk up to its lca rather than build any table
            return self._rows(self.lca(self.leaves[y0], self.leaves[y1]), x)
        return self._rows(self.lca_of(y0, y1), x)

    def in_ball_above(self, x, y, k: int):
        """x is in the ball k levels above y, clamped at the root."""
        anc = self.ancestor_array(k)
        if np.ndim(y) == 1:
            # object column: x's column per leaf first, the y gather last
            return self._per_x(x, lambda xi: self.ball_bool[:, xi][anc][y])
        return self._rows(anc[y], x)


@dataclass(frozen=True)
class OrderModel:
    """Finite total order 0 < 1 < ... < size-1."""

    size: int
    seed: Optional[int] = None

    def __post_init__(self):
        Universe(self.size)  # range validation

    @property
    def label(self) -> str:
        return f"order-N{self.size}-s{self.seed}"


CarrierModel = Union[UltrametricModel, OrderModel]


def random_ultrametric(leaf_count: int, max_branching: int, seed: int) -> UltrametricModel:
    """Seed-deterministic rooted tree with exactly leaf_count leaves and
    branching factors between 2 and max_branching."""
    if leaf_count < 2:
        raise DomainError(f"leaf_count must be >= 2, got {leaf_count}")
    if max_branching < 2:
        raise DomainError(f"max_branching must be >= 2, got {max_branching}")
    rng = Random(f"ultrametric/{leaf_count}/{max_branching}/{seed}")
    parent: list[int] = []
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
    return UltrametricModel(tuple(parent), seed=seed)


def ball_family(model: UltrametricModel) -> DirectedFamily:
    """The family {ball(v) : v a tree node}, indexed by node id; directed by
    construction, so it is not scanned for crossings (check_directed does
    that).  The sets are read off the rows of ball_bool at once."""
    nodes, leaves = np.nonzero(model.ball_bool)
    flat = leaves.tolist()
    ends = np.cumsum(np.bincount(nodes, minlength=model.n_nodes)).tolist()
    sets = tuple(frozenset(flat[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return DirectedFamily(SetFamily(Universe(model.size), sets), checked=True)


def order_family(model: OrderModel, include_empty: bool = False) -> DirectedFamily:
    """Proper initial segments {x : x < c}, indexed by cut point."""
    cuts = range(0 if include_empty else 1, model.size)
    fam = SetFamily(
        Universe(model.size), tuple(frozenset(range(c)) for c in cuts)
    )
    return DirectedFamily(fam)


# --- formula corpus ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusFormula:
    """One formula phi(x; y0, y1) of the growth corpus.

    `pred(model, x, y0, y1)` takes carrier indices, where x, or else y0 and
    y1, may be index arrays; `name` is the formula column of the growth CSV,
    `carriers` the model types that can evaluate it and `arities` the object
    arities a growth run may read it at.

    `rows(model, xs)` is the formula at object arity 2 factored through
    per-element profiles over the parameter column xs (m carrier indices): a
    packed (R, ceil(m/8)) uint8 matrix whose rows, possibly repeated, are
    exactly the sign rows over xs that some object pair (y0, y1) realizes.
    """

    name: str
    carriers: tuple[type, ...]
    arities: tuple[int, ...]
    pred: Callable
    rows: Callable


def _pair_unions(profiles: np.ndarray) -> np.ndarray:
    """a | b over every ordered pair (a, b) of distinct packed profile rows,
    a = b included: the rows of x in S(y0) or x in S(y1)."""
    d = distinct_rows(profiles)
    return (d[:, None] | d[None]).reshape(-1, d.shape[1])


def _twin_ball(k: int) -> CorpusFormula:
    return CorpusFormula(
        f"twin-ball-{k}", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_ball_above(x, y0, k) | M.in_ball_above(x, y1, k),
        lambda M, xs: _pair_unions(M.ball_profiles(k, xs)),
    )


def _boolean_mix_rows(M: UltrametricModel, xs: np.ndarray) -> np.ndarray:
    # packbits pads with 0 bits, so a & ~b keeps the padding 0
    pos, neg = distinct_rows(M.ball_profiles(2, xs)), distinct_rows(M.ball_profiles(1, xs))
    return (pos[:, None] & ~neg[None]).reshape(-1, pos.shape[1])


# lca-ball: x in the ball at lca(y0, y1).  Its rows are every node's ball:
# a leaf v is lca(v, v), a node with two children is the lca of a leaf
# below each, and a node with one child has that child's ball.
# twin-ball-k: x in ball_k(y0) | ball_k(y1), ball_k(b) sitting k levels above b.
# boolean-mix: x in ball_2(y0) and not in ball_1(y1).
# pair-equality: x = y0 or x = y1, the quadratic-growth witness at arity 2.
CORPUS = {
    "lca-ball": CorpusFormula(
        "lca-ball", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_lca_ball(x, y0, y1),
        lambda M, xs: np.packbits(M.ball_bool[:, xs], axis=1),
    ),
    "twin-ball-0": _twin_ball(0),
    "twin-ball-1": _twin_ball(1),
    "twin-ball-2": _twin_ball(2),
    "boolean-mix": CorpusFormula(
        "boolean-mix-2-1", (UltrametricModel,), (1, 2),
        lambda M, x, y0, y1: M.in_ball_above(x, y0, 2) & ~M.in_ball_above(x, y1, 1),
        _boolean_mix_rows,
    ),
    "pair-equality": CorpusFormula(
        "pair-equality", (UltrametricModel, OrderModel), (2,),
        lambda M, x, y0, y1: (x == y0) | (x == y1),
        lambda M, xs: _pair_unions(np.packbits(np.arange(M.size)[:, None] == xs, axis=1)),
    ),
}

GROWTH_KINDS = tuple(CORPUS)


def growth_formula(kind: str, arity: int) -> ParametrizedFormula:
    """The formula for a growth run, partitioned for the requested object arity.

    At arity 1 the object is x and the parameters are (y0, y1); at arity 2 the
    roles are exchanged, so (y0, y1) is the object and x the parameter.
    """
    if kind not in CORPUS:
        raise DomainError(f"unknown formula kind {kind!r}; known: {GROWTH_KINDS}")
    spec = CORPUS[kind]
    if arity not in spec.arities:
        raise DomainError(f"{kind} has no object arity {arity}; it has {spec.arities}")
    pred = spec.pred
    if arity == 1:
        return ParametrizedFormula(
            spec.name, 1, 2,
            lambda M, x, y: bool(pred(M, x[0], y[0], y[1])),
            lambda M, objs, y: pred(M, objs[:, 0], y[0], y[1]),
        )
    return ParametrizedFormula(
        spec.name, 2, 1,
        lambda M, v, u: bool(pred(M, u[0], v[0], v[1])),
        lambda M, objs, u: pred(M, u[0], objs[:, 0], objs[:, 1]),
    )


# --- model files -----------------------------------------------------------


def save_model(model: Union[CarrierModel, SetFamily], path) -> None:
    if isinstance(model, UltrametricModel):
        doc = {"kind": "ultrametric", "parent": list(model.parent), "seed": model.seed}
    elif isinstance(model, OrderModel):
        doc = {"kind": "order", "size": model.size, "seed": model.seed}
    elif isinstance(model, SetFamily):
        doc = {
            "kind": "family",
            "universe": model.universe.size,
            "sets": [sorted(s) for s in model.sets],
        }
    else:
        raise DomainError(f"cannot save object of type {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _integers(what: str, values) -> list[int]:
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ModelFormatError(f"{what} must be integers, got {v!r}")
    return values


def _seed(doc: dict) -> Optional[int]:
    seed = doc.get("seed")
    if seed is not None and type(seed) is not int:
        raise ModelFormatError(f"seed must be an integer or null, got {type(seed).__name__}")
    return seed


def load_model(path) -> Union[CarrierModel, SetFamily]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: malformed JSON at line {e.lineno}: {e.msg}") from e
    except (UnicodeDecodeError, RecursionError) as e:
        raise ModelFormatError(f"{path}: not a JSON model file: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFormatError(f"{path}: expected an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "ultrametric":
            parent = _integers("parent entries", doc["parent"])
            return UltrametricModel(tuple(parent), seed=_seed(doc))
        if kind == "order":
            return OrderModel(int(doc["size"]), seed=_seed(doc))
        if kind == "family":
            sets = [_integers("set members", s) for s in doc["sets"]]
            return SetFamily.of(int(doc["universe"]), sets)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"{path}: {e}") from e
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
