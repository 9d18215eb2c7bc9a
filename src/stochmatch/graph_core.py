"""Core data model: stochastic graphs, realization masks, matchings, parameters.

A :class:`StochasticGraph` is an immutable weighted graph in which every edge
carries a survival probability ``p``; one sample of the induced random
subgraph (a realization) is an integer bitmask over edge indices, drawn by
:func:`sample_masks`.  Edge identity is positional (the index into the edge
list), which keeps every downstream set, table and the graph text format stable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .parallel import BLOCK_LEN

WEIGHT_TIE_TOL = 1e-9  # tolerance for weight comparisons in tie-breaking


class Edge(NamedTuple):
    u: int
    v: int
    w: float
    p: float


@dataclass(frozen=True)
class StochasticGraph:
    """Immutable graph with per-edge weights and realization probabilities.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0..n-1``.
    edges:
        Sequence of ``(u, v, w, p)`` with ``u != v``, ``w >= 0`` finite and
        ``p`` in ``(0, 1]``.  Duplicate unordered pairs are rejected.
    """

    n: int
    edges: tuple[Edge, ...]
    p_min: float = field(init=False, default=0.0)
    token: str = field(init=False, default="")
    _caches: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = tuple(Edge(*e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        seen: set[tuple[int, int]] = set()
        for u, v, w, p in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) has a vertex id outside 0..{self.n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"weight of edge {key} must be finite and >= 0, got {w}")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"probability of edge {key} must be in (0, 1], got {p}")
        p_min = min((e.p for e in edges), default=1.0)
        object.__setattr__(self, "p_min", p_min)
        object.__setattr__(self, "token", self._fingerprint())

    def _fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n} {len(self.edges)}\n".encode())
        for u, v, w, p in self.edges:
            h.update(f"{u} {v} {w!r} {p!r}\n".encode())
        return h.hexdigest()[:16]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def weights(self) -> np.ndarray:
        if "weights" not in self._caches:
            self._caches["weights"] = np.array([e.w for e in self.edges], dtype=float)
        return self._caches["weights"]

    @property
    def probs(self) -> np.ndarray:
        if "probs" not in self._caches:
            self._caches["probs"] = np.array([e.p for e in self.edges], dtype=float)
        return self._caches["probs"]

    @property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex."""
        if "incident" not in self._caches:
            inc: list[list[int]] = [[] for _ in range(self.n)]
            for i, e in enumerate(self.edges):
                inc[e.u].append(i)
                inc[e.v].append(i)
            self._caches["incident"] = tuple(tuple(x) for x in inc)
        return self._caches["incident"]

    @property
    def pair_index(self) -> Mapping[tuple[int, int], int]:
        """Map from unordered vertex pair (as sorted tuple) to edge index."""
        if "pair_index" not in self._caches:
            self._caches["pair_index"] = {
                (min(e.u, e.v), max(e.u, e.v)): i for i, e in enumerate(self.edges)
            }
        return self._caches["pair_index"]

    def endpoints(self, e: int) -> tuple[int, int]:
        edge = self.edges[e]
        return edge.u, edge.v

    def other_end(self, e: int, v: int) -> int:
        edge = self.edges[e]
        return edge.v if edge.u == v else edge.u


def mask_weight(g: StochasticGraph, mask: int) -> float:
    """Total weight of the edges in ``mask``, summed in ascending edge order."""
    edges = g.edges
    total = 0.0
    for e in mask_edges(mask):
        total += edges[e].w
    return total


def mask_weights(g: StochasticGraph, masks: np.ndarray) -> np.ndarray:
    """:func:`mask_weight` of every mask of an array, as a float array.

    The totals are summed one edge at a time in ascending edge order, adding
    0.0 where an edge is absent, so each equals :func:`mask_weight` bit for
    bit.
    """
    totals = np.zeros(len(masks))
    for e, bit in enumerate(mask_bits(masks, range(g.m)).T):
        totals += bit * g.edges[e].w
    return totals


@dataclass(frozen=True)
class FractionalMatching:
    """Per-edge values in [0, 1].

    The per-vertex cap (sum over incident edges <= 1) is *not* enforced at
    construction: the augmenting stage enforces it by its zeroing step.
    """

    values: Mapping[int, float]
    parent: str

    def __post_init__(self):
        clean = {}
        for e, x in self.values.items():
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"fractional value of edge {e} must be in [0, 1], got {x}")
            if x > 0.0:
                clean[int(e)] = float(x)
        object.__setattr__(self, "values", dict(clean))

    def support_mask(self) -> int:
        mask = 0
        for e in self.values:
            mask |= 1 << e
        return mask


@dataclass(frozen=True)
class Params:
    """Pipeline parameters and the derived constants used throughout.

    ``tau``, ``eta``, ``beta`` and ``gamma`` follow the fixed formulas
    in terms of ``epsilon``, ``delta`` and the graph's minimum edge
    probability.  The plan size ``t`` is user-supplied where it is used; the
    theory value ``t_theory`` is reported but intentionally never substituted
    for it.
    """

    epsilon: float
    delta: float
    p_min: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        if not (0.0 < self.p_min <= 1.0):
            raise ValueError("p_min must be in (0, 1]")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma fell outside (0, 1)")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")

    @property
    def tau(self) -> float:
        return 20.0 * self.p_min * self.epsilon**5 * self.delta**2

    @property
    def eta(self) -> float:
        return self.epsilon / 10.0

    @property
    def beta(self) -> float:
        return self.epsilon**2 / 100.0

    @property
    def gamma(self) -> float:
        return (1.0 - self.epsilon**2) / (1.0 + 3.0 * self.eta)

    @property
    def t_theory(self) -> int:
        return math.ceil(1.0 / (self.tau * self.epsilon))

    @classmethod
    def for_graph(cls, g: StochasticGraph, epsilon: float, delta: float) -> "Params":
        return cls(epsilon=epsilon, delta=delta, p_min=g.p_min)


def mask_dtype(width: int):
    """dtype of an array of bit masks over ``width`` bits: int64 up to 63
    bits, Python ints in ``object`` arrays past that."""
    return np.int64 if width <= 63 else object


def sample_masks(g: StochasticGraph, rng: np.random.Generator, count: int,
                 scope: Iterable[int] | None = None) -> np.ndarray:
    """``count`` independent realization masks as a 1-D array of
    :func:`mask_dtype` ``(g.m)``, for any number of edges.

    Each edge in ``scope`` (default: every edge) is drawn with its
    probability; edges outside it stay 0.  The draw is
    ``rng.random((rows, len(scope)))`` calls of at most ``BLOCK_LEN`` rows,
    consumed row by row, so a batch reads the generator exactly as ``count``
    sequential calls with ``count=1`` do.  Each chunk's rows are packed into
    masks by :func:`pack_masks` before the next is drawn, so a large batch
    holds one chunk's temporaries at a time.
    """
    cols = slice(None) if scope is None else np.fromiter(scope, dtype=np.intp)
    probs = g.probs[cols]
    chunks = []
    for start in range(0, max(count, 1), BLOCK_LEN):  # count 0: one empty chunk
        bits = np.zeros((min(BLOCK_LEN, count - start), g.m), dtype=bool)
        bits[:, cols] = rng.random((len(bits), len(probs))) < probs
        chunks.append(pack_masks(bits))
    return np.concatenate(chunks)


def pack_masks(bits: np.ndarray) -> np.ndarray:
    """Row ``i`` of a ``(count, width)`` bool array as the bit mask of its
    true columns, in a 1-D array of :func:`mask_dtype` ``(width)``.

    Up to 63 bits a row's bits are summed into one int64; past that they are
    packed into 64-bit words, which are joined into one Python int per row.
    """
    count, width = bits.shape
    if mask_dtype(width) is np.int64:
        return bits.astype(np.int64) @ (1 << np.arange(width, dtype=np.int64))
    words = -(-width // 64)
    packed = np.zeros((count, 8 * words), dtype=np.uint8)
    packed[:, :-(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    columns = packed.view("<u8").astype(object)
    masks = columns[:, 0]
    for k in range(1, words):
        masks = masks | columns[:, k] << 64 * k
    return masks


def mask_bits(masks: np.ndarray, edges) -> np.ndarray:
    """Bit ``edges[j]`` of ``masks[i]`` at ``[i, j]``, as int8 0 or 1 (sums
    over it accumulate in the platform integer)."""
    return ((masks[:, None] >> np.asarray(edges, dtype=np.int64)) & 1).astype(np.int8)


def mask_edges(mask: int) -> list[int]:
    """Edge indices set in ``mask``, ascending."""
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


# ---------------------------------------------------------------------------
# Random instance generation


_LAW_PARAMS = {"constant": ("value",), "uniform": ("low", "high"), "exponential": ("scale",)}


def _law_number(law: Mapping, key: str, kind: str, finite: bool = False) -> float:
    """``law[key]`` as a float, else a ValueError naming the law and the key."""
    try:
        value = float(law[key])
    except (TypeError, ValueError):
        pass
    else:
        if not finite or math.isfinite(value):
            return value
    raise ValueError(f"{kind} law {law['name']!r} needs a {'finite ' if finite else ''}"
                     f"number for {key!r}, got {law[key]!r}")


def _law_sampler(law: Mapping[str, float], kind: str):
    if not isinstance(law, Mapping):
        raise ValueError(f"{kind} law must be an object, got {law!r}")
    name = law.get("name")
    params = _LAW_PARAMS.get(name, ())
    for key in params:
        if key not in law:
            raise ValueError(f"{kind} law is missing {key!r}: {law!r}")
    unknown = [repr(key) for key in law if key != "name" and key not in params]
    if params and unknown:
        raise ValueError(f"unknown {kind} law key {', '.join(unknown)}; "
                         f"known: name, {', '.join(params)}")
    if name in ("constant", "uniform"):
        # a constant law is checked as the uniform law on [value, value];
        # numpy's uniform draw needs finite bounds
        low = _law_number(law, params[0], kind, finite=name == "uniform")
        high = _law_number(law, params[-1], kind, finite=name == "uniform")
        if low > high:
            raise ValueError(f"{kind} law has low > high")
        if kind == "probability" and not (0.0 < low and high <= 1.0):
            raise ValueError("probability law must stay inside (0, 1]")
        if kind == "weight" and low < 0.0:
            raise ValueError("weight law must be non-negative")
        if name == "constant":
            return lambda rng, k: np.full(k, low)
        return lambda rng, k: rng.uniform(low, high, size=k)
    if name == "exponential" and kind == "weight":
        scale = _law_number(law, "scale", kind)
        if scale <= 0:
            raise ValueError("exponential weight law needs a positive scale")
        return lambda rng, k: rng.exponential(scale, size=k)
    raise ValueError(f"unsupported {kind} law: {law!r}")


def gen_random_graph(
    n: int,
    density: float,
    weight_law: Mapping[str, float],
    prob_law: Mapping[str, float],
    seed: int,
) -> StochasticGraph:
    """Erdos-Renyi style instance generator, deterministic per seed.

    Laws are descriptors like ``{"name": "uniform", "low": 0.2, "high": 1.0}``
    or ``{"name": "constant", "value": 0.5}``; weight laws also accept
    ``{"name": "exponential", "scale": s}``.  Laws that can produce
    probabilities outside (0, 1] or negative weights are rejected.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must be in [0, 1]")
    draw_w = _law_sampler(weight_law, "weight")
    draw_p = _law_sampler(prob_law, "probability")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6E67)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if density >= 1.0:
        chosen = pairs
    elif density <= 0.0:
        chosen = []
    else:
        keep = rng.random(len(pairs)) < density
        chosen = [pair for pair, k in zip(pairs, keep) if k]
    k = len(chosen)
    ws = draw_w(rng, k)
    ps = draw_p(rng, k)
    if k and (not np.all(np.isfinite(ws)) or np.any(ws < 0)):
        raise ValueError("weight law produced a negative or non-finite weight")
    if k and (np.any(ps <= 0.0) or np.any(ps > 1.0)):
        raise ValueError("probability law produced a value outside (0, 1]")
    edges = [Edge(u, v, float(w), float(p)) for (u, v), w, p in zip(chosen, ws, ps)]
    return StochasticGraph(n=n, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Text format: header "n m", then m lines "u v w p"; '#' lines are comments.


def dumps_graph(g: StochasticGraph, header_comment: str | None = None) -> str:
    lines = []
    if header_comment:
        for row in header_comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"{g.n} {g.m}")
    for u, v, w, p in g.edges:
        lines.append(f"{u} {v} {w!r} {p!r}")
    return "\n".join(lines) + "\n"


def loads_graph(text: str) -> StochasticGraph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append(Edge(int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
    return StochasticGraph(n=n, edges=tuple(edges))


def write_graph(g: StochasticGraph, path, header_comment: str | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_graph(g, header_comment))


def read_graph(path) -> StochasticGraph:
    with open(path) as fh:
        return loads_graph(fh.read())
