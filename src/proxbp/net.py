"""Network model: topology, sessions, utilities, scenario files, flow residuals.

A scenario couples a directed capacitated graph with a set of sessions, each
session shipping data from a source node to a destination node under a concave
utility of its injection rate. Per-link allow-sets restrict which sessions may
use which link. Everything here is immutable after construction and safe to
share across threads.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ScenarioFormatError(ValueError):
    """Malformed scenario document. Carries the offending 1-based line number."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class ScenarioValidationError(ValueError):
    """Structurally parseable but semantically invalid scenario data."""


class DomainError(ValueError):
    """A utility was evaluated outside its domain."""


class ContractError(ValueError):
    """An operation was invoked outside its stated contract."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge within its cap."""


UTILITY_KINDS = ("wlog", "wlog1p")


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: cached arrays are shared by every caller."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Utility:
    """Concave session utility.

    kind "wlog" is w*log(x) on the open domain (0, inf); kind "wlog1p" is
    w*log(1+x) on the closed domain [0, inf). Evaluation outside the domain
    raises DomainError, never returns a silent value.
    """

    kind: str
    weight: float

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ScenarioValidationError(f"unknown utility kind {self.kind!r}")
        w = float(self.weight)
        if not (w > 0 and math.isfinite(w)):
            raise ScenarioValidationError(f"utility weight must be positive, got {self.weight!r}")
        object.__setattr__(self, "weight", w)

    @property
    def open_at_zero(self) -> bool:
        # wlog diverges at 0+, so 0 itself is outside the domain
        return self.kind == "wlog"

    def value(self, x) -> float:
        x = float(x)
        if self.kind == "wlog":
            if x <= 0:
                raise DomainError(f"wlog utility undefined at x={x}")
            return self.weight * math.log(x)
        if x < 0:
            raise DomainError(f"wlog1p utility undefined at x={x}")
        return self.weight * math.log1p(x)

    def derivative(self, x) -> float:
        x = float(x)
        if self.kind == "wlog":
            if x <= 0:
                raise DomainError(f"wlog derivative undefined at x={x}")
            return self.weight / x
        if x < 0:
            raise DomainError(f"wlog1p derivative undefined at x={x}")
        return self.weight / (1.0 + x)


@dataclass(frozen=True)
class Link:
    tail: int
    head: int
    capacity: float


@dataclass(frozen=True)
class Network:
    """Directed graph with strictly positive link capacities."""

    node_count: int
    links: tuple

    def __post_init__(self):
        if self.node_count < 1:
            raise ScenarioValidationError("node_count must be at least 1")
        object.__setattr__(self, "links", tuple(self.links))
        for i, l in enumerate(self.links):
            if not (0 <= l.tail < self.node_count) or not (0 <= l.head < self.node_count):
                raise ScenarioValidationError(f"link {i} endpoint out of range: {l}")
            if l.tail == l.head:
                raise ScenarioValidationError(f"link {i} is a self-loop at node {l.tail}")
            if not (float(l.capacity) > 0 and math.isfinite(l.capacity)):
                raise ScenarioValidationError(f"link {i} capacity must be positive, got {l.capacity!r}")

    @cached_property
    def in_links(self) -> tuple:
        ins = [[] for _ in range(self.node_count)]
        for i, l in enumerate(self.links):
            ins[l.head].append(i)
        return tuple(tuple(v) for v in ins)

    @cached_property
    def out_links(self) -> tuple:
        outs = [[] for _ in range(self.node_count)]
        for i, l in enumerate(self.links):
            outs[l.tail].append(i)
        return tuple(tuple(v) for v in outs)

    @cached_property
    def tails(self) -> np.ndarray:
        """(L,) tail node of each link."""
        return _frozen(np.array([l.tail for l in self.links], dtype=int))

    @cached_property
    def heads(self) -> np.ndarray:
        """(L,) head node of each link."""
        return _frozen(np.array([l.head for l in self.links], dtype=int))

    @cached_property
    def out_links_by_rank(self) -> tuple:
        """Entry k holds the k-th outgoing link (ascending link index) of every
        node with more than k of them, so no two links in an entry share a tail."""
        ranks = []
        for outs in self.out_links:
            for k, l in enumerate(outs):
                if k == len(ranks):
                    ranks.append([])
                ranks[k].append(l)
        return tuple(_frozen(np.array(r, dtype=int)) for r in ranks)

    @cached_property
    def out_tails_by_rank(self) -> tuple:
        """Entry k holds the tails of the links in out_links_by_rank[k]."""
        return tuple(_frozen(self.tails[links]) for links in self.out_links_by_rank)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.array([len(self.in_links[n]) + len(self.out_links[n])
                                 for n in range(self.node_count)]))

    @cached_property
    def caps(self) -> np.ndarray:
        return _frozen(np.array([l.capacity for l in self.links], dtype=float))

    @cached_property
    def incidence(self) -> np.ndarray:
        """(N, L) matrix, +1 at the head of each link and -1 at its tail."""
        a = np.zeros((self.node_count, len(self.links)))
        for i, l in enumerate(self.links):
            a[l.head, i] = 1.0
            a[l.tail, i] = -1.0
        return _frozen(a)

    @cached_property
    def out_cap(self) -> np.ndarray:
        """(N,) sum of outgoing link capacities per node."""
        s = np.zeros(self.node_count)
        for l in self.links:
            s[l.tail] += l.capacity
        return _frozen(s)


@dataclass(frozen=True)
class Session:
    id: int
    src: int
    dst: int
    utility: Utility


@dataclass(frozen=True)
class Scenario:
    """Network plus sessions plus per-link allowed-session sets."""

    network: Network
    sessions: tuple
    allowed: tuple  # one frozenset of session ids per link

    def __post_init__(self):
        object.__setattr__(self, "sessions", tuple(self.sessions))
        object.__setattr__(self, "allowed", tuple(frozenset(a) for a in self.allowed))
        n = self.network.node_count
        for i, s in enumerate(self.sessions):
            if s.id != i:
                raise ScenarioValidationError(
                    f"session ids must be 0..F-1 in order, got id {s.id} at position {i}")
            if not (0 <= s.src < n) or not (0 <= s.dst < n):
                raise ScenarioValidationError(f"session {s.id} references a missing node")
            if s.src == s.dst:
                raise ScenarioValidationError(f"session {s.id} has src == dst == {s.src}")
        if len(self.allowed) != len(self.network.links):
            raise ScenarioValidationError("allowed must have one entry per link")
        for li, al in enumerate(self.allowed):
            for f in al:
                if not (0 <= f < len(self.sessions)):
                    raise ScenarioValidationError(f"allow-set of link {li} names missing session {f}")

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    @property
    def n_links(self) -> int:
        return len(self.network.links)

    @property
    def n_nodes(self) -> int:
        return self.network.node_count

    @cached_property
    def src(self) -> np.ndarray:
        return _frozen(np.array([s.src for s in self.sessions], dtype=int))

    @cached_property
    def src_entries(self) -> np.ndarray:
        """(F,) flat index into a C-ordered (N, F) matrix of each session's
        source entry (src of f, f)."""
        return _frozen(self.src * self.n_sessions + np.arange(self.n_sessions))

    @cached_property
    def head_entries(self) -> np.ndarray:
        """(L·F,) flat index into a C-ordered (N, F) matrix of the entry (head
        of l, f) of each (link, session) pair, in (link, session) order."""
        f = self.n_sessions
        return _frozen((self.network.heads[:, None] * f + np.arange(f)).ravel())

    @cached_property
    def dst(self) -> np.ndarray:
        return _frozen(np.array([s.dst for s in self.sessions], dtype=int))

    @cached_property
    def is_wlog(self) -> np.ndarray:
        """(F,) boolean, True for sessions with a wlog utility."""
        return _frozen(np.array([s.utility.kind == "wlog" for s in self.sessions], dtype=bool))

    @cached_property
    def utility_weight(self) -> np.ndarray:
        """(F,) utility weight of each session."""
        return _frozen(np.array([s.utility.weight for s in self.sessions], dtype=float))

    @cached_property
    def allow_mask(self) -> np.ndarray:
        """(L, F) boolean, True where the session may use the link."""
        m = np.zeros((self.n_links, self.n_sessions), dtype=bool)
        for li, al in enumerate(self.allowed):
            for f in al:
                m[li, f] = True
        return _frozen(m)

    @cached_property
    def active(self) -> np.ndarray:
        """(N, F) boolean, True at (n, f) when n is not the destination of f.

        Only active pairs carry flow-balance constraints and queues.
        """
        m = np.ones((self.n_nodes, self.n_sessions), dtype=bool)
        for s in self.sessions:
            m[s.dst, s.id] = False
        return _frozen(m)

    @cached_property
    def inactive(self) -> np.ndarray:
        """(N, F) boolean, ~active: True at each session's destination."""
        return _frozen(~self.active)

    @cached_property
    def in_trees(self) -> np.ndarray:
        """(N, F) BFS in-tree toward each session's destination over the links
        the session may use: entry (n, f) is the first link of a fewest-hop
        path from n to dst_f, and -1 at dst_f and at nodes that cannot reach it."""
        tree = np.full((self.n_nodes, self.n_sessions), -1, dtype=int)
        for f, s in enumerate(self.sessions):
            via = bfs_links(self.network, s.dst, lambda l, f=f: f in self.allowed[l],
                            backward=True)
            tree[list(via), f] = list(via.values())
        return _frozen(tree)

    @cached_property
    def src_out_cap(self) -> np.ndarray:
        """(F,) total capacity leaving each session's source node."""
        return _frozen(self.network.out_cap[self.src].copy())


@dataclass(frozen=True, eq=False)
class DecisionVector:
    """One slot's decisions: source rates x (F,) and link-session rates mu (L, F)."""

    x: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        mu = np.array(self.mu, dtype=float)
        if x.ndim != 1 or mu.ndim != 2 or mu.shape[1] != x.shape[0]:
            raise ScenarioValidationError(
                f"decision shapes inconsistent: x {x.shape}, mu {mu.shape}")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "mu", _frozen(mu))


def zero_decision(scenario: Scenario) -> DecisionVector:
    return DecisionVector(np.zeros(scenario.n_sessions),
                          np.zeros((scenario.n_links, scenario.n_sessions)))


CAP_TOL = 1e-9  # absolute slack for capacity feasibility checks


def decision_faults(scenario: Scenario, x, mu) -> list:
    """(slot, message) of each slot of the stacks x (T, F) and mu (T, L, F)
    that breaks a per-slot set constraint, in slot order. A slot reports its
    first fault: a negative rate, else a nonzero rate on a forbidden (link,
    session) pair, else the first link whose load exceeds its capacity by
    more than CAP_TOL."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    caps = scenario.network.caps
    negative = (x < 0).any(axis=1) | (mu < 0).any(axis=(1, 2))
    forbidden = (mu[:, ~scenario.allow_mask] != 0).any(axis=1)
    load = mu.sum(axis=2)
    over = load - caps > CAP_TOL
    faults = []
    for t in np.flatnonzero(negative | forbidden | over.any(axis=1)):
        if negative[t]:
            message = "negative rate in decision"
        elif forbidden[t]:
            message = "nonzero rate on a forbidden (link, session) pair"
        else:
            li = int(np.argmax(over[t]))
            message = f"link {li} overloaded: load {load[t, li]!r} exceeds capacity {caps[li]!r}"
        faults.append((int(t), message))
    return faults


def validate_decision(scenario: Scenario, y: DecisionVector):
    """Raise ScenarioValidationError unless y satisfies the per-slot set constraints."""
    if y.x.shape != (scenario.n_sessions,) or y.mu.shape != (scenario.n_links, scenario.n_sessions):
        raise ScenarioValidationError("decision shape does not match scenario")
    faults = decision_faults(scenario, y.x[None], y.mu[None])
    if faults:
        raise ScenarioValidationError(faults[0][1])


def residual_matrix(scenario: Scenario, x, mu) -> np.ndarray:
    """(N, F) flow-balance residuals, zero at each session's destination.

    Entry (n, f) is the exogenous arrival of f at n plus incoming mu minus
    outgoing mu. Positive means injection exceeds service at that node. x is
    either the (F,) source-rate vector, arriving at each session's source, or
    a full (N, F) exogenous-arrival matrix.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    g = scenario.network.incidence @ mu
    if x.ndim == 1:
        g.put(scenario.src_entries, g.take(scenario.src_entries) + x)
    else:
        g += x
    g[scenario.inactive] = 0.0
    return g


def bfs_links(network: Network, root: int, usable, backward=False) -> dict:
    """Fewest-hop search from root over the links l with usable(l), along the
    links or, with backward, against them. Returns {node reached: the link it
    was reached over}, with -1 for root."""
    via = {root: -1}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for l in (network.in_links if backward else network.out_links)[v]:
            u = network.links[l].tail if backward else network.links[l].head
            if u not in via and usable(l):
                via[u] = l
                queue.append(u)
    return via


def require_routable(scenario: Scenario):
    """Raise ScenarioValidationError naming the first session that cannot
    reach its destination over the links it may use."""
    for s in scenario.sessions:
        if scenario.in_trees[s.src, s.id] < 0:
            raise ScenarioValidationError(f"session {s.id} cannot reach its destination "
                                          f"{s.dst} from its source {s.src} over its allowed links")


def total_utility(scenario: Scenario, x):
    """Sum of session utilities at the rate vector x (F,), a float, or at each
    row of a (T, F) matrix of rate vectors, a (T,) array. Each term comes from
    Utility.value, whose math.log rounds differently from np.log on some
    inputs, and the terms are added in session order."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return sum(s.utility.value(x[f]) for f, s in enumerate(scenario.sessions))
    total = np.zeros(x.shape[0])
    for f, s in enumerate(scenario.sessions):
        total += [s.utility.value(v) for v in x[:, f].tolist()]
    return total


# ---------------------------------------------------------------------------
# scenario document format


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document.

    Line-oriented, whitespace-separated, '#' starts a comment:
      nodes <N>
      link <tail> <head> <capacity>          (order defines the link index)
      session <id> <src> <dst> <kind> <weight>   kind is wlog or wlog1p
      allow <link_index> <session_id>        (any allow line for link l
                                              replaces l's default full set)
      allow <link_index> none                (explicitly empty allow-set)
    """
    node_count = None
    links = []
    sessions = []
    allow_ids: dict = {}
    allow_none: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "nodes":
            if node_count is not None:
                raise ScenarioFormatError(lineno, "duplicate nodes line")
            node_count = _parse_int(lineno, parts, 1, 2)
        elif tag == "link":
            if len(parts) != 4:
                raise ScenarioFormatError(lineno, "link needs: tail head capacity")
            links.append(Link(_parse_int(lineno, parts, 1), _parse_int(lineno, parts, 2),
                              _parse_float(lineno, parts, 3)))
        elif tag == "session":
            if len(parts) != 6:
                raise ScenarioFormatError(lineno, "session needs: id src dst kind weight")
            if parts[4] not in UTILITY_KINDS:
                raise ScenarioFormatError(lineno, f"unknown utility kind {parts[4]!r}")
            sessions.append(Session(_parse_int(lineno, parts, 1), _parse_int(lineno, parts, 2),
                                    _parse_int(lineno, parts, 3),
                                    Utility(parts[4], _parse_float(lineno, parts, 5))))
        elif tag == "allow":
            if len(parts) != 3:
                raise ScenarioFormatError(lineno, "allow needs: link_index session_id")
            li = _parse_int(lineno, parts, 1)
            if parts[2] == "none":
                if allow_ids.get(li):
                    raise ScenarioFormatError(lineno, f"allow {li} none conflicts with earlier allow lines")
                allow_none.add(li)
            else:
                if li in allow_none:
                    raise ScenarioFormatError(lineno, f"allow line conflicts with earlier allow {li} none")
                allow_ids.setdefault(li, []).append(_parse_int(lineno, parts, 2))
        else:
            raise ScenarioFormatError(lineno, f"unknown directive {tag!r}")
    if node_count is None:
        raise ScenarioValidationError("document has no nodes line")
    network = Network(node_count, tuple(links))
    nf = len(sessions)
    for li in list(allow_ids) + list(allow_none):
        if not (0 <= li < len(links)):
            raise ScenarioValidationError(f"allow line references missing link {li}")
    full = frozenset(range(nf))
    allowed = []
    for li in range(len(links)):
        if li in allow_none:
            allowed.append(frozenset())
        elif li in allow_ids:
            allowed.append(frozenset(allow_ids[li]))
        else:
            allowed.append(full)
    return Scenario(network, tuple(sessions), tuple(allowed))


def _parse_int(lineno, parts, i, need_len=None):
    if need_len is not None and len(parts) != need_len:
        raise ScenarioFormatError(lineno, f"expected {need_len - 1} fields after {parts[0]!r}")
    try:
        return int(parts[i])
    except ValueError:
        raise ScenarioFormatError(lineno, f"expected integer, got {parts[i]!r}") from None


def _parse_float(lineno, parts, i):
    try:
        return float(parts[i])
    except ValueError:
        raise ScenarioFormatError(lineno, f"expected number, got {parts[i]!r}") from None


def serialize_scenario(s: Scenario) -> str:
    """Inverse of parse_scenario; parse(serialize(s)) reproduces s exactly."""
    out = [f"nodes {s.network.node_count}"]
    for l in s.network.links:
        out.append(f"link {l.tail} {l.head} {float(l.capacity)!r}")
    for f in s.sessions:
        out.append(f"session {f.id} {f.src} {f.dst} {f.utility.kind} {float(f.utility.weight)!r}")
    full = frozenset(range(s.n_sessions))
    for li, al in enumerate(s.allowed):
        if al == full:
            continue
        if not al:
            out.append(f"allow {li} none")
        else:
            for f in sorted(al):
                out.append(f"allow {li} {f}")
    return "\n".join(out) + "\n"


def load_scenario(path) -> Scenario:
    """parse_scenario on a file, then require_routable: a session that cannot
    reach its destination has no feasible positive rate and unbounded queues."""
    with open(path, "r", encoding="utf-8") as fh:
        scenario = parse_scenario(fh.read())
    require_routable(scenario)
    return scenario


def save_scenario(scenario: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(scenario))

