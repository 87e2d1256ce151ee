"""Network model: topology, sessions, utilities, scenario files, flow residuals.

A scenario couples a directed capacitated graph with a set of sessions, each
session shipping data from a source node to a destination node under a concave
utility of its injection rate. Per-link allow-sets restrict which sessions may
use which link. Everything here is immutable after construction and safe to
share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ScenarioFormatError(ValueError):
    """Malformed scenario document. Carries the offending 1-based line number."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class ScenarioValidationError(ValueError):
    """Structurally parseable but semantically invalid scenario data. item
    names the part at fault, where there is one: "nodes", or ("link", i) or
    ("session", i) for the i-th link or session."""

    def __init__(self, msg: str, item=None):
        super().__init__(msg)
        self.item = item


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

    def value(self, x) -> float:
        x = float(x)
        if self.kind == "wlog":
            if x <= 0:
                raise DomainError(f"wlog utility undefined at x={x}")
            return self.weight * math.log(x)
        if x < 0:
            raise DomainError(f"wlog1p utility undefined at x={x}")
        return self.weight * math.log1p(x)


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
            raise ScenarioValidationError("node_count must be at least 1", "nodes")
        object.__setattr__(self, "links", tuple(self.links))
        for i, l in enumerate(self.links):
            if not (0 <= l.tail < self.node_count) or not (0 <= l.head < self.node_count):
                raise ScenarioValidationError(f"link {i} endpoint out of range: {l}", ("link", i))
            if l.tail == l.head:
                raise ScenarioValidationError(f"link {i} is a self-loop at node {l.tail}",
                                              ("link", i))
            if not (float(l.capacity) > 0 and math.isfinite(l.capacity)):
                raise ScenarioValidationError(
                    f"link {i} capacity must be positive, got {l.capacity!r}", ("link", i))

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
    def out_slots(self) -> np.ndarray:
        """(K, N) padded out-link table, K the largest out-degree: entry (k, n)
        is the k-th outgoing link of node n in ascending link order, or the
        padding index L where n has k or fewer of them."""
        n_l = len(self.links)
        k_max = max(map(len, self.out_links))
        table = np.full((k_max, self.node_count), n_l, dtype=int)
        for n, outs in enumerate(self.out_links):
            table[:len(outs), n] = outs
        return _frozen(table)

    @cached_property
    def link_slots(self) -> np.ndarray:
        """(L,) flat position of each link in out_slots."""
        flat = self.out_slots.ravel()
        real = flat < len(self.links)
        slots = np.empty(len(self.links), dtype=int)
        slots[flat[real]] = np.flatnonzero(real)
        return _frozen(slots)

    @cached_property
    def in_slots(self) -> np.ndarray:
        """(K_in, N) padded in-link table, K_in the largest in-degree: entry
        (k, n) is the flat out_slots position of the k-th incoming link of
        node n in ascending link order, or K·N where n has k or fewer of
        them, one past the last position."""
        k_max = max(map(len, self.in_links))
        table = np.full((k_max, self.node_count), self.out_slots.size, dtype=int)
        for n, ins in enumerate(self.in_links):
            table[:len(ins), n] = self.link_slots[list(ins)]
        return _frozen(table)

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
        if not self.sessions:
            raise ScenarioValidationError("scenario has no session")
        n, n_f = self.network.node_count, len(self.sessions)
        if 8 * n * n_f > np.iinfo(np.intp).max:
            raise ScenarioValidationError(f"node_count {n} needs (N, F) arrays of {8 * n * n_f} "
                                          f"bytes at F = {n_f}, more than numpy can address",
                                          "nodes")
        for i, s in enumerate(self.sessions):
            if s.id != i:
                raise ScenarioValidationError(
                    f"session ids must be 0..F-1 in order, got id {s.id} at position {i}",
                    ("session", i))
            if not (0 <= s.src < n) or not (0 <= s.dst < n):
                raise ScenarioValidationError(f"session {s.id} references a missing node",
                                              ("session", i))
            if s.src == s.dst:
                raise ScenarioValidationError(f"session {s.id} has src == dst == {s.src}",
                                              ("session", i))
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
    def dst_entries(self) -> np.ndarray:
        """(F,) flat index into a C-ordered (N, F) matrix of each session's
        destination entry (dst of f, f)."""
        return _frozen(self.dst * self.n_sessions + np.arange(self.n_sessions))

    @cached_property
    def dst(self) -> np.ndarray:
        return _frozen(np.array([s.dst for s in self.sessions], dtype=int))

    @cached_property
    def utility_shift(self) -> np.ndarray:
        """(F,) k of each session's utility w*log(k + x): 0.0 for wlog, 1.0
        for wlog1p. The one place that reads the kinds for the kernels."""
        return _frozen(np.array([float(s.utility.kind == "wlog1p") for s in self.sessions]))

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
    def forbidden_entries(self) -> np.ndarray:
        """Flat index into a C-ordered (L, F) matrix of each forbidden (link,
        session) pair, in (link, session) order."""
        return _frozen(np.flatnonzero(~self.allow_mask))

    @cached_property
    def head_dst_entries(self) -> np.ndarray:
        """Flat index into a C-ordered (L, F) matrix of each (link, session)
        pair whose link heads into the session's destination, in (link,
        session) order."""
        return _frozen(np.flatnonzero(self.network.heads[:, None] == self.dst))

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
    def in_trees(self) -> np.ndarray:
        """(N, F) BFS in-tree toward each session's destination over the links
        the session may use: entry (n, f) is the first link of a fewest-hop
        path from n to dst_f, and -1 at dst_f and at nodes that cannot reach it."""
        tails = self.network.tails.tolist()
        tree = np.full((self.n_nodes, self.n_sessions), -1, dtype=int)
        for f, (s, usable) in enumerate(zip(self.sessions, self.allow_mask.T.tolist())):
            via = _fewest_hops(self.network.in_links, tails, usable, s.dst)
            tree[:, f] = [-1 if l is None else l for l in via]
        return _frozen(tree)

    @cached_property
    def src_out_cap(self) -> np.ndarray:
        """(F,) total capacity leaving each session's source node."""
        return _frozen(self.network.out_cap[self.src].copy())


_EPS = float(np.finfo(float).eps)


def decision_faults(scenario: Scenario, x, mu, scale=None) -> list:
    """(slot, message) of each slot of the stacks x (T, F) and mu (T, L, F)
    that breaks a per-slot set constraint, in slot order. A slot reports its
    first fault: a NaN rate, else an infinite one (of either sign), else a
    negative one, else a nonzero rate on a forbidden (link, session) pair,
    else the first link whose load exceeds its capacity by more than the
    rounding of the arithmetic that produced it. A load is the pairwise sum
    of the link's row, what mu[t, l].sum() gives.

    That limit is 2 F eps cap_l without scale, for rates this library did not
    project: any order sums F nonnegative terms of exact sum at most cap_l
    to at most (1 + gamma) cap_l, gamma = (F-1)u / (1 - (F-1)u) < F eps (the
    screen below). A DPP row, cap or zero, sums to cap_l exactly. Rows that
    project_rows returned come with scale (T, L), each (slot, link)'s bound
    on max |a| of the projected row, and the limit is 4 F^2 eps scale, the
    bound project_rows proves."""
    x = np.asarray(x, dtype=float)
    mu = np.ascontiguousarray(mu, dtype=float)
    n_t, n_l, n_f = mu.shape
    caps = scenario.network.caps
    limit = (np.broadcast_to(2 * n_f * _EPS * caps, (n_t, n_l)) if scale is None
             else 4 * n_f * n_f * _EPS * np.asarray(scale, dtype=float))
    # NaN fails every comparison; +inf in mu is a forbidden rate or an overload
    bad_rate = ~(((x >= 0) & (x < math.inf)).all(axis=1) & (mu >= 0).all(axis=(1, 2)))
    pairs = mu.reshape(n_t, n_l * n_f)
    forbidden = (pairs.take(scenario.forbidden_entries, axis=1) != 0).any(axis=1)
    # Load screen. BLAS sums a row in another order than numpy's pairwise
    # sum. For F nonnegative terms with exact sum S, any summation order is
    # within gamma·S of S, gamma = (F-1)u / (1 - (F-1)u), u = 2^-53, so the
    # pairwise load is at most (1 + gamma) / (1 - gamma) = 1 + (F-1)·eps +
    # O(F²u²) times the BLAS one. 1 + F·eps (eps = 2u; exact in float64)
    # exceeds that ratio by u - O(F²u²), more than the rounding of the
    # product while F²u is small, so a scaled BLAS load is at least the
    # pairwise load, and, rounding being monotone, a slot whose pairwise
    # load fails the capacity test is flagged. A load of exactly cap_l, as
    # in DPP, scales to about cap_l (1 + F·eps), below the 2F·eps limit, so
    # the screen passes it. inf stays inf and NaN reads as no overload in
    # both sums. A slot with a NaN, infinite or negative rate reports that
    # first, whatever its loads.
    blas = (mu.reshape(n_t * n_l, n_f) @ np.ones(n_f)).reshape(n_t, n_l)
    screen = (blas * (1.0 + n_f * _EPS) - caps > limit).any(axis=1)
    faults = []
    for t in np.flatnonzero(bad_rate | forbidden | screen).tolist():
        if np.isnan(x[t]).any() or np.isnan(mu[t]).any():
            message = "NaN rate in decision"
        elif np.isinf(x[t]).any() or np.isinf(mu[t]).any():
            message = "infinite rate in decision"
        elif bad_rate[t]:
            message = "negative rate in decision"
        elif forbidden[t]:
            message = "nonzero rate on a forbidden (link, session) pair"
        else:
            load = mu[t].sum(axis=1)
            over = load - caps > limit[t]
            if not over.any():  # flagged by the screen only
                continue
            li = int(np.argmax(over))
            message = (f"link {li} overloaded: load {float(load[li])!r} "
                       f"exceeds capacity {float(caps[li])!r}")
        faults.append((t, message))
    return faults


def validate_decision(scenario: Scenario, x, mu):
    """Raise ScenarioValidationError unless the rates x (F,) and mu (L, F) have
    the scenario's shapes and satisfy the per-slot set constraints."""
    x, mu = np.asarray(x, dtype=float), np.asarray(mu, dtype=float)
    if x.shape != (scenario.n_sessions,) or mu.shape != (scenario.n_links, scenario.n_sessions):
        raise ScenarioValidationError("decision shape does not match scenario")
    faults = decision_faults(scenario, x[None], mu[None])
    if faults:
        raise ScenarioValidationError(faults[0][1])


def residual_matrix(scenario: Scenario, x, mu, out=None) -> np.ndarray:
    """(N, F) flow-balance residuals, zero at each session's destination, in
    out (C-contiguous) if given.

    Entry (n, f) is the exogenous arrival of f at n plus incoming mu minus
    outgoing mu. Positive means injection exceeds service at that node. x is
    either the (F,) source-rate vector, arriving at each session's source, or
    a full (N, F) exogenous-arrival matrix.
    """
    x = np.asarray(x, dtype=float)
    # C order: the product sums in a layout-dependent order
    mu = np.ascontiguousarray(mu, dtype=float)
    g = np.matmul(scenario.network.incidence, mu, out=out)
    if x.ndim == 1:
        g.put(scenario.src_entries, g.take(scenario.src_entries) + x)
    else:
        g += x
    g.put(scenario.dst_entries, 0.0)
    return g


def _fewest_hops(links_at, ends, usable, root, stop=None) -> list:
    """Fewest-hop search from root on plain lists: node v's links are
    links_at[v] (Network.out_links, or in_links to search backward), and link
    l leads to ends[l] (heads, or tails) where usable[l] > 0 (not at NaN).
    Returns via, per node the link it was first reached over in queue order,
    -1 at root and None where not reached; it returns once stop is reached."""
    via = [None] * len(links_at)
    via[root] = -1
    queue = [root]
    for v in queue:  # the loop reads the nodes appended during it
        for l in links_at[v]:
            u = ends[l]
            if via[u] is None and usable[l] > 0:
                via[u] = l
                if u == stop:
                    return via
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
    """Sum of session utilities at each row of a (T, F) matrix of rate
    vectors, a (T,) array, or at the rate vector x (F,), a float. Each column
    passes one domain check, Utility.value at its least entry (NaN aside), and
    its terms are w times math.log or math.log1p of each entry, which is what
    Utility.value computes; math.log rounds differently from np.log on some
    inputs. The terms are added in session order."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    total = np.zeros(rows.shape[0])
    lows = np.fmin.reduce(rows, axis=0, initial=math.inf).tolist()
    for s, low, col in zip(scenario.sessions, lows, rows.T.tolist()):
        u = s.utility
        u.value(low)  # raises DomainError unless every entry is in the domain
        w = u.weight
        total += [w * v for v in map(math.log if u.kind == "wlog" else math.log1p, col)]
    return float(total[0]) if x.ndim == 1 else total


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

    A document without a nodes line or without a session line raises a
    ScenarioValidationError; every other error is a ScenarioFormatError that
    names the line at fault.
    """
    node_count = None
    links = []
    sessions = []
    allows = []  # (line, link, session id or None for 'none') per allow line
    line_of = {}  # ScenarioValidationError item -> the line that gave it
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
            line_of["nodes"] = lineno
        elif tag == "link":
            if len(parts) != 4:
                raise ScenarioFormatError(lineno, "link needs: tail head capacity")
            line_of["link", len(links)] = lineno
            links.append(Link(_parse_int(lineno, parts, 1), _parse_int(lineno, parts, 2),
                              _parse_float(lineno, parts, 3)))
        elif tag == "session":
            if len(parts) != 6:
                raise ScenarioFormatError(lineno, "session needs: id src dst kind weight")
            line_of["session", len(sessions)] = lineno
            fid, src, dst = (_parse_int(lineno, parts, i) for i in (1, 2, 3))
            try:
                utility = Utility(parts[4], _parse_float(lineno, parts, 5))
            except ScenarioValidationError as e:
                raise ScenarioFormatError(lineno, f"session {fid}: {e}") from None
            sessions.append(Session(fid, src, dst, utility))
        elif tag == "allow":
            if len(parts) != 3:
                raise ScenarioFormatError(lineno, "allow needs: link_index session_id")
            li = _parse_int(lineno, parts, 1)
            allows.append((lineno, li, None if parts[2] == "none" else _parse_int(lineno, parts, 2)))
        else:
            raise ScenarioFormatError(lineno, f"unknown directive {tag!r}")
    if node_count is None:
        raise ScenarioValidationError("document has no nodes line")
    nf = len(sessions)
    allow_ids: dict = {}
    allow_none: set = set()
    for lineno, li, f in allows:
        if not (0 <= li < len(links)):
            raise ScenarioFormatError(lineno, f"allow references missing link {li}")
        if f is None:
            if allow_ids.get(li):
                raise ScenarioFormatError(lineno, f"allow {li} none conflicts with earlier allow lines")
            allow_none.add(li)
        elif li in allow_none:
            raise ScenarioFormatError(lineno, f"allow line conflicts with earlier allow {li} none")
        elif not (0 <= f < nf):
            raise ScenarioFormatError(lineno, f"allow names missing session {f}")
        else:
            allow_ids.setdefault(li, []).append(f)
    full = frozenset(range(nf))
    allowed = []
    for li in range(len(links)):
        if li in allow_none:
            allowed.append(frozenset())
        elif li in allow_ids:
            allowed.append(frozenset(allow_ids[li]))
        else:
            allowed.append(full)
    try:
        return Scenario(Network(node_count, tuple(links)), tuple(sessions), tuple(allowed))
    except ScenarioValidationError as e:
        if e.item is None:  # a fault of the whole document: no session
            raise
        # the allow-sets are checked above, so the fault names a line's item
        raise ScenarioFormatError(line_of[e.item], str(e)) from None


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

