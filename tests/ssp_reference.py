"""The successive-shortest-paths (SSP) solver that ``tracklets.min_cost_paths``
replaced, kept as an independent reference for the assignment engine.

``ssp_min_cost_paths`` takes the arguments of ``min_cost_paths`` and returns
its (paths, cost). Items that no chain of links joins share no arc but the
source's and the sink's unit arcs, so the optimum is the union of the optima
of the weak components (``components``), and each component is solved by
SSP with Johnson potentials over that component alone (``UnitFlow``). Every
accepted source->sink path has strictly negative true cost, and augmentation
stops at the first nonnegative one, which is the exact optimum for convex
unit flows. Paths come out component by component (components by their
lowest item), and the cost is summed per augmentation.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple


def ssp_min_cost_paths(
    rewards: Sequence[float],
    links: Sequence[Tuple[int, int, float]],
    entry_cost: float,
    exit_cost: float,
) -> Tuple[List[List[int]], float]:
    """``min_cost_paths`` by SSP on each weak component of the link graph."""
    for a, b, _ in links:
        if not 0 <= a < b < len(rewards):
            raise ValueError(f"link ({a}, {b}) must join items a < b of {len(rewards)}")
    paths: List[List[int]] = []
    total_cost = 0.0
    for items, component_links in components(len(rewards), links):
        flow = UnitFlow(items, rewards, component_links, entry_cost, exit_cost)
        component_paths, cost = flow.solve()
        paths.extend(component_paths)
        total_cost += cost
    return paths, total_cost


def components(
    num_items: int, links: Sequence[Tuple[int, int, float]]
) -> List[Tuple[List[int], List[Tuple[int, int, float]]]]:
    """Weak components of the link graph as (items, links) pairs, both in
    input order, listed by their lowest item."""
    root = list(range(num_items))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b, _ in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    components: Dict[int, Tuple[List[int], List[Tuple[int, int, float]]]] = {}
    for item in range(num_items):
        components.setdefault(find(item), ([], []))[0].append(item)
    for link in links:
        components[find(link[0])][1].append(link)
    return list(components.values())


class UnitFlow:
    """The residual graph of one weak component and its SSP solve.

    ``items`` come in increasing order. Local node ids: 0 is the source,
    1 the sink, and the k-th item gets in-node 2 + 2k and out-node 3 + 2k,
    so node order, arc order and heap tie-breaks follow the global item
    order, and the local node ids in order are a topological order.
    """

    def __init__(self, items: Sequence[int], rewards: Sequence[float],
                 links: Sequence[Tuple[int, int, float]], entry_cost: float,
                 exit_cost: float):
        self.items = list(items)
        local = {item: k for k, item in enumerate(self.items)}
        self.source = 0
        self.sink = 1
        self.num_nodes = 2 + 2 * len(self.items)
        self.graph: List[List[list]] = [[] for _ in range(self.num_nodes)]
        for k, item in enumerate(self.items):
            self._add_arc(self.source, 2 + 2 * k, entry_cost)
            self._add_arc(2 + 2 * k, 3 + 2 * k, -rewards[item])
            self._add_arc(3 + 2 * k, self.sink, exit_cost)
        for a, b, cost in links:
            self._add_arc(3 + 2 * local[a], 2 + 2 * local[b], cost)
        self.topo_order = [self.source, *range(2, self.num_nodes), self.sink]

    def _add_arc(self, u: int, v: int, cost: float) -> None:
        self.graph[u].append([v, 1, cost, len(self.graph[v]), True])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1, False])

    def _initial_potentials(self) -> List[float]:
        # Zero flow means the residual graph is the original DAG; one
        # relaxation sweep in topological order yields exact distances.
        dist = [math.inf] * self.num_nodes
        dist[self.source] = 0.0
        for u in self.topo_order:
            if not math.isfinite(dist[u]):
                continue
            for arc in self.graph[u]:
                v, cap, cost, _, _ = arc
                if cap > 0 and dist[u] + cost < dist[v]:
                    dist[v] = dist[u] + cost
        return dist

    def solve(self) -> Tuple[List[List[int]], float]:
        potential = self._initial_potentials()
        total_cost = 0.0
        n = self.num_nodes
        while True:
            dist = [math.inf] * n
            parent: List[Optional[Tuple[int, int]]] = [None] * n
            dist[self.source] = 0.0
            heap = [(0.0, self.source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + 1e-12:
                    continue
                for idx, arc in enumerate(self.graph[u]):
                    v, cap, cost, _, _ = arc
                    if cap <= 0 or not math.isfinite(potential[v]):
                        continue
                    reduced = max(cost + potential[u] - potential[v], 0.0)
                    nd = d + reduced
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        parent[v] = (u, idx)
                        heapq.heappush(heap, (nd, v))
            if not math.isfinite(dist[self.sink]):
                break
            true_cost = dist[self.sink] + potential[self.sink] - potential[self.source]
            if true_cost >= -1e-12:
                break
            # augment one unit along the shortest path
            v = self.sink
            while v != self.source:
                u, idx = parent[v]
                arc = self.graph[u][idx]
                arc[1] -= 1
                self.graph[v][arc[3]][1] += 1
                v = u
            total_cost += true_cost
            bound = dist[self.sink]
            for v in range(n):
                if math.isfinite(potential[v]):
                    potential[v] += min(dist[v], bound)
        return self._decompose_paths(), total_cost

    def _decompose_paths(self) -> List[List[int]]:
        # Flow on a forward arc equals the residual capacity of its reverse
        # twin (created empty). Walk unit paths source -> sink, consuming flow.
        paths: List[List[int]] = []
        while True:
            u = self.source
            path_items: List[int] = []
            while u != self.sink:
                step = None
                for arc in self.graph[u]:
                    v, _, _, rev, forward = arc
                    if forward and self.graph[v][rev][1] > 0:
                        step = (v, rev)
                        break
                if step is None:
                    break
                v, rev = step
                self.graph[v][rev][1] -= 1
                if u >= 2 and (u - 2) % 2 == 0 and v == u + 1:
                    path_items.append(self.items[(u - 2) // 2])
                u = v
            if u != self.sink or not path_items:
                break
            paths.append(path_items)
        return paths
