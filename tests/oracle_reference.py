"""The exhaustive oracle that bounds the greedy object solve's optimality gap
on small instances, kept as a test reference.

``brute_force_oracle`` enumerates every entry -> exit path of a
``TransitionGraph``, reading its record views (``graph.nodes``,
``graph.edges``), and returns the best capacity-respecting set of at most
``ORACLE_MAX_OBJECTS`` paths as a ``FlowSolution``. Guard rails bound the
instances it accepts; beyond them it raises ``OracleLimitError``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from fluenttrack.solver import ENTRY_KINDS, FlowSolution, TransitionGraph, _decode_paths


class OracleLimitError(ValueError):
    """Instance exceeds the exhaustive oracle's guard rails."""


# The oracle's guard rails: the largest instance it takes (frames, graph
# nodes in one frame), the most objects it places, and the most entry -> exit
# paths it enumerates before it gives up.
ORACLE_MAX_FRAMES = 10
ORACLE_MAX_NODES_PER_FRAME = 12
ORACLE_MAX_OBJECTS = 4
ORACLE_PATH_BUDGET = 50000


def brute_force_oracle(graph: TransitionGraph) -> FlowSolution:
    """Globally optimal joint flow by exhaustive path-subset enumeration.

    Guard rails reject instances beyond ``ORACLE_MAX_FRAMES`` frames or
    ``ORACLE_MAX_NODES_PER_FRAME`` nodes in a frame, and more than
    ``ORACLE_PATH_BUDGET`` paths. The search enumerates every feasible set
    of at most ``ORACLE_MAX_OBJECTS`` capacity-respecting paths and returns
    the best total objective.
    """
    frames: Dict[int, int] = {}
    for n in graph.nodes:
        frames[n.frame] = frames.get(n.frame, 0) + 1
    if len(frames) > ORACLE_MAX_FRAMES:
        raise OracleLimitError(f"instance spans {len(frames)} frames > {ORACLE_MAX_FRAMES}")
    if frames and max(frames.values()) > ORACLE_MAX_NODES_PER_FRAME:
        raise OracleLimitError(
            f"instance has {max(frames.values())} nodes in one frame > "
            f"{ORACLE_MAX_NODES_PER_FRAME}"
        )

    # enumerate all entry -> exit paths
    paths: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []

    def extend(nid: int, cost: float, node_path: List[int], edge_path: List[int]) -> None:
        if len(paths) > ORACLE_PATH_BUDGET:
            raise OracleLimitError("path enumeration exceeded the oracle budget")
        exit_cost = graph.exit_costs.get(nid)
        if exit_cost is not None:
            paths.append((cost + exit_cost, tuple(node_path), tuple(edge_path)))
        for eid in graph.adjacency[nid]:
            edge = graph.edges[eid]
            node_path.append(edge.dst)
            edge_path.append(eid)
            extend(edge.dst, cost + edge.net_cost, node_path, edge_path)
            node_path.pop()
            edge_path.pop()

    for n in graph.nodes:
        if n.kind in ENTRY_KINDS:
            extend(n.id, graph.entry_cost, [n.id], [])

    candidates = sorted(
        (p for p in paths if p[0] < -1e-12), key=lambda p: (p[0], p[1])
    )
    best_total = 0.0
    best_subset: Tuple[int, ...] = ()
    suffix_min = [0.0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(candidates[i][0], 0.0)

    node_capacity = [n.capacity for n in graph.nodes]

    def feasible(idx: int) -> bool:
        return all(node_capacity[n] > 0 for n in candidates[idx][1])

    def search(start: int, count: int, total: float, chosen: List[int]) -> None:
        # recursion depth is bounded by ORACLE_MAX_OBJECTS: we only recurse on takes
        nonlocal best_total, best_subset
        if total < best_total - 1e-15:
            best_total = total
            best_subset = tuple(chosen)
        if count >= ORACLE_MAX_OBJECTS:
            return
        for idx in range(start, len(candidates)):
            if total + suffix_min[idx] >= best_total - 1e-15:
                break
            if not feasible(idx):
                continue
            node_path = candidates[idx][1]
            for n in node_path:
                node_capacity[n] -= 1
            chosen.append(idx)
            search(idx + 1, count + 1, total + candidates[idx][0], chosen)
            chosen.pop()
            for n in node_path:
                node_capacity[n] += 1

    search(0, 0, 0.0, [])

    flows: Dict[int, int] = {}
    for idx in best_subset:
        for eid in candidates[idx][2]:
            flows[eid] = flows.get(eid, 0) + 1
    return FlowSolution(
        object_flows=flows,
        objective=-best_total,
        trajectories=_decode_paths(graph, [candidates[idx][1] for idx in best_subset],
                                   [candidates[idx][2] for idx in best_subset],
                                   len(graph.containers.trajectories)),
        paths=tuple(candidates[idx][1] for idx in best_subset),
    )
