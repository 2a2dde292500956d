"""Cost-aware placement of whole tasks onto the CPU or NDP units.

Placement granularity is the task (function); a task never splits across
unit classes, and a tiled stage goes to one class as a group, split across
that class's units.  The greedy list scheduler walks the deterministic
topological order stage by stage and picks, per group, the class minimizing
completion time plus the boundary-handoff overhead the placement creates.
Every cross-location data edge is one transfer; every CPU<->NDP data edge
additionally charges one context-handoff constant.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field

from .analyzer import estimate_time
from .errors import CapacityError, DomainError, ScheduleError
from .machine import (CPU_LIKE, CPU_SIDE, HOST, Location, MachineConfig,
                      UnitClass, UnitRef, bandwidth, mesh_hops)
from .workload import KernelFamily, TaskGraph

POLICIES = ("hybrid", "cpu_only", "ndp_only")


@dataclass(frozen=True)
class Transfer:
    object_id: str
    bytes: int
    src: int           # HOST, CPU_SIDE, or stack id
    dst: int
    cause_task: str    # the consuming task; transfers are per data edge

    @property
    def crosses_boundary(self) -> bool:
        """True for CPU<->stack moves of task-produced data.

        Loads of host-resident inputs are staging, not scheduling overhead.
        """
        if self.src == HOST:
            return False
        return (self.src == CPU_SIDE) != (self.dst == CPU_SIDE)


@dataclass(frozen=True)
class OverheadBreakdown:
    dt_total: float
    cxt_total: float
    cxt_count: int

    @property
    def total(self) -> float:
        return self.dt_total + self.cxt_total


@dataclass
class Schedule:
    policy: str
    placements: dict[str, list[UnitRef]]
    transfers: list[Transfer]
    # Cross-boundary producer->consumer edges; each charges one CXT.
    crossing_edges: list[tuple[str, str, str]] = field(default_factory=list)
    overhead: OverheadBreakdown | None = None

    def units_of(self, task_id: str) -> list[UnitRef]:
        return self.placements[task_id]

    def to_csv(self, graph: TaskGraph, starts: dict[str, float] | None = None) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["task_id", "family", "unit_class", "stack_id", "unit_id",
                         "start_estimate_s"])
        for tid in sorted(self.placements):
            for u in self.placements[tid]:
                writer.writerow([
                    tid, graph.task(tid).family.value, u.cls.value,
                    "" if u.stack_id is None else u.stack_id,
                    "" if u.unit_id is None else u.unit_id,
                    repr(starts.get(tid, 0.0)) if starts else "",
                ])
        return out.getvalue()


def transfer_cost(n_bytes: float, src: int, dst: int, cfg: MachineConfig) -> float:
    """Seconds to move bytes between two endpoints, uncontended.

    Host memory sits on the CPU side, one hop from any stack over the CPU
    link; stacks reach each other over mesh links with Manhattan-distance
    hops.  Same endpoint (or host<->CPU) costs nothing.
    """
    if n_bytes < 0:
        raise DomainError("transfer bytes must be >= 0")
    for loc in (src, dst):
        if loc < HOST:
            raise DomainError(f"unknown location {loc}")
    if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
        return 0.0
    hop = cfg.interconnect.hop_latency_s
    if src in CPU_LIKE or dst in CPU_LIKE:
        return n_bytes / bandwidth(Location.CPU_LINK, cfg) + 1 * hop
    hops = mesh_hops(src, dst, cfg)
    return n_bytes / bandwidth(Location.MESH_HOP, cfg) + hops * hop


def scheduling_overhead(schedule: Schedule, cfg: MachineConfig) -> OverheadBreakdown:
    """Boundary-handoff cost of a schedule: data transfer plus per-edge constant.

    Only CPU<->NDP movements of task-produced data count; stack-to-stack
    traffic and host-side staging appear in the simulation timeline but are
    not scheduling overhead.
    """
    dt = sum(transfer_cost(t.bytes, t.src, t.dst, cfg)
             for t in schedule.transfers if t.crosses_boundary)
    n_cxt = len(schedule.crossing_edges)
    return OverheadBreakdown(dt_total=dt, cxt_total=n_cxt * cfg.cxt_s, cxt_count=n_cxt)


def schedule_from_placements(graph: TaskGraph, cfg: MachineConfig,
                             placements: dict[str, list[UnitRef]],
                             policy: str = "manual") -> Schedule:
    """Derive the full schedule (transfers, crossing edges, overhead) from a
    task->units map.

    Every data edge whose endpoints differ becomes one transfer; all-to-all
    tasks exchange partitions in place and stage nothing.  This is the single
    source of truth for the edge bookkeeping: plan() and the exhaustive
    oracle both go through it.
    """
    transfers: list[Transfer] = []
    crossings: list[tuple[str, str, str]] = []
    location: dict[str, int] = {}
    for tid in graph.topo_order():
        task = graph.task(tid)
        if tid not in placements or not placements[tid]:
            raise ScheduleError(f"task {tid} has no placement")
        dst = location[tid] = placements[tid][0].location()
        if task.family is KernelFamily.ALLTOALL:
            continue
        for oid in task.inputs:
            producer = graph.producers.get(oid)
            if producer is None:
                src = graph.data_objects[oid].initial_location
                if src is None:
                    raise ScheduleError(f"object {oid} has no producer or home")
            else:
                src = location[producer]
            if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
                continue
            transfers.append(Transfer(
                object_id=oid, bytes=graph.data_objects[oid].size,
                src=src, dst=dst, cause_task=tid))
            if producer is not None and (src == CPU_SIDE) != (dst == CPU_SIDE):
                crossings.append((producer, tid, oid))
    schedule = Schedule(policy=policy, placements=dict(placements),
                        transfers=transfers, crossing_edges=crossings)
    schedule.overhead = scheduling_overhead(schedule, cfg)
    return schedule


@dataclass
class _Assignment:
    """Tentative placement of one stage group on one unit class."""

    units: dict[str, UnitRef]
    ends: dict[str, float]
    ndp_free: list[float]       # per-unit ready times
    cpu_free: float
    link_free: float
    completion: float
    overhead: float
    input_bytes_resident: float


class _PlanState:
    """Unit, link and data cursors of a partial plan.

    The per-graph facts (object sizes, whether a task fits in NDP memory,
    and the duration table of every task on every permitted class) are
    built once per plan() call and shared by all snapshots.  A task's
    roofline time depends only on its unit class and its (flops, bytes
    read, bytes written) shape, so the table is filled with one estimate
    per distinct shape and class and serves every candidate unit.
    """

    def __init__(self, graph: TaskGraph, cfg: MachineConfig,
                 classes: list[UnitClass]):
        self.graph = graph
        self.cfg = cfg
        self.classes = classes
        self.cpu = UnitRef.cpu()
        self.ups = cfg.ndp.units_per_stack
        self.ndp_units = [UnitRef.ndp(s, u)
                          for s in range(cfg.total_stacks)
                          for u in range(self.ups)]
        self.ndp_loc = [u.location() for u in self.ndp_units]
        self.ndp_free = [0.0] * len(self.ndp_units)
        self.cpu_free = 0.0
        self.link_free = 0.0  # CPU link cursor for staging serialization
        self.size = {oid: obj.size for oid, obj in graph.data_objects.items()}
        self.obj_loc: dict[str, int] = {}
        self.obj_ready: dict[str, float] = {}
        for oid, obj in graph.data_objects.items():
            if obj.initial_location is not None:
                self.obj_loc[oid] = obj.initial_location
                self.obj_ready[oid] = 0.0
        self.placements: dict[str, list[UnitRef]] = {}
        probe = {UnitClass.CPU: self.cpu, UnitClass.NDP_UNIT: UnitRef.ndp(0, 0)}
        self.duration: dict[UnitClass, dict[str, float]] = {}
        for cls in classes:
            by_shape: dict[tuple[float, float, float], float] = {}
            table = self.duration[cls] = {}
            for t in graph.tasks:
                shape = (t.flops, t.bytes_read, t.bytes_written)
                if shape not in by_shape:
                    by_shape[shape] = estimate_time(t, probe[cls], cfg).seconds
                table[t.id] = by_shape[shape]
        # streaming capacity: outputs plus the largest input window must fit
        # in the NDP memory; host memory backs the CPU side
        self.fits_ndp = {
            t.id: sum(self.size[o] for o in t.outputs)
            + max((self.size[o] for o in t.inputs), default=0)
            <= cfg.hbm.total_capacity
            for t in graph.tasks}
        # transfer_cost per (object, src, dst), filled as moves are staged
        self.move_s: dict[tuple[str, int, int], float] = {}

    def snapshot(self, members: list, chosen: _Assignment) -> "_PlanState":
        """Clone with the assignment committed, for lookahead evaluation.

        The clone equals what this state becomes after commit(members,
        chosen), so evaluations made on it stay valid after the commit.
        """
        clone = copy.copy(self)
        clone.obj_loc = dict(self.obj_loc)
        clone.obj_ready = dict(self.obj_ready)
        clone.placements = {}
        clone.commit(members, chosen)
        return clone

    def class_options(self, members: list) -> list[UnitClass]:
        if members[0].family is KernelFamily.ALLTOALL and len(self.classes) > 1:
            # A collective runs where its partitions live; it is not a
            # placement choice the boundary can hide behind.
            ndp_bytes = cpu_bytes = 0
            for task in members:
                for oid in task.inputs:
                    if self.obj_loc.get(oid, HOST) >= 0:
                        ndp_bytes += self.size[oid]
                    else:
                        cpu_bytes += self.size[oid]
            return [UnitClass.NDP_UNIT if ndp_bytes > cpu_bytes
                    else UnitClass.CPU]
        return self.classes

    def stage_inputs(self, task, dst: int, link_free: float,
                     ) -> tuple[float, float, float]:
        """Arrival time of the task's inputs at dst.

        Returns (data_ready, new link cursor, crossing overhead).  All-to-all
        tasks exchange in place and stage nothing.
        """
        overhead = 0.0
        data_ready = 0.0
        if task.family is KernelFamily.ALLTOALL:
            for oid in task.inputs:
                data_ready = max(data_ready, self.obj_ready.get(oid, 0.0))
            return data_ready, link_free, overhead
        cfg = self.cfg
        for oid in task.inputs:
            if oid not in self.obj_loc:
                raise ScheduleError(f"object {oid} consumed before production")
            src = self.obj_loc[oid]
            avail = self.obj_ready[oid]
            if src != dst and not (src in CPU_LIKE and dst in CPU_LIKE):
                dt = self.move_s.get((oid, src, dst))
                if dt is None:
                    dt = transfer_cost(self.size[oid], src, dst, cfg)
                    self.move_s[(oid, src, dst)] = dt
                if src in CPU_LIKE or dst in CPU_LIKE:
                    # the CPU link is a serialized resource
                    start = max(avail, link_free)
                    link_free = start + dt
                    avail = link_free
                else:
                    avail += dt
                produced = oid in self.graph.producers
                if produced and (src == CPU_SIDE) != (dst == CPU_SIDE):
                    overhead += dt + cfg.cxt_s
                    avail += cfg.cxt_s  # receiving side stalls for the handoff
            data_ready = max(data_ready, avail)
        return data_ready, link_free, overhead

    def evaluate_group(self, members: list, cls: UnitClass) -> _Assignment | None:
        """Tentatively place a stage group on one class, task by task.

        Each task goes to the candidate unit that finishes it first.  On the
        CPU the only candidate is the CPU; on NDP they are the least-loaded
        unit of the fleet and the least-loaded unit of the stack holding the
        task's largest input, with ties going to the lower unit index.
        Returns None if some task fits on no unit of the class.  The state
        itself is not modified.
        """
        duration = self.duration[cls]
        obj_loc = self.obj_loc
        size = self.size
        ndp_free = list(self.ndp_free)
        cpu_free = self.cpu_free
        link_free = self.link_free
        units: dict[str, UnitRef] = {}
        ends: dict[str, float] = {}
        completion = 0.0
        overhead = 0.0
        resident = 0.0
        for task in members:
            dur = duration[task.id]
            if cls is UnitClass.CPU:
                ready, lf, ovh = self.stage_inputs(task, CPU_SIDE, link_free)
                eft, idx, loc = max(cpu_free, ready) + dur, -1, CPU_SIDE
            else:
                if not self.fits_ndp[task.id]:
                    return None  # nothing on this class can hold the task
                least = ndp_free.index(min(ndp_free))
                candidates = [least]
                # locality candidate: least-loaded unit in the stack holding
                # the largest staged input
                largest = max(((size[o], obj_loc.get(o, HOST))
                               for o in task.inputs), default=(0, HOST))
                if largest[1] >= 0:
                    lo = largest[1] * self.ups
                    window = ndp_free[lo:lo + self.ups]
                    local = lo + window.index(min(window))
                    if local != least:
                        candidates.append(local)
                best = None
                for i in candidates:
                    ready, lf_i, ovh_i = self.stage_inputs(
                        task, self.ndp_loc[i], link_free)
                    row = (max(ndp_free[i], ready) + dur, i, self.ndp_loc[i],
                           lf_i, ovh_i)
                    if best is None or row[:2] < best[:2]:
                        best = row
                eft, idx, loc, lf, ovh = best
            units[task.id] = self.cpu if idx < 0 else self.ndp_units[idx]
            ends[task.id] = eft
            if idx < 0:
                cpu_free = eft
            else:
                ndp_free[idx] = eft
            link_free = lf
            overhead += ovh
            completion = max(completion, eft)
            for oid in task.inputs:
                if obj_loc.get(oid, HOST) == loc:
                    resident += size[oid]
        return _Assignment(units=units, ends=ends, ndp_free=ndp_free,
                           cpu_free=cpu_free, link_free=link_free,
                           completion=completion, overhead=overhead,
                           input_bytes_resident=resident)

    def evaluate_all(self, members: list) -> dict[UnitClass, _Assignment | None]:
        return {cls: self.evaluate_group(members, cls)
                for cls in self.class_options(members)}

    def commit(self, members: list, chosen: _Assignment) -> None:
        # evaluate_group copies ndp_free before writing, so sharing the
        # assignment's list is safe
        self.ndp_free = chosen.ndp_free
        self.cpu_free = chosen.cpu_free
        self.link_free = chosen.link_free
        for task in members:
            unit = chosen.units[task.id]
            self.placements[task.id] = [unit]
            loc = unit.location()
            for oid in task.outputs:
                self.obj_loc[oid] = loc
                self.obj_ready[oid] = chosen.ends[task.id]


def plan(graph: TaskGraph, cfg: MachineConfig, policy: str = "hybrid") -> Schedule:
    """List-schedule the graph under a placement policy.

    ``hybrid`` chooses per stage group between the CPU and the NDP fleet;
    ``cpu_only`` / ``ndp_only`` force one class and serve as the measurement
    baselines.  Each class is scored with a one-group lookahead: the best
    finish of the next group on the state the class leaves behind, plus
    the class's own boundary overhead; the lowest (score, -resident input
    bytes, CPU first) rank wins.  Overheads are never negative, so a
    class's score is never below its own completion plus overhead; classes
    are visited by that floor and the lookahead stops once the floor ranks
    above the best full rank, which no later class can beat.  The winner's
    lookahead evaluations are reused as the next group's own evaluations,
    since committing the winner yields exactly the snapshot they ran on.
    """
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    classes = []
    if policy in ("hybrid", "cpu_only"):
        classes.append(UnitClass.CPU)
    if policy in ("hybrid", "ndp_only"):
        classes.append(UnitClass.NDP_UNIT)
    state = _PlanState(graph, cfg, classes)

    groups: list[tuple[str, list]] = []
    for tid in graph.topo_order():
        task = graph.task(tid)
        key = task.id.rsplit("_", 1)[0]
        if groups and groups[-1][0] == key:
            groups[-1][1].append(task)
        else:
            groups.append((key, [task]))

    evaluations = state.evaluate_all(groups[0][1]) if groups else {}
    for gi, (key, members) in enumerate(groups):
        nxt = groups[gi + 1][1] if gi + 1 < len(groups) else None
        # ties: prefer the class holding more input bytes, then CPU.  The
        # floor is each class's rank with its own completion as the score,
        # which the lookahead score never goes below.
        floors = sorted(
            ((a.completion + a.overhead, -a.input_bytes_resident,
              0 if cls is UnitClass.CPU else 1), a)
            for cls, a in evaluations.items() if a is not None)
        best = None
        for floor, assignment in floors:
            if best is not None and floor > best[0]:
                break  # neither this class nor any later one can rank first
            score = floor[0]
            follow: dict[UnitClass, _Assignment | None] = {}
            # One-group lookahead: a placement that strands its outputs on
            # the wrong side of the boundary must pay for it now.
            if nxt is not None:
                follow = state.snapshot(members, assignment).evaluate_all(nxt)
                finishes = [max(assignment.completion, a.completion) + a.overhead
                            for a in follow.values() if a is not None]
                if finishes:
                    score = min(finishes) + assignment.overhead
            rank = (score,) + floor[1:]
            if best is None or rank < best[0]:
                best = (rank, assignment, follow)
        if best is None:
            raise CapacityError(
                f"stage {key} fits on no permitted unit under policy {policy}")
        _, chosen, evaluations = best
        state.commit(members, chosen)

    return schedule_from_placements(graph, cfg, state.placements, policy=policy)
