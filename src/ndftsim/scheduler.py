"""Cost-aware placement of whole tasks onto the CPU or NDP units.

Placement granularity is the task (function); a task never splits across
unit classes, and a tiled stage goes to one class as a group, each tile on
one of that class's units.  The greedy list scheduler walks the graph's task
list, which is its execution order, stage by stage and picks, per group, the
class minimizing completion time plus the boundary-handoff overhead the
placement creates.  Every cross-location data edge is one transfer; every
CPU<->NDP data edge additionally charges one context-handoff constant.  Both
follow from the placements alone, through placed_moves, which the simulator
walks too.
"""

from __future__ import annotations

import copy
import csv
import io
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .analyzer import estimate_time
from .errors import CapacityError, DomainError, ScheduleError
from .machine import (CPU_SIDE, HOST, MachineConfig, PathKind, UnitClass,
                      UnitRef, crosses_boundary)
from .workload import KernelDescriptor, KernelFamily, TaskGraph

# the unit classes each policy may place a stage group on
_POLICY_CLASSES = {
    "hybrid": (UnitClass.CPU, UnitClass.NDP_UNIT),
    "cpu_only": (UnitClass.CPU,),
    "ndp_only": (UnitClass.NDP_UNIT,),
}
POLICIES = tuple(_POLICY_CLASSES)


@dataclass(frozen=True)
class Transfer:
    object_id: str
    bytes: int
    src: int           # HOST, CPU_SIDE, or stack id
    dst: int
    cause_task: str    # the consuming task; transfers are per data edge

    @property
    def crosses_boundary(self) -> bool:
        return crosses_boundary(self.src, self.dst)


@dataclass(frozen=True)
class OverheadBreakdown:
    dt_total: float
    cxt_total: float
    cxt_count: int

    @property
    def total(self) -> float:
        return self.dt_total + self.cxt_total


_DERIVED = ("transfers", "crossing_edges", "overhead")


@dataclass
class Schedule:
    """A task->unit map, and the moves and handoffs it implies.

    A hand-built schedule states its lists (``overhead`` stays None unless
    given).  A planned one derives ``transfers``, ``crossing_edges`` and
    ``overhead`` on first read, as schedule_from_placements would, from the
    graph and machine it was planned on.  simulate() reads none of the
    three, only ``placements`` and ``policy``.
    """

    policy: str
    placements: dict[str, UnitRef]
    transfers: list[Transfer]
    # Cross-boundary producer->consumer edges; each charges one CXT.
    crossing_edges: list[tuple[str, str, str]] = field(default_factory=list)
    # a factory, not a plain default: a class attribute would answer a
    # planned schedule's first read before __getattr__ derives it
    overhead: OverheadBreakdown | None = field(default_factory=lambda: None)

    @classmethod
    def _deferred(cls, policy: str, placements: dict[str, UnitRef],
                  graph: TaskGraph, cfg: MachineConfig) -> "Schedule":
        """A schedule whose derived fields are left to __getattr__."""
        schedule = cls.__new__(cls)
        schedule.policy = policy
        schedule.placements = placements
        schedule._source = (graph, cfg)
        return schedule

    def __getattr__(self, name: str):
        # reached only for a derived field a planned schedule has not set
        source = self.__dict__.get("_source") if name in _DERIVED else None
        if source is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        full = schedule_from_placements(*source, self.placements, self.policy)
        for derived in _DERIVED:
            self.__dict__.setdefault(derived, getattr(full, derived))
        del self.__dict__["_source"]
        return self.__dict__[name]

    def to_csv(self, graph: TaskGraph) -> str:
        """One row per task; the start_estimate_s column is kept empty."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["task_id", "family", "unit_class", "stack_id", "unit_id",
                         "start_estimate_s"])
        for tid in sorted(self.placements):
            u = self.placements[tid]
            writer.writerow([
                tid, graph.task(tid).family.value, u.cls.value,
                "" if u.stack_id is None else u.stack_id,
                "" if u.unit_id is None else u.unit_id, ""])
        return out.getvalue()


def transfer_cost(n_bytes: float, src: int, dst: int, cfg: MachineConfig) -> float:
    """Seconds to move bytes between two endpoints, uncontended.

    The machine's LinkModel routes and prices the move: host memory sits on
    the CPU side, one hop from any stack over the CPU link; stacks reach
    each other over mesh links with Manhattan-distance hops.  Same endpoint
    (or host<->CPU) costs nothing; an endpoint outside the machine is a
    DomainError.
    """
    if n_bytes < 0:
        raise DomainError("transfer bytes must be >= 0")
    return cfg.links.path(src, dst).seconds(n_bytes)


def scheduling_overhead(schedule: Schedule, cfg: MachineConfig) -> OverheadBreakdown:
    """Boundary-handoff cost of a listed schedule: data transfer plus
    per-edge constant.

    Only CPU<->stack moves count (see crosses_boundary); stack-to-stack
    traffic and host-side staging appear in the simulation timeline but are
    not scheduling overhead.
    """
    # added one by one, in list order, as simulate() adds them: sum() of
    # floats rounds otherwise from Python 3.12 on
    dt = 0
    for t in schedule.transfers:
        if t.crosses_boundary:
            dt += transfer_cost(t.bytes, t.src, t.dst, cfg)
    n_cxt = len(schedule.crossing_edges)
    return OverheadBreakdown(dt_total=dt, cxt_total=n_cxt * cfg.cxt_s, cxt_count=n_cxt)


def placed_moves(graph: TaskGraph, cfg: MachineConfig,
                 placements: dict[str, UnitRef], start: int = 0,
                 ) -> Iterator[tuple[KernelDescriptor, UnitRef, int, list[tuple]]]:
    """Yield (task, unit, location, inputs) for every task, in ``topo_order()``,
    from task ``start`` on.  The tasks before it are placed (their units
    checked and their locations noted for their consumers) but not yielded,
    and their inputs are not built.

    ``inputs`` holds one plain tuple per input (a matrix pass builds about
    450,000): (object id, bytes, producer or None, source location, path or
    None when already in place, crossing).

    This is the one rule for where data comes from and whether it moves.  An
    input comes from its producer's location, or else from its object's
    home; whether it moves, and whether the move crosses the CPU/NDP
    boundary, is the machine's move record (LinkModel.move).  All-to-all
    tasks exchange their partitions in place, so their inputs never move
    here.  Each crossing of task-produced data is one handoff.  A task not
    placed on a UnitRef, or an input with neither a producer nor a home, is
    a ScheduleError; a unit outside the machine is a DomainError.
    """
    move_of = cfg.links.move
    producers = graph.producers
    objects = graph.data_objects
    unit_loc: dict[UnitRef, int] = {}
    location: dict[str, int] = {}
    for i, tid in enumerate(graph.topo_order()):
        unit = placements.get(tid)
        if not isinstance(unit, UnitRef):
            raise ScheduleError(f"task {tid} is not placed on a unit: {unit!r}")
        if unit not in unit_loc:
            unit.check_against(cfg)
            unit_loc[unit] = unit.location()
        dst = location[tid] = unit_loc[unit]
        if i < start:
            continue
        task = graph.task(tid)
        stages = task.family is not KernelFamily.ALLTOALL
        inputs = []
        for oid in task.inputs:
            producer = producers.get(oid)
            obj = objects[oid]
            src = obj.initial_location if producer is None else location[producer]
            if src is None:
                raise ScheduleError(f"object {oid} has no producer or home")
            move = move_of(src, dst) if stages else (None, False)
            inputs.append((oid, obj.size, producer, src) + move)
        yield task, unit, dst, inputs


def schedule_from_placements(graph: TaskGraph, cfg: MachineConfig,
                             placements: dict[str, UnitRef],
                             policy: str = "manual") -> Schedule:
    """Derive the full schedule (transfers, crossing edges, overhead) from a
    task->unit map.

    Every input that placed_moves moves becomes one transfer, listed in task
    order and, within a task, in input order.  A planned schedule's first
    read of a derived field and the exhaustive oracle go through here;
    simulate() walks the placements itself and reads neither list.
    """
    transfers: list[Transfer] = []
    crossings: list[tuple[str, str, str]] = []
    for task, _unit, dst, inputs in placed_moves(graph, cfg, placements):
        for oid, n_bytes, producer, src, path, crossing in inputs:
            if path is not None:
                transfers.append(Transfer(oid, n_bytes, src, dst, task.id))
            if crossing and producer is not None:
                crossings.append((producer, task.id, oid))
    schedule = Schedule(policy=policy, placements=dict(placements),
                        transfers=transfers, crossing_edges=crossings)
    schedule.overhead = scheduling_overhead(schedule, cfg)
    return schedule


@dataclass
class _Assignment:
    """Tentative placement of one stage group on one unit class."""

    cls: UnitClass
    units: dict[str, UnitRef]
    ends: dict[str, float]
    ndp_free: list[float]       # per-unit ready times
    cpu_free: float
    link_free: float
    completion: float
    overhead: float
    input_bytes_resident: float


# one letter per class in a plan state's committed prefix
_CODE = {UnitClass.CPU: "c", UnitClass.NDP_UNIT: "n"}


class PlanContext:
    """What plan() derives from one graph and one machine alone.

    That is the object sizes, the homes of the objects no task produces (a
    produced object comes from its producer, as in placed_moves), the stage
    groups, the duration table of each class (filled the first time the
    class is planned), whether each task fits in NDP memory (built the first
    time an NDP class is evaluated, so a cpu_only plan never builds it), and
    a memo of group evaluations keyed by (classes committed so far, class).
    A task's roofline time depends only on its unit class and its (flops,
    bytes read, bytes written) shape, so a duration table holds one
    estimate per distinct shape and serves every candidate unit.

    Plans of any policy may share a context.  The memo is exact: a group
    evaluation reads only the plan state's cursors, and those are a
    function of the classes committed before the group; the policy decides
    only which classes are evaluated and chosen.
    """

    def __init__(self, graph: TaskGraph, cfg: MachineConfig):
        self.graph = graph
        self.cfg = cfg
        self.size = {oid: obj.size for oid, obj in graph.data_objects.items()}
        self.homes = {oid: obj.initial_location
                      for oid, obj in graph.data_objects.items()
                      if obj.initial_location is not None
                      and oid not in graph.producers}
        # consecutive tasks of one stage are placed as one group
        self.groups: list[tuple[str, list]] = []
        for task in graph.tasks:
            if self.groups and self.groups[-1][0] == task.stage:
                self.groups[-1][1].append(task)
            else:
                self.groups.append((task.stage, [task]))
        self.ndp_units = [UnitRef.ndp(s, u)
                          for s in range(cfg.total_stacks)
                          for u in range(cfg.ndp.units_per_stack)]
        self.ndp_loc = [u.location() for u in self.ndp_units]
        self.memo: dict[tuple[str, UnitClass], _Assignment | None] = {}
        self._durations: dict[UnitClass, dict[str, float]] = {}
        # simulate()'s record of its last run on this context, which the
        # next simulate() on it may resume from
        self.last_run = None

    def check(self, graph: TaskGraph, cfg: MachineConfig) -> None:
        """DomainError unless this context was built for the graph and an
        equal machine."""
        if self.graph is not graph:
            raise DomainError("plan context was built for another graph")
        if self.cfg != cfg:
            raise DomainError("plan context was built for another machine")

    def duration(self, cls: UnitClass) -> dict[str, float]:
        """Task id -> seconds on one unit of the class."""
        table = self._durations.get(cls)
        if table is None:
            by_shape: dict[tuple[float, float, float], float] = {}
            table = self._durations[cls] = {}
            for t in self.graph.tasks:
                shape = (t.flops, t.bytes_read, t.bytes_written)
                if shape not in by_shape:
                    by_shape[shape] = estimate_time(t, cls, self.cfg)
                table[t.id] = by_shape[shape]
        return table

    @cached_property
    def fits_ndp(self) -> dict[str, bool]:
        # streaming capacity: outputs plus the largest input window must fit
        # in the NDP memory; host memory backs the CPU side
        size = self.size
        capacity = self.cfg.total_capacity
        return {t.id: sum(size[o] for o in t.outputs)
                + max((size[o] for o in t.inputs), default=0) <= capacity
                for t in self.graph.tasks}


class _PlanState:
    """Unit, link and data cursors of a partial plan, and the prefix of
    classes committed so far, one letter per group.

    The per-graph facts live in the PlanContext shared by all snapshots,
    and by other plans of that context.  The cursors are a function of the
    prefix, which is what lets evaluate_all read group evaluations from the
    context's memo.
    """

    def __init__(self, context: PlanContext, classes: Sequence[UnitClass]):
        self.context = context
        self.classes = classes
        self.prefix = ""
        self.ndp_free = [0.0] * len(context.ndp_units)
        self.cpu_free = 0.0
        self.link_free = 0.0  # CPU link cursor for staging serialization
        self.obj_loc: dict[str, int] = dict(context.homes)
        self.obj_ready: dict[str, float] = dict.fromkeys(self.obj_loc, 0.0)

    def snapshot(self, members: list, chosen: _Assignment) -> "_PlanState":
        """The state after the group's assignment is committed, prefix
        included; this state is left as it is."""
        clone = copy.copy(self)
        # evaluate_group copies ndp_free before writing, so states and the
        # memo may share the assignment's list
        clone.ndp_free = chosen.ndp_free
        clone.cpu_free = chosen.cpu_free
        clone.link_free = chosen.link_free
        clone.prefix = self.prefix + _CODE[chosen.cls]
        clone.obj_loc = obj_loc = dict(self.obj_loc)
        clone.obj_ready = obj_ready = dict(self.obj_ready)
        for task in members:
            loc = chosen.units[task.id].location()
            end = chosen.ends[task.id]
            for oid in task.outputs:
                obj_loc[oid] = loc
                obj_ready[oid] = end
        return clone

    def class_options(self, members: list) -> Sequence[UnitClass]:
        if members[0].family is KernelFamily.ALLTOALL and len(self.classes) > 1:
            # A collective runs where its partitions live; it is not a
            # placement choice the boundary can hide behind.
            size = self.context.size
            ndp_bytes = cpu_bytes = 0
            for task in members:
                for oid in task.inputs:
                    if self.obj_loc.get(oid, HOST) >= 0:
                        ndp_bytes += size[oid]
                    else:
                        cpu_bytes += size[oid]
            return [UnitClass.NDP_UNIT if ndp_bytes > cpu_bytes
                    else UnitClass.CPU]
        return self.classes

    def stage_inputs(self, task, dst: int, link_free: float,
                     ) -> tuple[float, float, float]:
        """Arrival time of the task's inputs at dst.

        Returns (data_ready, new link cursor, crossing overhead).  An input
        moves and crosses the boundary as in placed_moves (LinkModel.move;
        never for an all-to-all).  An input produced in the task's own stage
        group is a ScheduleError.
        """
        context = self.context
        move_of = context.cfg.links.move
        cxt_s = context.cfg.cxt_s
        producers = context.graph.producers
        stages = task.family is not KernelFamily.ALLTOALL
        overhead = 0.0
        data_ready = 0.0
        for oid in task.inputs:
            src = self.obj_loc.get(oid)
            if src is None:
                producer = producers.get(oid)
                raise ScheduleError(
                    f"object {oid} has no producer or home" if producer is None
                    else f"task {task.id} reads {oid}, which {producer} "
                    "produces in the same stage group")
            avail = self.obj_ready[oid]
            path, crossing = move_of(src, dst) if stages else (None, False)
            if path is not None:
                dt = path.seconds(context.size[oid])
                if path.kind is PathKind.CPU_LINK:
                    # the CPU link is a serialized resource
                    start = max(avail, link_free)
                    link_free = start + dt
                    avail = link_free
                else:
                    avail += dt
                if crossing and oid in producers:
                    overhead += dt + cxt_s
                    avail += cxt_s  # receiving side stalls for the handoff
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
        context = self.context
        duration = context.duration(cls)
        fits_ndp = None if cls is UnitClass.CPU else context.fits_ndp
        ndp_units = context.ndp_units
        ndp_loc = context.ndp_loc
        ups = context.cfg.ndp.units_per_stack
        size = context.size
        cpu = UnitRef.cpu()
        obj_loc = self.obj_loc
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
                if not fits_ndp[task.id]:
                    return None  # nothing on this class can hold the task
                least = ndp_free.index(min(ndp_free))
                candidates = [least]
                # locality candidate: least-loaded unit in the stack holding
                # the largest staged input
                largest = max(((size[o], obj_loc.get(o, HOST))
                               for o in task.inputs), default=(0, HOST))
                if largest[1] >= 0:
                    lo = largest[1] * ups
                    window = ndp_free[lo:lo + ups]
                    local = lo + window.index(min(window))
                    if local != least:
                        candidates.append(local)
                best = None
                for i in candidates:
                    ready, lf_i, ovh_i = self.stage_inputs(
                        task, ndp_loc[i], link_free)
                    row = (max(ndp_free[i], ready) + dur, i, ndp_loc[i],
                           lf_i, ovh_i)
                    if best is None or row[:2] < best[:2]:
                        best = row
                eft, idx, loc, lf, ovh = best
            units[task.id] = cpu if idx < 0 else ndp_units[idx]
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
        return _Assignment(cls=cls, units=units, ends=ends, ndp_free=ndp_free,
                           cpu_free=cpu_free, link_free=link_free,
                           completion=completion, overhead=overhead,
                           input_bytes_resident=resident)

    def evaluate_all(self, members: list) -> dict[UnitClass, _Assignment | None]:
        """Evaluate the group after the committed prefix on each class option,
        through the context's memo."""
        memo = self.context.memo
        out = {}
        for cls in self.class_options(members):
            key = (self.prefix, cls)
            if key not in memo:
                memo[key] = self.evaluate_group(members, cls)
            out[cls] = memo[key]
        return out


def plan(graph: TaskGraph, cfg: MachineConfig, policy: str = "hybrid",
         context: PlanContext | None = None) -> Schedule:
    """List-schedule the graph under a placement policy.

    ``hybrid`` chooses per stage group between the CPU and the NDP fleet;
    ``cpu_only`` / ``ndp_only`` force one class and serve as the measurement
    baselines.  Each class is scored with a one-group lookahead: the best
    finish of the next group on the state the class leaves behind, plus
    the class's own boundary overhead; the lowest (score, -resident input
    bytes, CPU first) rank wins.  Overheads are never negative, so a
    class's score is never below its own completion plus overhead; classes
    are visited by that floor and the lookahead stops once the floor ranks
    above the best full rank, which no later class can beat.

    Group evaluations go through the context's memo, so the winner's
    lookahead evaluations serve as the next group's own, and plans that
    share a ``context`` (a PlanContext of this graph and an equal machine;
    any other is a DomainError) share every evaluation made on the same
    committed prefix.  Without one, the plan builds its own.

    The schedule lists its transfers, crossing edges and overhead only when
    one of them is first read, so a plan that goes straight to simulate()
    walks the placements once, there.
    """
    classes = _POLICY_CLASSES.get(policy)
    if classes is None:
        raise DomainError(f"unknown policy {policy!r}")
    if context is None:
        context = PlanContext(graph, cfg)
    else:
        context.check(graph, cfg)
    state = _PlanState(context, classes)
    placements: dict[str, UnitRef] = {}

    groups = context.groups
    for gi, (key, members) in enumerate(groups):
        nxt = groups[gi + 1][1] if gi + 1 < len(groups) else None
        # ties: prefer the class holding more input bytes, then CPU.  The
        # floor is each class's rank with its own completion as the score,
        # which the lookahead score never goes below.
        floors = sorted(
            ((a.completion + a.overhead, -a.input_bytes_resident,
              0 if cls is UnitClass.CPU else 1), a)
            for cls, a in state.evaluate_all(members).items() if a is not None)
        best = None
        for floor, assignment in floors:
            if best is not None and floor > best[0]:
                break  # neither this class nor any later one can rank first
            score = floor[0]
            after = None  # the state this class leaves, for the next group
            # One-group lookahead: a placement that strands its outputs on
            # the wrong side of the boundary must pay for it now.
            if nxt is not None:
                after = state.snapshot(members, assignment)
                follow = after.evaluate_all(nxt)
                finishes = [max(assignment.completion, a.completion) + a.overhead
                            for a in follow.values() if a is not None]
                if finishes:
                    score = min(finishes) + assignment.overhead
            rank = (score,) + floor[1:]
            if best is None or rank < best[0]:
                best = (rank, assignment, after)
        if best is None:
            raise CapacityError(
                f"stage {key} fits on no permitted unit under policy {policy}")
        _, chosen, state = best
        placements.update(chosen.units)

    return Schedule._deferred(policy, placements, graph, cfg)
