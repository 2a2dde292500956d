"""Deterministic analytic event simulation of a scheduled task graph.

Tasks run in the graph's list order and each unit serializes its own; the
schedule's transfers are replayed over the links, which serialize FIFO;
boundary handoffs stall the receiving unit for the configured constant.  All
queues drain in a fixed order, so identical inputs give byte-identical
reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .analyzer import estimate_time
from .errors import DomainError, ScheduleError
from .machine import (CPU_SIDE, LinkModel, MachineConfig, Path, PathKind,
                      UnitClass, UnitRef)
from .runtime import Arch, CommStats, PseudoMode, footprint_for_atoms, pseudo_cost_trace
from .scheduler import Schedule, Transfer, scheduling_overhead
from .workload import CalibrationFixture, KernelFamily, TaskGraph


class TimelineEvent(NamedTuple):
    """One interval of the timeline; immutable and compared by value.

    A named tuple rather than a dataclass because a run creates one per
    task, transfer and fetch, and a tuple is the cheapest immutable record.
    """

    t_start: float
    t_end: float
    kind: str            # task | transfer | cxt | comm
    unit: str            # unit or link name
    task_or_object: str
    bytes: int = 0


@dataclass
class SimulationReport:
    makespan: float
    per_family_time: dict[KernelFamily, float]
    overhead: object
    comm: CommStats
    footprints: dict[str, float]
    timeline: list[TimelineEvent]
    policy: str = ""
    transferred_bytes: int = 0

    def timeline_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["t_start", "t_end", "kind", "unit", "task_or_object", "bytes"])
        for ev in self.timeline:
            writer.writerow([repr(ev.t_start), repr(ev.t_end), ev.kind,
                             ev.unit, ev.task_or_object, ev.bytes])
        return out.getvalue()


def _occupy(free: list[float], path: Path, n_bytes: float, ready: float,
            hop: float) -> tuple[float, float]:
    """Serialize one move over its route's link FIFOs; returns (start, end).

    ``free`` holds each link's next free time, indexed by link id.  Every
    link takes n / bw + hop in turn (store-and-forward); a CPU-link move
    reports its queued start, a mesh move the time it was ready.
    """
    if path.kind is PathKind.LOCAL:
        return ready, ready
    step = n_bytes / path.bw + hop
    if path.kind is PathKind.CPU_LINK:
        link = path.route[0]
        start = max(ready, free[link])
        free[link] = end = start + step
        return start, end
    t = ready
    for link in path.route:
        start = max(t, free[link])
        free[link] = t = start + step
    return ready, t


def simulate(schedule: Schedule, graph: TaskGraph, cfg: MachineConfig,
             fixture: CalibrationFixture,
             pseudo_mode: PseudoMode = PseudoMode.SHARED_BLOCK,
             ) -> SimulationReport:
    """Run the event model and report makespan, breakdowns, and traffic.

    Tasks run in ``graph.topo_order()``.  The moves are exactly the
    schedule's transfers, replayed in list order, each ready when its
    object's producer ends (at 0 for a resident object); a move of no input
    of its task, or not from the producer's (or home) location to the
    task's, is a ScheduleError.  A task starts once its unit is free, its
    inputs' producers have ended and its moves have arrived, and then waits
    out its boundary handoffs.
    """
    placements = schedule.placements
    unit_loc: dict[UnitRef, int] = {}
    unit_name: dict[UnitRef, str] = {}
    task_loc: dict[str, int] = {}
    for tid in graph.topo_order():
        u = placements.get(tid)
        if not isinstance(u, UnitRef):
            raise ScheduleError(f"task {tid} is not placed on a unit: {u!r}")
        if u not in unit_loc:
            u.check_against(cfg)
            unit_loc[u] = u.location()
            unit_name[u] = str(u)
        task_loc[tid] = unit_loc[u]

    links = cfg.links
    hop = links.hop
    free = [0.0] * links.n_links  # each link's FIFO cursor, by link id
    unit_free: dict[UnitRef, float] = {}
    timeline: list[TimelineEvent] = []
    busy: dict[UnitRef, dict[KernelFamily, float]] = {}
    comm = CommStats()
    transferred = 0
    moves: dict[str, list[Transfer]] = {}
    for move in schedule.transfers:
        if move.cause_task not in task_loc:
            raise ScheduleError(f"transfer for unknown task {move.cause_task}")
        moves.setdefault(move.cause_task, []).append(move)
    cxt_per_consumer: dict[str, int] = {}
    for _p, consumer, _o in schedule.crossing_edges:
        cxt_per_consumer[consumer] = cxt_per_consumer.get(consumer, 0) + 1

    # Pseudopotential distribution traffic precedes the update tasks.
    trace = pseudo_cost_trace(graph.system, pseudo_mode, fixture, cfg)
    comm.merge(trace.comm)
    pseudo_gate: dict[int, float] = {}
    has_ndp_pseudo = any(
        placements[t.id].cls is UnitClass.NDP_UNIT
        for t in graph.tasks if t.family is KernelFamily.PSEUDO)
    if has_ndp_pseudo:
        # Fetches run stack to stack, all ready at 0, over mesh routes.  The
        # trace repeats a few (src, dst, bytes) rows, so each row is routed
        # and labelled once.  The replay is _occupy's mesh case, inlined
        # with max() spelled out (it runs once per fetch and link): `b if b
        # > a else a` is what max(a, b) returns, so every float is the same.
        rows: dict[tuple[int, int, int], tuple] = {}
        for fetch in trace.fetches:
            src, dst, n_bytes = fetch
            row = rows.get(fetch)
            if row is None:
                path = links.path(src, dst)
                row = rows[fetch] = (path.route, n_bytes / path.bw + hop,
                                     path.name, f"pseudo_block:{src}->{dst}")
            route, step, name, label = row
            end = 0.0
            for link in route:
                queued = free[link]
                start = queued if queued > end else end
                free[link] = end = start + step
            gate = pseudo_gate.get(dst, 0.0)
            pseudo_gate[dst] = end if end > gate else gate
            timeline.append(TimelineEvent(0.0, end, "comm", name, label, n_bytes))
            transferred += n_bytes

    path_of = links.path
    producers = graph.producers
    # estimate_time depends only on the unit class and the task's (flops,
    # bytes read, bytes written) shape
    durations: dict[tuple, float] = {}
    task_end: dict[str, float] = {}

    for task in graph.tasks:
        tid = task.id
        family = task.family
        u = placements[tid]
        u_loc = unit_loc[u]
        name = unit_name[u]
        data_ready = 0.0
        for oid in task.inputs:
            # a resident input has no producer; None is never a task id
            data_ready = max(data_ready, task_end.get(producers.get(oid), 0.0))
        for move in moves.get(tid, ()):
            oid = move.object_id
            if oid not in task.inputs:
                raise ScheduleError(f"task {tid} moves {oid}, not one of its inputs")
            producer = producers.get(oid)
            src = (task_loc[producer] if producer is not None
                   else graph.data_objects[oid].initial_location)
            if (move.src, move.dst) != (src, u_loc):
                raise ScheduleError(f"move of {oid} to task {tid} runs {move.src}"
                                    f"->{move.dst}, the placements give {src}->{u_loc}")
            path = path_of(move.src, move.dst)
            ready = task_end.get(producer, 0.0)
            start, end = _occupy(free, path, move.bytes, ready, hop)
            timeline.append(TimelineEvent(
                start, end, "transfer", path.name, f"{oid}->{tid}", move.bytes))
            transferred += move.bytes
            if path.kind is PathKind.MESH:
                comm.inter_stack_bytes += move.bytes
                comm.inter_stack_messages += 1
            data_ready = max(data_ready, end)
        start = max(unit_free.get(u, 0.0), data_ready)
        n_cxt = cxt_per_consumer.get(tid, 0)
        if n_cxt and cfg.cxt_s > 0:
            timeline.append(TimelineEvent(start, start + n_cxt * cfg.cxt_s,
                                          "cxt", name, tid))
            start += n_cxt * cfg.cxt_s
        if family is KernelFamily.PSEUDO and u_loc in pseudo_gate:
            start = max(start, pseudo_gate[u_loc])
        if family is KernelFamily.ALLTOALL:
            dur, moved = _alltoall_phase(task, graph, task_loc, links, free,
                                         start, timeline, comm)
            transferred += moved
        else:
            shape = (u.cls, task.flops, task.bytes_read, task.bytes_written)
            dur = durations.get(shape)
            if dur is None:
                dur = durations[shape] = estimate_time(task, u, cfg).seconds
        end = start + dur
        unit_free[u] = end
        fams = busy.setdefault(u, {})
        fams[family] = fams.get(family, 0.0) + dur
        timeline.append(TimelineEvent(start, end, "task", name, tid))
        task_end[tid] = end

    makespan = max((max(map(attrgetter("t_end"), timeline)) if timeline else 0.0),
                   max(task_end.values(), default=0.0))
    per_family: dict[KernelFamily, float] = {}
    for fam in KernelFamily:
        per_unit = [fams.get(fam, 0.0) for fams in busy.values()]
        if per_unit and max(per_unit) > 0:
            per_family[fam] = max(per_unit)
    overhead = scheduling_overhead(schedule, cfg)

    arch = Arch.CPU if schedule.policy == "cpu_only" else Arch.NDP
    footprints = {
        mode.value: footprint_for_atoms(graph.system.n_atoms, arch, mode, fixture)
        for mode in PseudoMode
    }
    timeline.sort(key=attrgetter("t_start", "t_end", "unit", "task_or_object"))
    return SimulationReport(
        makespan=makespan, per_family_time=per_family, overhead=overhead,
        comm=comm, footprints=footprints, timeline=timeline,
        policy=schedule.policy, transferred_bytes=transferred)


def _alltoall_phase(task, graph: TaskGraph, task_loc: dict[str, int],
                    links: LinkModel, free: list[float], start: float,
                    timeline: list[TimelineEvent], comm: CommStats,
                    ) -> tuple[float, int]:
    """Pairwise partition exchange across the endpoints holding partitions.

    Every ordered partition pair exchanges an equal share of the payload;
    pieces queue FIFO on the links.  Partition pairs on the same endpoint
    cost nothing.  Returns (duration, bytes moved).
    """
    part_locs = []
    for oid in task.inputs:
        prod = graph.producers.get(oid)
        if prod is None:
            loc = graph.data_objects[oid].initial_location
            part_locs.append(CPU_SIDE if loc is None else loc)
        else:
            part_locs.append(task_loc[prod])
    n = len(part_locs)
    if n == 0:
        return 0.0, 0
    payload = (task.bytes_read + task.bytes_written) / 2.0
    share = payload / (n * n)
    pair_bytes: dict[tuple[int, int], float] = {}
    for src in part_locs:
        for dst in part_locs:
            if src == dst:
                continue
            key = (src, dst)
            pair_bytes[key] = pair_bytes.get(key, 0.0) + share
    end = start
    moved = 0
    for (src, dst) in sorted(pair_bytes):
        n_bytes = pair_bytes[(src, dst)]
        path = links.path(src, dst)
        t0, t1 = _occupy(free, path, n_bytes, start, links.hop)
        timeline.append(TimelineEvent(t0, t1, "comm", path.name,
                                      f"{task.id}:{src}->{dst}", int(n_bytes)))
        if path.kind is PathKind.MESH:
            comm.inter_stack_bytes += int(n_bytes)
            comm.inter_stack_messages += 1
        moved += int(n_bytes)
        end = max(end, t1)
    return end - start, moved


def compare(reports: list[tuple[str, SimulationReport]]) -> str:
    """CSV comparison table: speedups, per-family ratios, overhead fractions.

    The first report is the baseline; speedup(X) = makespan(base)/makespan(X).
    """
    if len(reports) < 2:
        raise DomainError("need at least two reports to compare")
    base_label, base = reports[0]
    if base.makespan <= 0:
        raise DomainError("baseline makespan is zero")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    families = sorted({f.value for _, r in reports for f in r.per_family_time})
    writer.writerow(["label", "makespan_s", f"speedup_vs_{base_label}",
                     "overhead_frac"] + [f"{f}_ratio" for f in families])
    for label, rep in reports:
        if rep.makespan <= 0:
            raise DomainError(f"report {label} has zero makespan")
        row = [label, repr(rep.makespan), repr(base.makespan / rep.makespan),
               repr(rep.overhead.total / rep.makespan)]
        for fam in families:
            fam_e = KernelFamily(fam)
            b = base.per_family_time.get(fam_e, 0.0)
            x = rep.per_family_time.get(fam_e, 0.0)
            row.append(repr(b / x) if x > 0 else "")
        writer.writerow(row)
    return out.getvalue()
