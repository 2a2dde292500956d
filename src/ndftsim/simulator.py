"""Deterministic analytic event simulation of a scheduled task graph.

Each unit serializes its assigned tasks; every data edge whose endpoints
differ moves its object over the links, which serialize FIFO; boundary
handoffs stall the receiving unit for the configured constant.  All queues
drain in a fixed order, so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .analyzer import estimate_time
from .errors import DomainError, ScheduleError
from .machine import (CPU_LIKE, CPU_SIDE, Location, MachineConfig, UnitClass,
                      UnitRef, bandwidth)
from .runtime import Arch, CommStats, PseudoMode, footprint_for_atoms, pseudo_cost_trace
from .scheduler import Schedule, scheduling_overhead
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


class _Links:
    """Serialized link resources: the CPU link plus every directed mesh edge.

    The link bandwidths and the per-hop latency are read from the machine
    once, at construction.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.cpu_bw = bandwidth(Location.CPU_LINK, cfg)
        self.mesh_bw = bandwidth(Location.MESH_HOP, cfg)
        self.hop = cfg.interconnect.hop_latency_s
        self.free: dict[str, float] = {}
        self.routes: dict[tuple[int, int], list[str]] = {}

    def _mesh_route(self, src: int, dst: int) -> list[str]:
        """X-then-Y Manhattan route as a list of directed link names,
        computed once per (src, dst) pair."""
        if (src, dst) in self.routes:
            return self.routes[(src, dst)]
        cfg = self.cfg
        sx, sy = src % cfg.ndp.stacks_x, src // cfg.ndp.stacks_x
        dx, dy = dst % cfg.ndp.stacks_x, dst // cfg.ndp.stacks_x
        links = []
        x, y = sx, sy
        while x != dx:
            nx = x + (1 if dx > x else -1)
            links.append(f"mesh:{x},{y}-{nx},{y}")
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            links.append(f"mesh:{x},{y}-{x},{ny}")
            y = ny
        self.routes[(src, dst)] = links
        return links

    def occupy(self, src: int, dst: int, n_bytes: float, ready: float,
               ) -> tuple[float, float, str]:
        """Serialize one transfer over its path; returns (start, end, path name)."""
        if src == dst or (src in CPU_LIKE and dst in CPU_LIKE):
            return ready, ready, "local"
        if src in CPU_LIKE or dst in CPU_LIKE:
            dur = n_bytes / self.cpu_bw + self.hop
            start = max(ready, self.free.get("cpu_link", 0.0))
            self.free["cpu_link"] = start + dur
            return start, start + dur, "cpu_link"
        links = self._mesh_route(src, dst)
        per_link = n_bytes / self.mesh_bw + self.hop
        t = ready
        first = links[0] if links else "local"
        for name in links:
            start = max(t, self.free.get(name, 0.0))
            self.free[name] = start + per_link
            t = start + per_link
        return ready, t, first


def simulate(schedule: Schedule, graph: TaskGraph, cfg: MachineConfig,
             fixture: CalibrationFixture,
             pseudo_mode: PseudoMode = PseudoMode.SHARED_BLOCK,
             ) -> SimulationReport:
    """Run the event model and report makespan, breakdowns, and traffic."""
    for t in graph.tasks:
        if t.id not in schedule.placements or not schedule.placements[t.id]:
            raise ScheduleError(f"task {t.id} has no placement")

    links = _Links(cfg)
    unit_free: dict[UnitRef, float] = {}
    timeline: list[TimelineEvent] = []
    busy: dict[UnitRef, dict[KernelFamily, float]] = {}
    comm = CommStats()
    transferred = 0
    cxt_per_consumer: dict[str, int] = {}
    for _p, consumer, _o in schedule.crossing_edges:
        cxt_per_consumer[consumer] = cxt_per_consumer.get(consumer, 0) + 1

    # Pseudopotential distribution traffic precedes the update tasks.
    trace = pseudo_cost_trace(graph.system, pseudo_mode, fixture, cfg)
    comm.merge(trace.comm)
    pseudo_gate: dict[int, float] = {}
    has_ndp_pseudo = any(
        u.cls is UnitClass.NDP_UNIT
        for t in graph.tasks if t.family is KernelFamily.PSEUDO
        for u in schedule.placements[t.id])
    if has_ndp_pseudo:
        for src, dst, n_bytes in trace.fetches:
            start, end, link = links.occupy(src, dst, n_bytes, 0.0)
            pseudo_gate[dst] = max(pseudo_gate.get(dst, 0.0), end)
            timeline.append(TimelineEvent(start, end, "comm", link,
                                          f"pseudo_block:{src}->{dst}", n_bytes))
            transferred += n_bytes

    task_loc = {t.id: schedule.placements[t.id][0].location()
                for t in graph.tasks}
    producers = graph.producers
    objects = graph.data_objects
    unit_name: dict[UnitRef, str] = {}
    # estimate_time depends only on the unit class, the split and the
    # task's (flops, bytes read, bytes written) shape
    durations: dict[tuple, float] = {}
    task_end: dict[str, float] = {}

    for tid in graph.topo_order():
        task = graph.task(tid)
        family = task.family
        units = schedule.placements[tid]
        n_units = len(units)
        end_times = []
        for u in units:
            u_loc = u.location()
            name = unit_name.get(u)
            if name is None:
                name = unit_name[u] = str(u)
            free = unit_free.get(u, 0.0)
            data_ready = 0.0
            if family is not KernelFamily.ALLTOALL:
                for oid in task.inputs:
                    prod = producers.get(oid)
                    if prod is None:
                        avail = 0.0
                        src = objects[oid].initial_location
                        if src is None:
                            raise ScheduleError(
                                f"object {oid} has no producer or home")
                    else:
                        avail = task_end.get(prod, 0.0)
                        src = task_loc[prod]
                    if src != u_loc and not (src in CPU_LIKE and u_loc in CPU_LIKE):
                        size = objects[oid].size
                        start, end, link = links.occupy(src, u_loc, size, avail)
                        timeline.append(TimelineEvent(
                            start, end, "transfer", link, f"{oid}->{tid}", size))
                        transferred += size
                        if src >= 0 and u_loc >= 0:
                            comm.inter_stack_bytes += size
                            comm.inter_stack_messages += 1
                        avail = end
                    data_ready = max(data_ready, avail)
            else:
                for oid in task.inputs:
                    prod = producers.get(oid)
                    data_ready = max(data_ready, task_end.get(prod, 0.0) if prod else 0.0)
            start = max(free, data_ready)
            n_cxt = cxt_per_consumer.get(tid, 0)
            if n_cxt and cfg.cxt_s > 0:
                timeline.append(TimelineEvent(start, start + n_cxt * cfg.cxt_s,
                                              "cxt", name, tid))
                start += n_cxt * cfg.cxt_s
            if family is KernelFamily.PSEUDO and u_loc in pseudo_gate:
                start = max(start, pseudo_gate[u_loc])
            if family is KernelFamily.ALLTOALL:
                dur, moved = _alltoall_phase(task, schedule, graph, cfg, links,
                                             start, timeline, comm)
                transferred += moved
            else:
                shape = (u.cls, n_units, task.flops, task.bytes_read,
                         task.bytes_written)
                dur = durations.get(shape)
                if dur is None:
                    dur = durations[shape] = estimate_time(
                        task, u, cfg, split=n_units).seconds
            end = start + dur
            unit_free[u] = end
            end_times.append(end)
            fams = busy.setdefault(u, {})
            fams[family] = fams.get(family, 0.0) + dur
            timeline.append(TimelineEvent(start, end, "task", name, tid))
        task_end[tid] = max(end_times)

    makespan = max((max(ev.t_end for ev in timeline) if timeline else 0.0),
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


def _alltoall_phase(task, schedule: Schedule, graph: TaskGraph,
                    cfg: MachineConfig, links: _Links, start: float,
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
            part_locs.append(graph.data_objects[oid].initial_location or CPU_SIDE)
        else:
            part_locs.append(schedule.placements[prod][0].location())
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
        t0, t1, link = links.occupy(src, dst, n_bytes, start)
        timeline.append(TimelineEvent(t0, t1, "comm", link,
                                      f"{task.id}:{src}->{dst}", int(n_bytes)))
        if src >= 0 and dst >= 0:
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
