"""Deterministic analytic event simulation of a scheduled task graph.

Tasks run in the graph's list order and each unit serializes its own; the
moves their placements imply (scheduler.placed_moves) queue on the links,
which serialize FIFO; boundary handoffs stall the receiving unit for the
configured constant.  All queues drain in a fixed order, so identical inputs
give byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import re
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import accumulate, islice
from operator import itemgetter
from typing import NamedTuple

from .analyzer import estimate_time
from .costmodel import Arch, CommStats, PseudoMode, footprint_for_atoms, pseudo_cost_trace
from .errors import DomainError
from .machine import LinkModel, MachineConfig, Path, PathKind, UnitClass, UnitRef
from .scheduler import OverheadBreakdown, PlanContext, Schedule, placed_moves
from .workload import CalibrationFixture, KernelFamily, TaskGraph


class TimelineEvent(NamedTuple):
    """One interval of ``SimulationReport.timeline``, built when it is read.

    A run keeps each task, transfer and fetch as a plain tuple of these six
    fields instead: CPython stops tracking a tuple of floats, strs and ints
    in its collector, but never an instance of a tuple subclass like this.
    """

    t_start: float
    t_end: float
    kind: str            # task | transfer | cxt | comm
    unit: str            # unit or link name
    task_or_object: str
    bytes: int


@dataclass
class SimulationReport:
    """What a run reports.  ``events`` holds its intervals in run order, as
    plain ``TimelineEvent``-shaped tuples; the sorted ``timeline`` is built
    from them on each read and never kept, and ``ndft-sim run`` never reads
    it."""

    makespan: float
    per_family_time: dict[KernelFamily, float]
    overhead: object
    comm: CommStats
    footprints: dict[str, float]
    events: tuple[tuple, ...]
    policy: str = ""
    transferred_bytes: int = 0

    def sorted_events(self, kinds: tuple[str, ...] = ()) -> list[tuple]:
        """The events, or those of the given kinds, in timeline order: by
        (t_start, t_end, unit, task_or_object), ties in run order."""
        rows = [r for r in self.events if r[2] in kinds] if kinds else list(self.events)
        # one stable sort per field, least significant first: the order of a
        # sort by the four-field key, without a key tuple per row
        for field in (4, 3, 1, 0):
            rows.sort(key=itemgetter(field))
        return rows

    @property
    def timeline(self) -> list[TimelineEvent]:
        """A new sorted list of the events on each read."""
        return [TimelineEvent._make(r) for r in self.sorted_events()]

    def timeline_csv(self) -> str:
        """The sorted events as CSV: what csv.writer writes for each row with
        its two times as repr, and the bytes as an int.

        A row is one f-string.  Only a (kind, unit) pair, once per report,
        and a label holding a comma, quote, CR or LF go through csv.writer,
        so they are quoted as it quotes them.  A start time that is the same
        float object as one of the row before reuses that one's repr.
        """
        out = io.StringIO()
        write = out.write
        write("t_start,t_end,kind,unit,task_or_object,bytes\n")
        pairs: dict[tuple[str, str], str] = {}
        prev_start = prev_end = None
        start_text = end_text = ""
        for t_start, t_end, kind, unit, label, n_bytes in self.sorted_events():
            if t_start is not prev_start:
                start_text = end_text if t_start is prev_end else repr(t_start)
                prev_start = t_start
            prev_end = t_end
            end_text = repr(t_end)
            kind_unit = pairs.get((kind, unit))
            if kind_unit is None:
                kind_unit = pairs[(kind, unit)] = _csv_cells(kind, unit)
            if _NEEDS_QUOTING(label):
                label = _csv_cells(label)
            write(f"{start_text},{end_text},{kind_unit},{label},{n_bytes}\n")
        return out.getvalue()


# csv.writer quotes a field only if it holds one of these (a CR only from
# Python 3.13 on)
_NEEDS_QUOTING = re.compile(r'[,"\r\n]').search


def _csv_cells(*fields: str) -> str:
    """The fields as csv.writer writes them in a timeline row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()[:-1]


# The state a task can overwrite, saved before task ``index`` runs: the link
# FIFOs, the unit cursors, each unit's busy seconds per family value, the
# CommStats, the bytes moved, the overhead sums and the event count.  Plain
# named tuples, as a typed class costs the import more than it gives here.
_Checkpoint = namedtuple("_Checkpoint", "index free unit_free busy comm "
                         "transferred dt n_handoffs n_events")
# A simulate() run kept on its plan context to be resumed from: its fixture,
# whether an update task ran on NDP, a copy of each task's placement in list
# order, the pseudopotential gate, the task ends, the event rows in run
# order (the report's own tuple) and its checkpoints in order.
_Run = namedtuple("_Run", "fixture has_ndp_pseudo placed pseudo_gate "
                  "task_end events checkpoints")


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
             context: PlanContext | None = None) -> SimulationReport:
    """Run the event model and report makespan, breakdowns, and traffic.

    Only the schedule's placements and policy are read: the moves, the
    handoffs and the overhead follow from the placements through
    placed_moves, so a transfer list that disagrees with them cannot change
    the run.  Tasks run in ``graph.topo_order()``.  A move is ready when its
    object's producer ends (at 0 for an object read from its home); a task
    starts once its unit is free and its inputs have arrived, and then waits
    out its boundary handoffs.

    ``context`` is the PlanContext the schedule was planned on; one built
    for another graph, or for a machine that is not equal, is a DomainError.
    A run on a context saves its state at the start of each of the
    context's stage groups and keeps it there.  The next run on the context
    resumes from the last saved group start at or before its first task
    placed differently, instead of replaying the prefix.  Every saved float
    is restored, not recomputed, so the report is the one a run from t = 0
    gives.  A resume needs all three of:

    1. a fixture equal to the kept run's: the fetch replay and the
       pseudopotential gate depend on it;
    2. an update task on NDP in both runs or in neither: only then are the
       fetches replayed, before every task;
    3. placements that agree task by task, in list order, up to that group
       start.  The kept run holds a copy, so a schedule changed since is
       compared as it is now.

    Otherwise the run starts from t = 0, as it does without a context.
    """
    placements = schedule.placements
    links = cfg.links
    hop = links.hop
    placed = [placements.get(t.id) for t in graph.tasks]
    # the walk below raises for a task without a UnitRef placement
    has_ndp_pseudo = any(
        getattr(u, "cls", None) is UnitClass.NDP_UNIT
        for t, u in zip(graph.tasks, placed) if t.family is KernelFamily.PSEUDO)
    # estimate_time depends only on the unit class and the task's (flops,
    # bytes read, bytes written) shape
    durations: dict[UnitClass, dict[tuple, float]] = {}
    # per unit: its name, its class's duration cache and its busy seconds
    # per family value.  A UnitRef's hash is precomputed, while an Enum key
    # would hash in Python on every task.
    unit_info: dict[UnitRef, tuple[str, dict, dict[str, float]]] = {}
    # the kept run's checkpoints up to the one this run resumes from
    checkpoints: list[_Checkpoint] = []
    if context is not None:
        context.check(graph, cfg)
        kept, context.last_run = context.last_run, None
        if (kept is not None and kept.fixture == fixture
                and kept.has_ndp_pseudo == has_ndp_pseudo):
            differs = next((i for i, (a, b) in enumerate(zip(placed, kept.placed))
                            if a != b), len(placed))
            checkpoints = [cp for cp in kept.checkpoints if cp.index <= differs]
    # a fresh run restores the empty state: no link or unit busy, nothing
    # moved, and dt summed from the int 0, as scheduling_overhead sums it
    cp = checkpoints[-1] if checkpoints else _Checkpoint(
        0, [0.0] * links.n_links, {}, {}, CommStats(), 0, 0, 0, 0)
    free = list(cp.free)  # each link's FIFO cursor, by link id
    unit_free: dict[UnitRef, float] = dict(cp.unit_free)
    for u, busy in cp.busy.items():
        unit_info[u] = (str(u), durations.setdefault(u.cls, {}), dict(busy))
    comm = replace(cp.comm)
    transferred, dt, n_handoffs = cp.transferred, cp.dt, cp.n_handoffs
    first = cp.index
    if checkpoints:
        # both are appended to once per event or task, in run order
        events = list(islice(kept.events, cp.n_events))
        task_end = dict(islice(kept.task_end.items(), cp.index))
        pseudo_gate = kept.pseudo_gate  # fixed once the fetch replay ends
        kept = None  # drop the rest of the kept run now
    else:
        # (t_start, t_end, kind, unit, task_or_object, bytes) per event
        events: list[tuple] = []
        task_end: dict[str, float] = {}
        pseudo_gate: dict[int, float] = {}
        # Pseudopotential distribution traffic precedes the update tasks; it
        # is traced, replayed and counted only if an update task runs on an
        # NDP unit.
        if has_ndp_pseudo:
            trace = pseudo_cost_trace(graph.system, graph.pseudo_mode, fixture, cfg)
            comm.merge(trace.comm)
            # Fetches run stack to stack, all ready at 0, over mesh routes.
            # The trace repeats a few (src, dst, bytes) rows, so each row is
            # routed and labelled once.  The replay is _occupy's mesh case,
            # inlined with max() spelled out (it runs once per fetch and
            # link): `b if b > a else a` is what max(a, b) returns, so every
            # float is the same.
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
                events.append((0.0, end, "comm", name, label, n_bytes))
                transferred += n_bytes

    # on a context, the run saves its state at each group start past the
    # checkpoint it resumed from
    last = checkpoints[-1].index if checkpoints else -1
    saves = iter(() if context is None else [
        i for i in accumulate((len(m) for _, m in context.groups[:-1]),
                              initial=0) if i > last])
    save_at = next(saves, -1)
    for i, (task, u, u_loc, inputs) in enumerate(
            placed_moves(graph, cfg, placements, first), first):
        if i == save_at:
            checkpoints.append(_Checkpoint(
                i, list(free), dict(unit_free),
                {v: dict(info[2]) for v, info in unit_info.items()},
                replace(comm), transferred, dt, n_handoffs, len(events)))
            save_at = next(saves, -1)
        tid = task.id
        family = task.family
        info = unit_info.get(u)
        if info is None:
            info = unit_info[u] = (str(u), durations.setdefault(u.cls, {}), {})
        name, shape_durations, fams = info
        data_ready = 0.0
        n_cxt = 0
        for oid, n_bytes, producer, _src, path, crossing in inputs:
            # a resident input has no producer; None is never a task id
            arrival = task_end.get(producer, 0.0)
            if path is not None:
                start, arrival = _occupy(free, path, n_bytes, arrival, hop)
                events.append((start, arrival, "transfer", path.name,
                               f"{oid}->{tid}", n_bytes))
                transferred += n_bytes
                if path.kind is PathKind.MESH:
                    comm.inter_stack_bytes += n_bytes
                    comm.inter_stack_messages += 1
                if crossing:
                    dt += path.seconds(n_bytes)
                    n_cxt += producer is not None
            data_ready = max(data_ready, arrival)
        start = max(unit_free.get(u, 0.0), data_ready)
        n_handoffs += n_cxt
        if n_cxt and cfg.cxt_s > 0:
            events.append((start, start + n_cxt * cfg.cxt_s, "cxt", name, tid, 0))
            start += n_cxt * cfg.cxt_s
        if family is KernelFamily.PSEUDO and u_loc in pseudo_gate:
            start = max(start, pseudo_gate[u_loc])
        if family is KernelFamily.ALLTOALL:
            dur, moved = _alltoall_phase(task, [src for _, _, _, src, _, _ in inputs],
                                         links, free, start, events, comm)
            transferred += moved
        else:
            shape = (task.flops, task.bytes_read, task.bytes_written)
            dur = shape_durations.get(shape)
            if dur is None:
                dur = shape_durations[shape] = estimate_time(task, u.cls, cfg)
        end = start + dur
        unit_free[u] = end
        value = family._value_
        fams[value] = fams.get(value, 0.0) + dur
        events.append((start, end, "task", name, tid, 0))
        task_end[tid] = end
    # one immutable copy, shared by the report and the kept run
    events = tuple(events)
    if context is not None:
        context.last_run = _Run(fixture, has_ndp_pseudo, placed, pseudo_gate,
                                task_end, events, checkpoints)

    makespan = max(map(itemgetter(1), events), default=0.0)
    per_family: dict[KernelFamily, float] = {}
    for fam in KernelFamily:
        per_unit = [info[2].get(fam.value, 0.0) for info in unit_info.values()]
        if per_unit and max(per_unit) > 0:
            per_family[fam] = max(per_unit)

    arch = Arch.CPU if schedule.policy == "cpu_only" else Arch.NDP
    footprints = {
        mode.value: footprint_for_atoms(graph.system.n_atoms, arch, mode, fixture)
        for mode in PseudoMode
    }
    return SimulationReport(
        makespan=makespan, per_family_time=per_family,
        overhead=OverheadBreakdown(dt, n_handoffs * cfg.cxt_s, n_handoffs),
        comm=comm, footprints=footprints, events=events,
        policy=schedule.policy, transferred_bytes=transferred)


def _alltoall_phase(task, part_locs: list[int], links: LinkModel,
                    free: list[float], start: float,
                    events: list[tuple], comm: CommStats,
                    ) -> tuple[float, int]:
    """Pairwise partition exchange across the endpoints holding partitions.

    ``part_locs`` holds each input partition's location.  Every ordered
    partition pair exchanges an equal share of the payload; pieces queue
    FIFO on the links.  Partition pairs on the same endpoint cost nothing.
    Returns (duration, bytes moved).
    """
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
        events.append((t0, t1, "comm", path.name, f"{task.id}:{src}->{dst}",
                       int(n_bytes)))
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
