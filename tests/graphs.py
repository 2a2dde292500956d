"""Small synthetic task graphs for scheduler and simulator tests."""

from __future__ import annotations

from ndftsim.machine import HOST
from ndftsim.workload import (DataObject, KernelDescriptor, KernelFamily,
                              SystemSpec, TaskGraph)


def make_graph(tasks: list[dict], objects: dict[str, int],
               host_objects: set[str] | None = None,
               n_processes: int = 4) -> TaskGraph:
    """Build a graph from dicts: {id, family, flops, br, bw, inputs, outputs}.

    Tasks keep the given order, so producers must come first.
    """
    host_objects = host_objects or set()
    descriptors = []
    for t in tasks:
        descriptors.append(KernelDescriptor(
            id=t["id"], family=t.get("family", KernelFamily.OTHER),
            flops=t.get("flops", 0.0), bytes_read=t.get("br", 0.0),
            bytes_written=t.get("bw", 0.0),
            inputs=tuple(t.get("inputs", ())),
            outputs=tuple(t.get("outputs", ()))))
    data = {}
    produced = {o for t in tasks for o in t.get("outputs", ())}
    for oid, size in objects.items():
        init = HOST if (oid in host_objects or oid not in produced) else None
        data[oid] = DataObject(oid, size, init)
    spec = SystemSpec(n_atoms=1, n_valence=1, n_conduction=1, n_grid=16,
                      n_processes=n_processes)
    return TaskGraph(tasks=descriptors, data_objects=data, system=spec)
