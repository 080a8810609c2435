"""Out-of-core boundary algorithm (paper Algorithm 3, after Djidjev et al.).

Four steps:

1. **partition** the graph into ``k`` components with the multilevel k-way
   partitioner (METIS stand-in); vertices are *permuted* so each component
   is contiguous and its boundary vertices come first (paper Figure 1a);
2. **dist2** — solve APSP independently inside each component: upload the
   component's dense block ``A(i,i)``, close it with FW on the device,
   download;
3. **dist3** — build the boundary graph ``bound``: nodes are all boundary
   vertices, entries are cross-component edge weights plus *virtual edges*
   ``dist2(b, b')`` between same-component boundary pairs; close it with FW
   on the device (it stays resident);
4. **dist4** — every off-diagonal block is two successive min-plus products
   (paper Eq. 1, Fig 1b):
   ``A(i,j) = C2B[i] ⊗ bound(i,j) ⊗ B2C[j]`` where ``C2B[i] = A(i,i)[:, :bᵢ]``
   (component→boundary distances) and ``B2C[j] = A(j,j)[:bⱼ, :]``; diagonal
   blocks take the elementwise min with ``dist2``.

Two optimisations from Section III-C, both togglable for the Fig 8
ablation:

* ``batch_transfers`` — instead of ``k²`` small D2H copies (one per block,
  latency-bound), results accumulate in a device buffer holding ``N_row``
  block-rows (``N_row = S_rem / (N_max · n · W)``) and transfer in one
  bandwidth-bound copy;
* ``overlap`` — double buffering: two accumulation buffers on two streams,
  so the transfer of one buffer overlaps the products filling the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.minplus import DIST_DTYPE, minplus_update
from repro.core.result import APSPResult
from repro.core.tiling import HostStore
from repro.faults.checkpoint import CheckpointError, open_checkpoint
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.kernels import extract_cost, fw_tile_cost, minplus_cost
from repro.gpu.stream import Event
from repro.partition.kway import partition_kway
from repro.partition.separator import boundary_nodes

__all__ = [
    "BoundaryInfeasibleError",
    "BoundaryPlan",
    "default_num_components",
    "emit_boundary_ir",
    "ooc_boundary",
    "plan_boundary",
]

_ELEM = np.dtype(DIST_DTYPE).itemsize


class BoundaryInfeasibleError(OutOfMemoryError):
    """No component count makes the boundary algorithm's working set fit.

    Raised for graphs whose separator is so large that the boundary matrix
    cannot reside on the device at any balanced ``k`` — the paper's "the
    maximal number of components allowed ... is small" failure mode that
    pushes such graphs to Johnson's algorithm.
    """

    def __init__(self, requested: int, free: int, capacity: int, detail: str) -> None:
        super().__init__(requested, free, capacity)
        self.detail = detail

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"boundary algorithm infeasible: {self.detail}"


def default_num_components(n: int) -> int:
    """The paper's best-performing component count ``k = √n / 4`` (§V-F)."""
    return max(2, int(round(np.sqrt(n) / 4.0)))


@dataclass(frozen=True)
class BoundaryPlan:
    """A feasible execution plan for the boundary algorithm."""

    labels: np.ndarray  # component id per original vertex
    perm: np.ndarray  # internal id of original vertex
    inv_perm: np.ndarray  # original id of internal vertex
    comp_start: np.ndarray  # internal start offset per component (k+1,)
    comp_boundary: np.ndarray  # number of boundary vertices per component
    num_components: int
    num_boundary: int
    n_row: int  # block-rows accumulated per batched transfer
    num_buffers: int  # output accumulation buffers (2 = double-buffered)

    @property
    def max_component(self) -> int:
        return int(np.diff(self.comp_start).max())


def _build_permutation(
    graph, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order vertices component-major, boundary-first inside each component."""
    n = graph.num_vertices
    bnd = boundary_nodes(graph, labels)
    is_bnd = np.zeros(n, dtype=bool)
    is_bnd[bnd] = True
    # Sort by (component, interior-after-boundary, id) — stable and cheap.
    order = np.lexsort((np.arange(n), ~is_bnd, labels))
    inv_perm = order  # internal -> original
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n)  # original -> internal
    sizes = np.bincount(labels, minlength=k)
    comp_start = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=comp_start[1:])
    comp_boundary = np.bincount(labels[bnd], minlength=k) if bnd.size else np.zeros(k, dtype=np.int64)
    return perm, inv_perm, comp_start, comp_boundary


def plan_boundary(
    graph,
    spec: DeviceSpec,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    seed: int = 0,
    max_attempts: int = 8,
) -> BoundaryPlan:
    """Partition and check the device memory budget; search ``k`` if needed.

    Tries the requested/default ``k`` first; on memory failure, halves or
    doubles ``k`` (whichever constraint is violated) up to ``max_attempts``
    times before raising :class:`BoundaryInfeasibleError`.
    """
    n = graph.num_vertices
    k = num_components if num_components is not None else default_num_components(n)
    budget = spec.memory_bytes
    last_detail = ""
    tried: set[int] = set()
    fallback: BoundaryPlan | None = None  # single-buffer plan found en route
    for _attempt in range(max_attempts):
        k = max(2, min(k, n // 2 if n >= 4 else 2))
        if k in tried:
            break
        tried.add(k)
        part = partition_kway(graph, k, seed=seed)
        perm, inv_perm, comp_start, comp_bnd = _build_permutation(graph, part.labels, k)
        nmax = int(np.diff(comp_start).max())
        nb = int(comp_bnd.sum())
        bmax = int(comp_bnd.max()) if k else 0

        bound_bytes = nb * nb * _ELEM
        step2_bytes = nmax * nmax * _ELEM
        # step 4 residents: bound + C2B + B2C + tmp1 (+ output buffers below)
        step4_fixed = bound_bytes + (2 * nmax * bmax + nmax * bmax) * _ELEM
        strip_bytes = max(1, nmax * n * _ELEM)  # one block-row of output (>= 1 at n = 0)

        if step2_bytes > budget:
            last_detail = (
                f"component block {nmax}² exceeds device memory at k={k}; "
                f"need {step2_bytes}B of {budget}B"
            )
            k = int(np.ceil(k * 1.5))  # more components -> smaller blocks
            continue
        if bound_bytes > budget or step4_fixed > budget:
            last_detail = (
                f"boundary matrix {nb}² (+{step4_fixed - bound_bytes}B residents) "
                f"exceeds device memory at k={k}"
            )
            k = max(2, int(k / 1.5))  # fewer components -> fewer boundary vertices
            continue
        if batch_transfers:
            # Prefer double buffering (overlap); fall back to one buffer
            # when two strips do not fit at this k (the strip-to-memory
            # ratio grows as n^-0.5 under scaling, so scaled runs hit this
            # more often than the paper's full-size runs did).
            n_row = 0
            nbuf = 1
            for cand_nbuf in ((2, 1) if overlap else (1,)):
                rem = budget - step4_fixed
                cand_rows = int(rem // (cand_nbuf * strip_bytes)) if rem > 0 else 0
                cand_rows = min(cand_rows, k)  # never buffer more rows than exist
                if cand_rows >= 1:
                    n_row, nbuf = cand_rows, cand_nbuf
                    break
            if n_row < 1:
                last_detail = (
                    f"no room for {'double-buffered ' if overlap else ''}output "
                    f"block-rows at k={k}"
                )
                if fallback is None:
                    rem = budget - step4_fixed
                    single_rows = min(int(rem // strip_bytes) if rem > 0 else 0, k)
                    if overlap and single_rows >= 1:
                        # single accumulation buffer, batching intact
                        fallback = BoundaryPlan(
                            labels=part.labels, perm=perm, inv_perm=inv_perm,
                            comp_start=comp_start, comp_boundary=comp_bnd,
                            num_components=k, num_boundary=nb,
                            n_row=single_rows, num_buffers=1,
                        )
                    elif step4_fixed + nmax * nmax * _ELEM <= budget:
                        # not even one strip fits anywhere: degrade to the
                        # unbatched per-block path (n_row=0) rather than
                        # declaring the whole algorithm infeasible
                        fallback = BoundaryPlan(
                            labels=part.labels, perm=perm, inv_perm=inv_perm,
                            comp_start=comp_start, comp_boundary=comp_bnd,
                            num_components=k, num_boundary=nb,
                            n_row=0, num_buffers=1,
                        )
                k = int(np.ceil(k * 1.5))
                continue
        else:
            n_row, nbuf = 0, 1
            if step4_fixed + nmax * nmax * _ELEM > budget:
                last_detail = f"no room for the single-block staging buffer at k={k}"
                k = int(np.ceil(k * 1.5))
                continue
        return BoundaryPlan(
            labels=part.labels,
            perm=perm,
            inv_perm=inv_perm,
            comp_start=comp_start,
            comp_boundary=comp_bnd,
            num_components=k,
            num_boundary=nb,
            n_row=n_row,
            num_buffers=nbuf,
        )
    if fallback is not None:
        return fallback
    raise BoundaryInfeasibleError(0, 0, budget, last_detail or "k search exhausted")


def ooc_boundary(
    graph,
    device: Device,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    plan: BoundaryPlan | None = None,
    store_mode: str = "ram",
    store_dir=None,
    seed: int = 0,
    engine=None,
    checkpoint=None,
) -> APSPResult:
    """Solve APSP with the out-of-core boundary algorithm.

    ``engine`` overrides the process-wide kernel engine for the host-side
    numeric work (FW closures and the ``dist4`` min-plus chain).
    ``checkpoint`` (a directory path or
    :class:`~repro.faults.CheckpointStore`) saves per-component ``dist2``
    blocks, the closed boundary matrix ``dist3``, and ``dist4`` output
    progress at every flush boundary, resuming from whatever the store
    already holds.
    """
    n = graph.num_vertices
    spec = device.spec
    if engine is None:
        from repro.core.engine import default_engine

        engine = default_engine()
    if plan is None:
        plan = plan_boundary(
            graph, spec,
            num_components=num_components,
            batch_transfers=batch_transfers, overlap=overlap, seed=seed,
        )
    k = plan.num_components
    nb_total = plan.num_boundary
    pg = graph.permute(plan.perm)  # internal ordering (Fig 1a)
    host = HostStore.empty(n, mode=store_mode, directory=store_dir)
    host.data[...] = np.inf

    device.reset_clock()
    ckpt = open_checkpoint(checkpoint, algorithm="boundary", graph=graph)
    _bind_boundary_plan(ckpt, plan)
    compute = device.default_stream
    copier = device.create_stream("bound-copy") if overlap else compute

    with device.memory.cleanup_on_error():
        return _run_boundary(
            graph, device, compute, copier, host, plan, pg,
            batch_transfers, overlap, engine, ckpt=ckpt,
        )


def _bind_boundary_plan(ckpt, plan: BoundaryPlan) -> None:
    """Reject a checkpoint store whose stages assume a different plan.

    Stage indices are only meaningful under one permutation/partition, so
    resuming under a different seed or component count must fail loudly
    rather than mix blocks from two orderings.
    """
    if ckpt is None:
        return
    state = ckpt.load("plan")
    if state is None:
        ckpt.save("plan", perm=plan.perm, comp_start=plan.comp_start)
        return
    if not (
        np.array_equal(state["perm"], plan.perm)
        and np.array_equal(state["comp_start"], plan.comp_start)
    ):
        raise CheckpointError(
            "checkpoint was written under a different boundary plan "
            "(permutation/partition mismatch)",
            path=ckpt.path_for("plan"),
        )


def _count_output_flushes(starts, k: int, cap: int, *, start: int = 0) -> int:
    """Number of batched output flushes step 4 performs.

    Replays the fill loop of :func:`_run_boundary` without side effects so
    the driver (and its IR mirror) can elide ``strip-down`` records whose
    drain is never waited on again — a record with no consumer would trip
    the happens-before dead-event check. ``start`` skips the block-rows a
    checkpoint-resumed run does not replay.
    """
    flushes = 0
    buf_rows = 0
    for i in range(start, k):
        buf_rows += int(starts[i + 1] - starts[i])
        next_ni = int(starts[min(i + 2, k)] - starts[min(i + 1, k)]) if i + 1 < k else 0
        if i + 1 >= k or buf_rows + next_ni > cap:
            if buf_rows:
                flushes += 1
            buf_rows = 0
    return flushes


def _run_boundary(
    graph, device, compute, copier, host, plan, pg, batch_transfers, overlap, engine,
    *, ckpt=None,
):
    """Steps 2-4 of Algorithm 3 (see module docstring).

    With ``ckpt`` set, each completed unit of work is saved — component
    blocks as ``dist2-{i}``, the closed boundary matrix as ``dist3``,
    output progress as ``dist4`` at every flush boundary — and whatever
    the store already holds is restored instead of recomputed. Stages are
    written in schedule order, so the present stages always form a prefix
    of the schedule and the resumed suffix replays identically.
    """
    n = graph.num_vertices
    spec = device.spec
    k = plan.num_components
    nb_total = plan.num_boundary

    starts = plan.comp_start
    bcounts = plan.comp_boundary
    # boundary vertices are the first b_i internal ids of each component
    bnd_offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(bcounts, out=bnd_offsets[1:])

    # ---- step 2: per-component APSP (dist2) ---------------------------
    dist2_blocks: list[np.ndarray] = []
    dist2_done = 0
    if ckpt is not None:
        while dist2_done < k and ckpt.has(f"dist2-{dist2_done}"):
            state = ckpt.load(f"dist2-{dist2_done}")
            dist2_blocks.append(np.asarray(state["block"], dtype=DIST_DTYPE))
            device.fault_report.resumed += 1
            dist2_done += 1
    for i in range(dist2_done, k):
        lo, hi = int(starts[i]), int(starts[i + 1])
        ni = hi - lo
        sub = pg.subgraph(np.arange(lo, hi))
        with device.memory.alloc((ni, ni), DIST_DTYPE, name=f"comp{i}") as tile:
            compute.copy_h2d(tile, sub.to_dense(dtype=DIST_DTYPE), pinned=True)
            engine.fw_inplace(tile.data)
            compute.launch("fw_comp", fw_tile_cost(spec, ni), reads=(tile,), writes=(tile,))
            block = np.empty((ni, ni), dtype=DIST_DTYPE)
            compute.copy_d2h(block, tile, pinned=True)
        dist2_blocks.append(block)
        if ckpt is not None:
            ckpt.save(f"dist2-{i}", block=block)
            device.fault_report.checkpoints_written += 1

    # ---- step 3: boundary graph closure (dist3) ------------------------
    bound_state = ckpt.load("dist3") if ckpt is not None else None
    if bound_state is not None:
        # restored matrix is already closed: upload only, no fw_bound
        bound_host = np.asarray(bound_state["bound"], dtype=DIST_DTYPE)
        device.fault_report.resumed += 1
        bound = device.memory.alloc((nb_total, nb_total), DIST_DTYPE, name="bound")
        compute.copy_h2d(bound, bound_host, pinned=True)
    else:
        bound_host = np.full((nb_total, nb_total), np.inf, dtype=DIST_DTYPE)
        np.fill_diagonal(bound_host, 0.0)
        # virtual edges: same-component boundary-to-boundary dist2
        for i in range(k):
            bi = int(bcounts[i])
            o = int(bnd_offsets[i])
            bound_host[o : o + bi, o : o + bi] = dist2_blocks[i][:bi, :bi]
        # cross edges: all cut edges connect boundary vertices of two components
        src, dst, w = pg.edge_array()
        comp_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        cross = comp_of[src] != comp_of[dst]
        csrc, cdst, cw = src[cross], dst[cross], w[cross]
        # internal id -> boundary index: offset within component + bnd offset
        local = np.arange(n) - starts[comp_of]
        bidx = bnd_offsets[comp_of] + local  # valid only for boundary vertices
        np.minimum.at(bound_host, (bidx[csrc], bidx[cdst]), cw.astype(DIST_DTYPE))

        bound = device.memory.alloc((nb_total, nb_total), DIST_DTYPE, name="bound")
        compute.copy_h2d(bound, bound_host, pinned=True)
        engine.fw_inplace(bound.data)
        compute.launch("fw_bound", fw_tile_cost(spec, nb_total), reads=(bound,), writes=(bound,))
        if ckpt is not None:
            ckpt.save("dist3", bound=np.asarray(bound.data))
            device.fault_report.checkpoints_written += 1

    # ---- step 4: dist4 via two successive min-plus products ------------
    nmax = plan.max_component
    bmax = int(bcounts.max())
    c2b = device.memory.alloc((nmax, max(1, bmax)), DIST_DTYPE, name="c2b")
    b2c = device.memory.alloc((max(1, bmax), nmax), DIST_DTYPE, name="b2c")
    tmp1 = device.memory.alloc((nmax, max(1, bmax)), DIST_DTYPE, name="tmp1")

    if batch_transfers and plan.n_row < 1:
        # the planner found no configuration with room for even one output
        # strip (seen on the smaller-memory K80 at reduced scale): degrade
        # to the per-block path
        batch_transfers = False
    if batch_transfers:
        out_bufs = [
            device.memory.alloc((plan.n_row * nmax, n), DIST_DTYPE, name=f"out{p}")
            for p in range(plan.num_buffers)
        ]
    else:
        out_bufs = [device.memory.alloc((nmax, nmax), DIST_DTYPE, name="out")]
    drain_events: list[Event | None] = [None] * len(out_bufs)

    rows_done = 0
    if ckpt is not None:
        state = ckpt.load("dist4")
        if state is not None:
            host.data[...] = state["dist"]
            rows_done = int(state["rows_done"])
            device.fault_report.resumed += 1

    buf_rows = 0  # filled rows in the active accumulation buffer
    buf_meta: list[tuple[int, int, int]] = []  # (host_lo, host_hi, buf_lo)
    active = 0
    flush_idx = 0
    total_flushes = (
        _count_output_flushes(starts, k, plan.n_row * nmax, start=rows_done)
        if batch_transfers
        else 0
    )

    def flush(active_idx: int) -> None:
        nonlocal buf_rows, buf_meta, flush_idx
        if buf_rows == 0:
            return
        buf = out_bufs[active_idx]
        total = buf_meta[-1][1] - buf_meta[0][0]
        view = buf.data[:buf_rows, :]
        hdst = host.data[buf_meta[0][0] : buf_meta[-1][1], :]
        if overlap:
            copier.wait(compute.record(Event("strip-ready")))
            copier.copy_d2h_async(hdst, view, pinned=True)
            if flush_idx + len(out_bufs) <= total_flushes:
                # Only record drains a later refill actually waits on.
                drain_events[active_idx] = copier.record(Event("strip-down"))
        else:
            compute.copy_d2h(hdst, view, pinned=True)
        assert total == buf_rows
        flush_idx += 1
        buf_rows = 0
        buf_meta = []

    for i in range(rows_done, k):
        lo_i, hi_i = int(starts[i]), int(starts[i + 1])
        ni = hi_i - lo_i
        bi = int(bcounts[i])
        oi = int(bnd_offsets[i])
        # C2B[i]: extract + upload (paper lines 6-8)
        c2b_view = c2b.data[:ni, :bi]
        compute.copy_h2d(c2b_view, dist2_blocks[i][:, :bi], pinned=True)
        compute.launch(
            "extract_c2b", extract_cost(spec, ni, bi),
            reads=(c2b_view,), writes=(c2b_view,),
        )

        if batch_transfers:
            row_base = buf_rows
            buf_meta.append((lo_i, hi_i, row_base))
        for j in range(k):
            lo_j, hi_j = int(starts[j]), int(starts[j + 1])
            nj = hi_j - lo_j
            bj = int(bcounts[j])
            oj = int(bnd_offsets[j])
            b2c_view = b2c.data[:bj, :nj]
            compute.copy_h2d(b2c_view, dist2_blocks[j][:bj, :], pinned=True)
            compute.launch(
                "extract_b2c", extract_cost(spec, bj, nj),
                reads=(b2c_view,), writes=(b2c_view,),
            )

            if batch_transfers:
                dest = out_bufs[active].data[row_base : row_base + ni, lo_j:hi_j]
            else:
                dest = out_bufs[0].data[:ni, :nj]
            dest[...] = np.inf
            compute.annotate("memset_out", writes=(dest,))
            if bi and bj:
                bview = bound.data[oi : oi + bi, oj : oj + bj]
                t1 = tmp1.data[:ni, :bj]
                t1[...] = np.inf
                compute.annotate("memset_tmp1", writes=(t1,))
                minplus_update(t1, c2b_view, bview, engine=engine)
                compute.launch(
                    "mp_c2b_bound", minplus_cost(spec, ni, bi, bj),
                    reads=(c2b_view, bview), writes=(t1,),
                )
                minplus_update(dest, t1, b2c_view, engine=engine)
                compute.launch(
                    "mp_bound_b2c", minplus_cost(spec, ni, bj, nj),
                    reads=(t1, b2c_view), writes=(dest,),
                )
            # else: isolated component — no boundary path in or out
            if i == j:
                np.minimum(dest, dist2_blocks[i], out=dest)
                compute.annotate("min_diag", reads=(dest,), writes=(dest,))

            if not batch_transfers:
                # naive path: strided per-block copy into the host matrix
                compute.copy_d2h_2d(host.data[lo_i:hi_i, lo_j:hi_j], dest, pinned=True)
        at_flush_boundary = not batch_transfers
        if batch_transfers:
            buf_rows += ni
            # Flush when the next block-row would not fit.
            next_ni = int(starts[min(i + 2, k)] - starts[min(i + 1, k)]) if i + 1 < k else 0
            if i + 1 >= k or buf_rows + next_ni > plan.n_row * nmax:
                flush(active)
                active = (active + 1) % len(out_bufs)
                if drain_events[active] is not None:
                    compute.wait(drain_events[active])  # buffer still draining
                at_flush_boundary = True
        if ckpt is not None and at_flush_boundary:
            # host.data holds every flushed block-row (simulated copies move
            # data at enqueue time), so the stage is consistent without a
            # device sync — checkpointing keeps the timeline untouched.
            ckpt.save("dist4", rows_done=i + 1, dist=np.asarray(host.data))
            device.fault_report.checkpoints_written += 1

    elapsed = device.synchronize()
    host.flush()
    for arr in [bound, c2b, b2c, tmp1, *out_bufs]:
        arr.free()

    from repro.core.ooc_fw import transfer_stats

    return APSPResult(
        algorithm="boundary",
        store=host,
        simulated_seconds=elapsed,
        perm=plan.perm,
        inv_perm=plan.inv_perm,
        stats={
            "num_components": k,
            "num_boundary": nb_total,
            "max_component": nmax,
            "n_row": plan.n_row,
            "num_buffers": plan.num_buffers if batch_transfers else 1,
            "batch_transfers": batch_transfers,
            "overlap": overlap,
            "kernel_backend": engine.describe(),
            **transfer_stats(device),
        },
        faults=device.fault_report,
    )

def emit_boundary_ir(
    graph,
    spec: DeviceSpec,
    *,
    num_components: int | None = None,
    batch_transfers: bool = True,
    overlap: bool = True,
    plan: BoundaryPlan | None = None,
    seed: int = 0,
    resume: "tuple[int, bool, int] | None" = None,
):
    """Compile the boundary-algorithm schedule to a symbolic
    :class:`~repro.verifyplan.ir.PlanIR` without executing anything.

    Mirrors :func:`_run_boundary` op for op: per-component dist2 tiles,
    the resident boundary matrix, the C2B/B2C extract uploads, and the
    ``N_row``-batched (or per-block strided) output drains with their
    flush boundaries — with ``overlap=True`` the batched drains run
    async on ``bound-copy`` behind the ``strip-ready``/``strip-down``
    event edges the driver uses. Host-side annotations (``memset_out``
    etc.) are marked ``annotate`` so the timing pass skips them, exactly
    as they occupy no slot on the dynamic timeline.

    ``resume=(dist2_done, bound_done, rows_done)`` emits the schedule
    suffix a checkpoint-resumed run replays: the first ``dist2_done``
    component closures are skipped, ``bound_done`` replaces the boundary
    closure with a plain re-upload of the restored matrix, and step 4
    starts at block-row ``rows_done``. Audit resumed suffixes with
    ``analyze_hb``/``audit_ir`` (they move fewer bytes than the full-run
    paper bounds assume).
    """
    from repro.verifyplan.ir import IREmitter, Rect

    dist2_done, bound_done, rows_done = resume if resume is not None else (0, False, 0)

    n = graph.num_vertices
    if plan is None:
        plan = plan_boundary(
            graph, spec,
            num_components=num_components,
            batch_transfers=batch_transfers, overlap=overlap, seed=seed,
        )
    k = plan.num_components
    nb_total = plan.num_boundary
    starts = plan.comp_start
    bcounts = plan.comp_boundary
    bnd_offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(bcounts, out=bnd_offsets[1:])

    em = IREmitter("boundary", spec.name, spec.memory_bytes)
    # step 2: per-component APSP (dist2)
    for i in range(dist2_done, k):
        ni = int(starts[i + 1] - starts[i])
        tile = em.alloc(f"comp{i}", (ni, ni))
        em.h2d(tile, key=("sub", i))
        em.kernel("fw_comp", reads=(tile,), writes=(tile,))
        em.d2h(tile, key=("dist2", i))
        em.free(tile)

    # step 3: boundary graph closure (dist3); stays resident
    bound = em.alloc("bound", (nb_total, nb_total))
    em.h2d(bound, key=("bound",))
    if not bound_done:
        em.kernel("fw_bound", reads=(bound,), writes=(bound,))

    # step 4: two min-plus products per block
    nmax = plan.max_component
    bmax = int(bcounts.max())
    c2b = em.alloc("c2b", (nmax, max(1, bmax)))
    b2c = em.alloc("b2c", (max(1, bmax), nmax))
    tmp1 = em.alloc("tmp1", (nmax, max(1, bmax)))
    if batch_transfers and plan.n_row < 1:
        batch_transfers = False
    if batch_transfers:
        out_bufs = [
            em.alloc(f"out{p}", (plan.n_row * nmax, n))
            for p in range(plan.num_buffers)
        ]
    else:
        out_bufs = [em.alloc("out", (nmax, nmax))]

    copier = "bound-copy" if overlap else "default"
    drain_events: list = [None] * len(out_bufs)
    buf_rows = 0
    buf_meta: list[tuple[int, int, int]] = []
    active = 0
    flush_idx = 0
    total_flushes = (
        _count_output_flushes(starts, k, plan.n_row * nmax, start=rows_done)
        if batch_transfers
        else 0
    )

    def flush(active_idx: int) -> None:
        nonlocal buf_rows, buf_meta, flush_idx
        if buf_rows == 0:
            return
        if overlap:
            em.wait(em.record("strip-ready"), stream=copier)
            em.d2h(
                out_bufs[active_idx], Rect(0, buf_rows, 0, n),
                key=("host-rows", buf_meta[0][0], buf_meta[-1][1]),
                stream=copier, sync=False,
            )
            if flush_idx + len(out_bufs) <= total_flushes:
                drain_events[active_idx] = em.record("strip-down", stream=copier)
        else:
            em.d2h(
                out_bufs[active_idx], Rect(0, buf_rows, 0, n),
                key=("host-rows", buf_meta[0][0], buf_meta[-1][1]),
            )
        flush_idx += 1
        buf_rows = 0
        buf_meta = []

    row_base = 0
    for i in range(rows_done, k):
        lo_i, hi_i = int(starts[i]), int(starts[i + 1])
        ni = hi_i - lo_i
        bi = int(bcounts[i])
        oi = int(bnd_offsets[i])
        cr = Rect(0, ni, 0, bi)
        em.h2d(c2b, cr, key=("dist2", i, "c2b"))
        em.kernel("extract_c2b", reads=((c2b, cr),), writes=((c2b, cr),))
        if batch_transfers:
            row_base = buf_rows
            buf_meta.append((lo_i, hi_i, row_base))
        for j in range(k):
            lo_j, hi_j = int(starts[j]), int(starts[j + 1])
            nj = hi_j - lo_j
            bj = int(bcounts[j])
            oj = int(bnd_offsets[j])
            br = Rect(0, bj, 0, nj)
            em.h2d(b2c, br, key=("dist2", j, "b2c"))
            em.kernel("extract_b2c", reads=((b2c, br),), writes=((b2c, br),))
            if batch_transfers:
                dest = (out_bufs[active], Rect(row_base, row_base + ni, lo_j, hi_j))
            else:
                dest = (out_bufs[0], Rect(0, ni, 0, nj))
            em.kernel("memset_out", writes=(dest,), annotate=True)
            if bi and bj:
                bview = (bound, Rect(oi, oi + bi, oj, oj + bj))
                t1 = (tmp1, Rect(0, ni, 0, bj))
                em.kernel("memset_tmp1", writes=(t1,), annotate=True)
                em.kernel("mp_c2b_bound", reads=((c2b, cr), bview), writes=(t1,))
                em.kernel("mp_bound_b2c", reads=(t1, (b2c, br)), writes=(dest,))
            if i == j:
                em.kernel("min_diag", reads=(dest,), writes=(dest,), annotate=True)
            if not batch_transfers:
                em.d2h(
                    out_bufs[0], Rect(0, ni, 0, nj),
                    key=("host-block", i, j), strided=True,
                )
        if batch_transfers:
            buf_rows += ni
            next_ni = (
                int(starts[min(i + 2, k)] - starts[min(i + 1, k)]) if i + 1 < k else 0
            )
            if i + 1 >= k or buf_rows + next_ni > plan.n_row * nmax:
                flush(active)
                active = (active + 1) % len(out_bufs)
                if overlap and drain_events[active] is not None:
                    em.wait(drain_events[active])  # buffer still draining
    for buf in [bound, c2b, b2c, tmp1, *out_bufs]:
        em.free(buf)
    return em.finish()
