"""The batch engine kernel: column buffers plus run-length core scheduling.

The scalar engine moves one ``TraceRecord`` object per iteration through an
iterator and a heap.  This kernel moves *columns*: each core pulls
``(gaps, addrs, writes)`` batches from :meth:`Workload.trace_batches` and the
scheduler processes whole **runs** — maximal record sequences one core can
execute before any other core's clock could interleave — without touching a
heap or constructing a single record object.

Order preservation
------------------

The heap invariant of the scalar engine is that every live core holds exactly
one ``(clock, core_id)`` entry, keyed by its clock *after its previous
record* (0.0 before its first).  The next record therefore always belongs to
the core with the minimum key, ties broken by core id.  This scheduler keeps
those keys in a flat list and picks ``c = argmin (key, id)`` directly; with
``B = (b_clock, b_core)`` the minimum over the *other* live cores, core ``c``
may keep executing records while its evolving clock satisfies
``(clock, c) < B`` — exactly the condition under which the heap would pop it
again.  The first record of a run needs no check (``c`` is the minimum), and
the run is cut at warmup/observer-window/budget boundaries so those fire at
the same processed counts as the scalar loop.  Pending OS stalls only apply
when the stalled core executes its next record (both engines), so no other
core's key can change while ``c`` runs.  The interleaving — and therefore
DRAM channel contention — is provably identical, and all results are
bit-identical to the scalar engine.

Within a run, records that hit both the TLB and the L1 with no pending OS
stall touch only core-private state; they are executed by an inlined copy of
:meth:`System.process_record_cols`'s hit path (same float operations, same
order).  Everything else falls back to ``process_record_cols`` itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.workloads.base import TraceBatch

if TYPE_CHECKING:
    from repro.obs.events import EventLog
    from repro.obs.timeline import TimelineObserver
    from repro.sim.system import System
    from repro.sim.vector import VectorFrontEnd

#: Records per scalar stretch between vectorized-filter retries.  Only used
#: when the numpy front end is attached; a pure-Python run is one stretch.
_SCALAR_STRETCH = 32


class EngineCursor:
    """Read-only view of engine progress handed to controller edges.

    ``consumed_per_core`` counts the records each core has consumed *within
    the current run* — workload streams restart per run, so these are
    exactly the fast-forward distances a snapshot resume needs.
    """

    __slots__ = ("system", "processed", "consumed_per_core", "measurement_started")

    def __init__(
        self,
        system: "System",
        processed: int,
        consumed_per_core: List[int],
        measurement_started: bool,
    ) -> None:
        self.system = system
        self.processed = processed
        self.consumed_per_core = consumed_per_core
        self.measurement_started = measurement_started


class RunController:
    """Steers a running engine from outside the per-record loop.

    A controller names the next processed-record count it wants control at
    (:meth:`next_stop`) and the engine cuts its runs there, calling
    :meth:`on_edge` with an :class:`EngineCursor` — exactly the mechanism
    warmup/observer/budget boundaries already use, so a controller costs the
    detached engine nothing and an attached one only extra run cuts.
    ``on_edge`` may block (pause), mutate its own state, capture snapshots,
    or return ``True`` to stop the run early.  :meth:`on_finish` fires once
    after the last record (or after an early stop).
    """

    def next_stop(self, processed: int) -> Optional[int]:
        """Next processed count to fire an edge at; None = no more edges."""
        return None

    def on_edge(self, cursor: EngineCursor) -> bool:
        """Handle an edge; return True to stop the run early."""
        return False

    def on_finish(self, cursor: EngineCursor) -> None:
        """Called once when the run ends (normally or via an early stop)."""
        return None


def _controller_stop(controller: "RunController", processed: int) -> float:
    """Normalize a controller's next stop to a comparable, progressing bound."""
    stop = controller.next_stop(processed)
    if stop is None:
        return float("inf")
    # Clamp to at least one record of progress so a stale stop cannot stall
    # the loop.
    return float(stop) if stop > processed else float(processed + 1)


def _edge(
    controller: "RunController",
    system: "System",
    processed: int,
    consumed: List[int],
    measurement_started: bool,
) -> bool:
    """Fire a controller edge; returns True when the run should stop."""
    cursor = EngineCursor(system, processed, list(consumed), measurement_started)
    return bool(controller.on_edge(cursor))


def _fast_forward(source: _CoreSource, count: int) -> int:
    """Skip ``count`` already-consumed records; returns the records skipped."""
    skipped = 0
    while count > 0:
        if source.pos >= source.length and not source.refill():
            break
        step = source.length - source.pos
        if step > count:
            step = count
        source.pos += step
        count -= step
        skipped += step
    return skipped


class _CoreSource:
    """One core's column buffers, refilled batch-by-batch from the workload."""

    __slots__ = ("batches", "gaps", "addrs", "writes", "pos", "length",
                 "const_gap", "np_gaps", "np_addrs", "np_writes")

    def __init__(self, batches: Iterator[TraceBatch]) -> None:
        self.batches = batches
        self.gaps: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.pos = 0
        self.length = 0
        # The batch's gap when every record shares it (fixed-rate workloads:
        # all the graph generators), else None.  Lets the inline hit path
        # reuse one precomputed gap/issue_width quotient instead of indexing
        # and dividing per record; the quotient is the same float either way.
        self.const_gap: Optional[int] = None
        # numpy views of the current batch, built lazily by the vectorized
        # front end (None in pure-Python batch mode).
        self.np_gaps: Any = None
        self.np_addrs: Any = None
        self.np_writes: Any = None

    def refill(self) -> bool:
        """Load the next non-empty batch; False when the stream is exhausted."""
        while True:
            try:
                gaps, addrs, writes = next(self.batches)
            except StopIteration:
                return False
            if gaps:
                self.gaps = gaps
                self.addrs = addrs
                self.writes = writes
                self.pos = 0
                self.length = len(gaps)
                gap0 = gaps[0]
                self.const_gap = gap0 if gaps.count(gap0) == len(gaps) else None
                self.np_gaps = None
                self.np_addrs = None
                self.np_writes = None
                return True


class BatchRunner:
    """One run of the batch engine (constructed per :meth:`SimulationEngine.run`)."""

    def __init__(self, system: "System", vectorize: bool = False) -> None:
        self._system = system
        self._process_cols = system.process_record_cols
        # The inline hit path replicates process_record_cols's TLB-hit +
        # L1-hit branch, which is only reachable when no per-record hook is
        # attached (HMA's cycle notifications, the observer's latency
        # histogram, a watchpoint hook).  With a hook attached every record
        # takes the full path.
        self._fast_ok = (
            system._notify_cycle is None
            and system._obs_latency_hook is None
            and system._obs_watch_hook is None
        )
        self._sources: List[_CoreSource] = []
        self._vector: Optional["VectorFrontEnd"] = None
        if vectorize and self._fast_ok:
            from repro.sim.vector import VectorFrontEnd

            self._vector = VectorFrontEnd(system)

    def detach(self) -> None:
        """Release per-run hooks installed on the system (mirror logs)."""
        if self._vector is not None:
            self._vector.detach()
            self._vector = None

    # ------------------------------------------------------------------ scheduling

    def _init_schedule(
        self,
        max_records_per_core: int,
        resume: Optional[Dict[str, Any]],
    ) -> Tuple[List[int], List[int], List[float], List[int], int]:
        """Build (consumed, remaining, keys, live, processed) for the run.

        On a fresh run the scheduling keys mirror the scalar engine's heap
        entries: 0.0 before a core's first record (even on a reused engine),
        the core's clock after its latest record otherwise.  On a resume the
        sources are fast-forwarded by the snapshot's consumed counts and the
        keys come from the restored core clocks — exactly the keys the
        original run held at the snapshot edge.
        """
        system = self._system
        num_cores = system.config.num_cores
        if resume is None:
            consumed = [0] * num_cores
            processed = 0
        else:
            consumed = [int(count) for count in resume["consumed_per_core"]]
            processed = int(resume["processed"])
            for core_id, count in enumerate(consumed):
                skipped = _fast_forward(self._sources[core_id], count)
                if skipped != count:
                    raise ValueError(
                        f"cannot resume: core {core_id} stream holds {skipped} "
                        f"records, snapshot consumed {count}; the workload does "
                        "not match the snapshot"
                    )
        remaining = [max_records_per_core - count for count in consumed]
        cores = system.cores
        keys = [
            cores[core_id].clock if consumed[core_id] > 0 else 0.0
            for core_id in range(num_cores)
        ]
        live = [core_id for core_id in range(num_cores) if remaining[core_id] > 0]
        return consumed, remaining, keys, live, processed

    def run(
        self,
        max_records_per_core: int,
        total_budget: float,
        warmup_threshold: int,
        measurement_started: bool,
        observer: Optional["TimelineObserver"],
        events: Optional["EventLog"],
        controller: Optional["RunController"] = None,
        resume: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Drive the whole simulation; returns the records processed."""
        system = self._system
        num_cores = system.config.num_cores
        workload = system.workload
        self._sources = [
            _CoreSource(workload.trace_batches(core_id)) for core_id in range(num_cores)
        ]
        if self._vector is None:
            return self._run_plain(
                max_records_per_core, total_budget, warmup_threshold,
                measurement_started, observer, events, controller, resume,
            )
        sources = self._sources
        cores = system.cores
        consumed, remaining, keys, live, processed = self._init_schedule(
            max_records_per_core, resume
        )
        observing = observer is not None
        next_window = processed + observer.interval if observer is not None else 0
        infinity = float("inf")
        controlling = controller is not None
        ctrl_next = _controller_stop(controller, processed) if controller is not None else infinity

        while live and processed < total_budget:
            best = -1
            best_key = 0.0
            b_core = -1
            b_key = 0.0
            for core_id in live:
                key = keys[core_id]
                if best < 0 or key < best_key:
                    b_core = best
                    b_key = best_key
                    best = core_id
                    best_key = key
                elif b_core < 0 or key < b_key:
                    b_core = core_id
                    b_key = key
            source = sources[best]
            if source.pos >= source.length and not source.refill():
                # Matches the scalar engine's StopIteration handling: the
                # minimum core is dropped at the moment it would next run.
                remaining[best] = 0
                live.remove(best)
                continue
            if b_core < 0:
                b_key = infinity
                b_core = num_cores
            # Cut the run at every boundary the scalar loop checks per
            # record, so warmup/windows/budget fire at identical counts.
            cap = remaining[best]
            avail = source.length - source.pos
            if avail < cap:
                cap = avail
            budget_left = total_budget - processed
            if budget_left < cap:
                cap = int(budget_left)
            if not measurement_started:
                warmup_left = warmup_threshold - processed
                if warmup_left < cap:
                    cap = warmup_left
            if observing:
                window_left = next_window - processed
                if window_left < cap:
                    cap = window_left
            if controlling:
                ctrl_left = ctrl_next - processed
                if ctrl_left < cap:
                    cap = int(ctrl_left)
            done = self._run_core(best, cap, b_key, b_core)
            processed += done
            remaining[best] -= done
            consumed[best] += done
            keys[best] = cores[best].clock
            if not measurement_started and processed >= warmup_threshold:
                system.begin_measurement()
                measurement_started = True
                if observer is not None:
                    observer.start_measurement(processed)
                    next_window = processed + observer.interval
                if events is not None:
                    events.emit("warmup_end", records=processed)
            if observer is not None and processed >= next_window:
                observer.snapshot(processed)
                next_window = processed + observer.interval
            if controller is not None and processed >= ctrl_next:
                stop_run = _edge(controller, system, processed, consumed, measurement_started)
                ctrl_next = _controller_stop(controller, processed)
                if stop_run:
                    break
            if remaining[best] <= 0:
                live.remove(best)
        if controller is not None:
            controller.on_finish(
                EngineCursor(system, processed, list(consumed), measurement_started)
            )
        return processed

    def _run_plain(
        self,
        max_records_per_core: int,
        total_budget: float,
        warmup_threshold: int,
        measurement_started: bool,
        observer: Optional["TimelineObserver"],
        events: Optional["EventLog"],
        controller: Optional["RunController"] = None,
        resume: Optional[Dict[str, Any]] = None,
    ) -> int:
        """The pure-Python batch loop: scheduler and record loop fully inlined.

        Multicore interleave runs average only a couple of records (cores
        advance their clocks at similar rates), so per-run overhead is paid
        almost per record; this loop therefore hoists all per-core state into
        context tuples built once per run() and keeps the three float
        accumulators (core clock, compute cycles, memory stall cycles) in
        locals, flushing them only around slow-path calls and at run ends.
        The flushes preserve the exact per-record addition order, so results
        stay bit-identical (see the module docstring for the order proof).

        A turn whose first record is not an inline TLB+L1 hit is a
        *one-record turn*: it calls ``process_record_cols`` once and goes
        back to the pick, skipping the run cap, the context unpack and the
        accumulator load and flush.  That is the scalar engine's order (one
        record, then the edge checks, then the pick), so it is bit-identical
        too; both kinds of turn share the edge block.
        """
        system = self._system
        num_cores = system.config.num_cores
        sources = self._sources
        process_cols = self._process_cols
        fast_ok = self._fast_ok
        page_size = system.page_size
        # The inline path computes vpns with a shift; a non-power-of-two page
        # size (no shipped config has one) just disables the inline path and
        # every record takes process_record_cols — still bit-identical.
        page_shift = page_size.bit_length() - 1
        if (1 << page_shift) != page_size:
            fast_ok = False
        # Per-core invariant context, resolved once: (core, tlb, l1,
        # tlb entries, tlb move_to_end, l1 sets, set mask, line bits,
        # lru flag, issue width, l1 stall, stats).
        contexts: List[Any] = []
        for core_id in range(num_cores):
            core = system.cores[core_id]
            tlb = system.tlbs[core_id]
            l1 = system.hierarchy.l1[core_id]
            contexts.append((
                core, tlb, l1, tlb._entries, tlb._entries.move_to_end,
                l1._sets, l1._set_mask, l1._line_bits, l1._lru,
                core._issue_width, core._l1_stall, core.stats,
            ))
        consumed, remaining, keys, live, processed = self._init_schedule(
            max_records_per_core, resume
        )
        observing = observer is not None
        next_window = processed + observer.interval if observer is not None else 0
        infinity = float("inf")
        controlling = controller is not None
        ctrl_next = _controller_stop(controller, processed) if controller is not None else infinity

        while live and processed < total_budget:
            if len(live) == 1:
                best = live[0]
                b_clock = infinity
                b_core = num_cores
            else:
                best = -1
                best_key = 0.0
                b_core = -1
                b_clock = 0.0
                for core_id in live:
                    key = keys[core_id]
                    if best < 0 or key < best_key:
                        b_core = best
                        b_clock = best_key
                        best = core_id
                        best_key = key
                    elif b_core < 0 or key < b_clock:
                        b_core = core_id
                        b_clock = key
            source = sources[best]
            pos = source.pos
            if pos >= source.length:
                if not source.refill():
                    # Matches the scalar engine's StopIteration handling: the
                    # minimum core is dropped when it would next run.
                    remaining[best] = 0
                    live.remove(best)
                    continue
                pos = 0
            addr = source.addrs[pos]
            context = contexts[best]
            if fast_ok and context[0]._pending_stall == 0.0 and (addr >> page_shift) in context[3]:
                line = addr >> context[7]
                inline_first = line in context[5][line & context[6]]
            else:
                inline_first = False
            if not inline_first:
                # One-record turn.  In the miss-bound regime most turns hold
                # a single record that leaves the inline path, so the run
                # set-up below would buy nothing: process it and go back to
                # the pick, which hands the core the next record itself if
                # it is still the minimum.  No cap is needed: the edge block
                # leaves every boundary at least one record away.
                keys[best] = process_cols(best, source.gaps[pos], addr, source.writes[pos])
                source.pos = pos + 1
                done = 1
            else:
                # Cut the run at every boundary the scalar loop checks per
                # record, so warmup/windows/budget fire at identical counts.
                cap = remaining[best]
                avail = source.length - pos
                if avail < cap:
                    cap = avail
                if processed + cap > total_budget:
                    cap = int(total_budget - processed)
                if not measurement_started:
                    warmup_left = warmup_threshold - processed
                    if warmup_left < cap:
                        cap = warmup_left
                if observing:
                    window_left = next_window - processed
                    if window_left < cap:
                        cap = window_left
                if controlling:
                    ctrl_left = ctrl_next - processed
                    if ctrl_left < cap:
                        cap = int(ctrl_left)
                (core, tlb, l1, tlb_entries, tlb_move, l1_sets, set_mask,
                 line_bits, l1_lru, issue_width, l1_stall, stats) = context
                gaps = source.gaps
                addrs = source.addrs
                writes = source.writes
                const_gap = source.const_gap
                cycles_const = const_gap / issue_width if const_gap is not None else 0.0
                tie_lt = best < b_core
                start = pos
                end = pos + cap
                clock = core.clock
                cc = stats.compute_cycles
                ms = stats.memory_stall_cycles
                instructions = 0
                fast_count = 0
                # The inline hit path cannot set a pending stall, so the check
                # holds across fast records and is only re-evaluated after a
                # slow-path call (which can trigger OS events).
                fast_here = fast_ok and core._pending_stall == 0.0
                while pos < end:  # repro: hotpath
                    addr = addrs[pos]
                    if fast_here:
                        vpn = addr >> page_shift
                        if vpn in tlb_entries:
                            line = addr >> line_bits
                            bucket = l1_sets[line & set_mask]
                            if line in bucket:
                                # Inline TLB-hit + L1-hit path: identical
                                # operations in identical order to
                                # process_record_cols, so bit-identical.
                                if const_gap is None:
                                    gap = gaps[pos]
                                    cycles = gap / issue_width
                                else:
                                    gap = const_gap
                                    cycles = cycles_const
                                tlb_move(vpn)
                                if writes[pos]:
                                    bucket[line] = True
                                if l1_lru:
                                    bucket.move_to_end(line)
                                clock += cycles
                                cc += cycles
                                clock += l1_stall
                                ms += l1_stall
                                instructions += gap
                                fast_count += 1
                                pos += 1
                                if clock < b_clock or (clock == b_clock and tie_lt):
                                    continue
                                break
                    # Slow path: flush the float accumulators (their per-record
                    # addition order must be preserved), call, reload.
                    core.clock = clock
                    stats.compute_cycles = cc
                    stats.memory_stall_cycles = ms
                    clock = process_cols(best, gaps[pos], addr, writes[pos])
                    cc = stats.compute_cycles
                    ms = stats.memory_stall_cycles
                    fast_here = fast_ok and core._pending_stall == 0.0
                    pos += 1
                    if clock < b_clock or (clock == b_clock and tie_lt):
                        continue
                    break
                done = pos - start
                source.pos = pos
                core.clock = clock
                stats.compute_cycles = cc
                stats.memory_stall_cycles = ms
                stats.instructions += instructions
                stats.memory_accesses += fast_count
                tlb.hits += fast_count
                l1.hits += fast_count
                keys[best] = clock
            processed += done
            remaining[best] -= done
            consumed[best] += done
            if not measurement_started and processed >= warmup_threshold:
                system.begin_measurement()
                measurement_started = True
                if observer is not None:
                    observer.start_measurement(processed)
                    next_window = processed + observer.interval
                if events is not None:
                    events.emit("warmup_end", records=processed)
            if observer is not None and processed >= next_window:
                observer.snapshot(processed)
                next_window = processed + observer.interval
            if controller is not None and processed >= ctrl_next:
                stop_run = _edge(controller, system, processed, consumed, measurement_started)
                ctrl_next = _controller_stop(controller, processed)
                if stop_run:
                    break
            if remaining[best] <= 0:
                live.remove(best)
        if controller is not None:
            controller.on_finish(
                EngineCursor(system, processed, list(consumed), measurement_started)
            )
        return processed

    def _run_core(self, core_id: int, cap: int, b_clock: float, b_core: int) -> int:
        """Execute up to ``cap`` records of one core's run; returns the count."""
        vector = self._vector
        if vector is None:
            return self._scalar_stretch(core_id, cap, b_clock, b_core)
        core = self._system.cores[core_id]
        tie_lt = core_id < b_core
        n = 0
        while n < cap:
            done = vector.try_bulk(core_id, self._sources[core_id], cap - n, b_clock, b_core)
            if done:
                n += done
                if n >= cap:
                    break
                clock = core.clock
                if not (clock < b_clock or (clock == b_clock and tie_lt)):
                    break
            # The next record is a TLB/L1 miss, a pending stall, or the bulk
            # filter is backed off: take a bounded scalar stretch, then give
            # the bulk filter another look.
            step = cap - n
            if step > _SCALAR_STRETCH:
                step = _SCALAR_STRETCH
            done = self._scalar_stretch(core_id, step, b_clock, b_core)
            n += done
            if done < step:
                break  # crossed the interleave boundary
        return n

    # ------------------------------------------------------------------ per-record

    def _scalar_stretch(self, core_id: int, stretch: int, b_clock: float, b_core: int) -> int:
        """Process up to ``stretch`` buffered records for one core.

        Stops early only when the core's clock crosses the interleave
        boundary ``(b_clock, b_core)``.  Records that hit both the TLB and
        the L1 with no pending OS stall run through an inlined copy of the
        ``process_record_cols`` hit path (identical operations in identical
        order, so results are bit-identical); everything else falls back to
        ``process_record_cols``.
        """
        system = self._system
        source = self._sources[core_id]
        core = system.cores[core_id]
        tlb = system.tlbs[core_id]
        l1 = system.hierarchy.l1[core_id]
        tlb_entries = tlb._entries
        tlb_move = tlb_entries.move_to_end
        l1_sets = l1._sets
        set_mask = l1._set_mask
        line_bits = l1._line_bits
        l1_lru = l1._lru
        page_size = system.page_size
        issue_width = core._issue_width
        l1_stall = core._l1_stall
        stats = core.stats
        process_cols = self._process_cols
        fast_ok = self._fast_ok
        tie_lt = core_id < b_core
        gaps = source.gaps
        addrs = source.addrs
        writes = source.writes
        pos = source.pos
        clock = core.clock
        # Exact integer counters commute, so they accumulate in locals and
        # flush once per stretch; the float accumulators (clock and the
        # cycle stats) must stay per-record to keep the summation order —
        # and therefore the rounded results — bit-identical to the scalar
        # engine.
        tlb_hits = 0
        l1_hits = 0
        instructions = 0
        accesses = 0
        n = 0
        while n < stretch:  # repro: hotpath
            gap = gaps[pos]
            addr = addrs[pos]
            is_write = writes[pos]
            if fast_ok and core._pending_stall == 0.0:
                vpn = addr // page_size
                if tlb_entries.get(vpn) is not None:
                    line = addr >> line_bits
                    bucket = l1_sets[line & set_mask]
                    if line in bucket:
                        tlb_hits += 1
                        tlb_move(vpn)
                        l1_hits += 1
                        if is_write:
                            bucket[line] = True
                        if l1_lru:
                            bucket.move_to_end(line)
                        cycles = gap / issue_width
                        clock += cycles
                        instructions += gap
                        stats.compute_cycles += cycles
                        accesses += 1
                        clock += l1_stall
                        stats.memory_stall_cycles += l1_stall
                        core.clock = clock
                        pos += 1
                        n += 1
                        if clock < b_clock or (clock == b_clock and tie_lt):
                            continue
                        break
            clock = process_cols(core_id, gap, addr, is_write)
            pos += 1
            n += 1
            if clock < b_clock or (clock == b_clock and tie_lt):
                continue
            break
        source.pos = pos
        tlb.hits += tlb_hits
        l1.hits += l1_hits
        stats.instructions += instructions
        stats.memory_accesses += accesses
        return n
