package core

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/timing"
)

// RunLanes executes len(seeds) replicas of cfg — identical except for
// Config.Seed — through one interleaved cycle loop. The replicas ("lanes")
// share the immutable topology backend (geometry, route tables; backends are
// read-only at runtime), while every lane keeps its own mutable state: VC
// buffers, queues, stats, RNG streams and a private clock scheduler. Each
// round advances every live lane by one step of the closed-loop cycle loop
// (lane.step — the same loop a solo System.Run drives as a lane of one),
// interleaved in wall-clock with its siblings; lanes retire individually as
// they finish and a retired lane costs nothing. Results are therefore
// bit-identical to solo runs for every lane count, which the golden digest
// matrices pin at lanes 1/2/4.
//
// The returned slices are indexed like seeds. A lane's error is what Run
// would have returned for that seed (nil, or a *fault.HangError with the
// Result still populated).
func RunLanes(ctx context.Context, cfg Config, seeds []uint64) ([]Result, []error) {
	lanes, buildErrs := runLanes(ctx, cfg, seeds)
	results := make([]Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, l := range lanes {
		if l == nil {
			errs[i] = buildErrs[i]
			continue
		}
		results[i] = l.res
		errs[i] = l.runErr
	}
	return results, errs
}

// runLanes builds and drives the lane batch, returning the retired lanes
// (nil where construction failed, with the error in the second slice).
// Split from RunLanes so tests can digest per-lane network stats.
func runLanes(ctx context.Context, cfg Config, seeds []uint64) ([]*lane, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Build the shared backend once. Only the single-mesh network family
	// can share (Double builds two slices, ideal networks have no kernel);
	// other kinds simply construct per lane, exactly as NewSystem does.
	var share noc.Backend
	if cfg.Net == NetMesh {
		if b, err := noc.BuildBackend(cfg.Noc); err == nil {
			share = b
		}
	}

	errs := make([]error, len(seeds))
	lanes := make([]*lane, len(seeds))
	live := 0
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		sys, err := newSystem(c, share)
		if err != nil {
			errs[i] = err
			continue
		}
		lanes[i] = newLane(sys)
		live++
	}
	for live > 0 {
		for _, l := range lanes {
			if l == nil || l.finished {
				continue
			}
			if !l.step(ctx) {
				live--
			}
		}
	}
	return lanes, errs
}

// lane is one seed replica driven by the closed-loop cycle loop: a full
// System plus the dormancy bookkeeping that lets the loop elide ticks on
// components whose work horizon has not arrived. The elided idle cycles are
// paid lazily with each component's SkipAhead-family credit call, which the
// idle-horizon contract (DESIGN.md) defines to be bit-identical to ticking it
// that many times.
//
// Per component the lane stores a wake threshold and a credit watermark:
//
//   - cred counts the domain cycles already applied to the component, by
//     real ticks or by SkipAhead-family credits. Paying a component "up to
//     C" means calling its skip credit for the (C - cred) elided idle
//     cycles; by the idle-horizon contract that is bit-identical to having
//     ticked it through them, as long as the window stays inside the bound
//     its NextWorkCycle gave and no external event landed inside it.
//   - wake is the post-step domain cycle count at which the component must
//     really tick again. 0 means awake (tick every edge); NeverCycle means
//     dormant until an external event. Every event that can create work for
//     a component (a delivery, a popped request, the other clock side of an
//     MC doing real work) pays the component up to the current count first
//     and then clears its wake, so no elided window ever spans an event.
type lane struct {
	sys *System
	wd  *fault.Watchdog
	buf []timing.Domain

	maxIcnt uint64
	elide   bool // dormancy elision + idle skips (off under NoIdleSkip)

	coreCred    []uint64
	coreDormant []bool
	coreDone    []bool // sticky Done() results; dormant && !done stays !done
	dormantN    int    // count of dormant cores

	netCred  uint64
	netWake  uint64
	icntCred []uint64 // per MC, interconnect side
	icntWake []uint64
	dramCred []uint64 // per MC, DRAM side
	dramWake []uint64

	runErr   error
	res      Result
	timedOut bool
	finished bool

	// doneKnownFalse short-circuits the next loop-top done() check: the
	// stride gate evaluated done() after the last tick of the previous step
	// and nothing can change lane state between that point and the next
	// loop top.
	doneKnownFalse bool
}

func newLane(sys *System) *lane {
	l := &lane{
		sys:         sys,
		buf:         make([]timing.Domain, 0, timing.NumDomains),
		maxIcnt:     sys.cfg.MaxIcntCycles,
		elide:       !sys.cfg.NoIdleSkip,
		coreCred:    make([]uint64, len(sys.cores)),
		coreDormant: make([]bool, len(sys.cores)),
		coreDone:    make([]bool, len(sys.cores)),
		icntCred:    make([]uint64, len(sys.mcs)),
		icntWake:    make([]uint64, len(sys.mcs)),
		dramCred:    make([]uint64, len(sys.mcs)),
		dramWake:    make([]uint64, len(sys.mcs)),
	}
	if l.maxIcnt == 0 {
		l.maxIcnt = defaultMaxIcntCycles
	}
	// The system stall watchdog backs up the network's: it watches total
	// forward progress (instructions, memory work and flit movement), so it
	// also catches hangs outside the network. Same window, in icnt cycles.
	if sys.cfg.Noc.Fault.Monitored() {
		l.wd = fault.NewWatchdog(sys.cfg.Noc.Fault.WatchdogCycles)
	}
	return l
}

// step advances the lane by one iteration of the cycle loop — one scheduler
// step plus its bookkeeping — and reports whether the lane is still live:
// the loop-top done check, the cycle cap, the context poll, the domain ticks
// (gated by the dormancy state), the network health check, the stall
// watchdog and, after interconnect edges, the idle skip.
func (l *lane) step(ctx context.Context) bool {
	s := l.sys
	if l.doneKnownFalse {
		// The stride check at the end of the previous step already evaluated
		// done() and nothing has run since, so the verdict still stands.
		l.doneKnownFalse = false
	} else if l.done() {
		l.finish(false)
		return false
	}
	icnt := s.sched.Cycles(timing.DomainInterconnect)
	if icnt >= l.maxIcnt {
		l.timedOut = true
		l.fail(fault.Hang(fault.ErrCycleCap, s.diagnose("cycle-cap")))
		return false
	}
	if icnt%ctxCheckPeriod == 0 {
		if cerr := ctx.Err(); cerr != nil {
			cond := ctxCondition(cerr)
			l.fail(fault.Hang(cond, s.diagnose(statusOf(cond))))
			return false
		}
	}
	l.buf = s.sched.Step(l.buf)
	icntTicked := false
	for _, d := range l.buf {
		switch d {
		case timing.DomainCore:
			l.coreTicks()
		case timing.DomainInterconnect:
			l.icntTick()
			icntTicked = true
		case timing.DomainDRAM:
			l.dramTicks()
		}
	}
	if err := s.net.Health(); err != nil {
		l.fail(err)
		return false
	}
	if l.wd != nil && icnt%stallCheckPeriod == 0 &&
		l.wd.Observe(icnt, s.progress(), 1) {
		l.fail(fault.Hang(fault.ErrStall, s.diagnose("stall")))
		return false
	}
	// Attempt a fast-forward only after interconnect edges: idle windows
	// always span whole interconnect cycles, and gating the attempt keeps
	// the horizon scans off the core/DRAM-edge iterations (roughly four in
	// five) during busy phases.
	if l.elide && icntTicked {
		l.maybeSkip()
		l.strideToNextIcnt()
	}
	return true
}

// strideToNextIcnt bulk-advances the scheduler to the next interconnect
// edge when the interconnect is the only domain with live work: every core
// dormant (NeverCycle horizon, empty out-queue) and every DRAM side fully
// drained. The skipped core/DRAM edges carry no ticks — they would only pay
// the loop prologue — and their idle credits settle lazily like any other
// elision. Observable state at every remaining loop top (interconnect cycle
// count, progress counter, health, watchdog samples) is exactly what
// edge-by-edge stepping produces, since nothing can change between two
// interconnect edges while the other domains are dormant.
func (l *lane) strideToNextIcnt() {
	s := l.sys
	if l.dormantN != len(s.cores) {
		return
	}
	for j := range l.dramWake {
		if l.dramWake[j] != mem.NeverCycle {
			return
		}
	}
	// If the next loop top will retire the lane — run complete, or the cycle
	// cap reached — edge-by-edge stepping would observe it at the FIRST edge
	// after this one, before any further core/DRAM edges advance their
	// counters.
	// Striding would credit those edges and inflate the final cycle counts,
	// so hold position and let the loop top take the exit exactly.
	ic := s.sched.Cycles(timing.DomainInterconnect)
	if ic >= l.maxIcnt || l.done() {
		return
	}
	l.doneKnownFalse = true
	h := s.sched.EdgeFs(timing.DomainInterconnect, ic+1)
	if h <= s.sched.NextFs() {
		return
	}
	s.sched.SkipTo(h)
}

// fail records a degradation verdict and retires the lane.
func (l *lane) fail(err error) {
	l.payAll()
	l.runErr = err
	l.finish(l.timedOut)
}

// finish pays every component up to its final cycle count and assembles the
// lane's Result.
func (l *lane) finish(timedOut bool) {
	l.payAll()
	l.res = l.sys.result(timedOut)
	l.res.Status = statusOf(l.runErr)
	l.finished = true
}

// payAll settles every outstanding elision credit, bringing each component
// to its domain's current cycle count. Idempotent.
func (l *lane) payAll() {
	s := l.sys
	cc := s.sched.Cycles(timing.DomainCore)
	for i, c := range s.cores {
		if k := cc - l.coreCred[i]; k > 0 {
			c.SkipAhead(k)
			l.coreCred[i] = cc
		}
	}
	ic := s.sched.Cycles(timing.DomainInterconnect)
	if k := ic - l.netCred; k > 0 {
		s.net.SkipAhead(k)
		l.netCred = ic
	}
	dc := s.sched.Cycles(timing.DomainDRAM)
	for j, mc := range s.mcs {
		if k := ic - l.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
			l.icntCred[j] = ic
		}
		if k := dc - l.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
			l.dramCred[j] = dc
		}
	}
}

// done reports run completion — every core done, the network quiet and no
// MC busy — with two caches: sticky per-core Done results (completion is
// monotonic — a finished core has no outstanding work that could wake it)
// and the dormancy rule that a core marked dormant while unfinished cannot
// finish without an external wake event (its horizon was NeverCycle, so no
// tick it is owed can make progress).
func (l *lane) done() bool {
	s := l.sys
	for i, c := range s.cores {
		if l.coreDone[i] {
			continue
		}
		if l.coreDormant[i] {
			return false
		}
		if !c.Done() {
			return false
		}
		l.coreDone[i] = true
	}
	if !s.net.Quiet() {
		return false
	}
	for _, mc := range s.mcs {
		if mc.Busy() {
			return false
		}
	}
	return true
}

// wakeCore pays core i up to the current core-domain count and clears its
// dormancy, so an external event (fill delivery, popped request) never lands
// inside an elided window. On an awake, caught-up core it is a no-op.
func (l *lane) wakeCore(i int) {
	cc := l.sys.sched.Cycles(timing.DomainCore)
	if k := cc - l.coreCred[i]; k > 0 {
		l.sys.cores[i].SkipAhead(k)
		l.coreCred[i] = cc
	}
	if l.coreDormant[i] {
		l.coreDormant[i] = false
		l.dormantN--
	}
}

// coreTicks runs the core-domain edge: every non-dormant core pays any
// pending skip credit (left lazily by maybeSkip's bulk advance) and ticks.
func (l *lane) coreTicks() {
	s := l.sys
	if l.dormantN == len(s.cores) {
		return
	}
	cc := s.sched.Cycles(timing.DomainCore)
	for i, c := range s.cores {
		if l.coreDormant[i] {
			continue
		}
		if k := cc - 1 - l.coreCred[i]; k > 0 {
			c.SkipAhead(k)
		}
		c.Tick()
		l.coreCred[i] = cc
	}
}

// dramTicks runs the DRAM-domain edge for every MC whose DRAM wake has
// arrived. Before a real TickDRAM the MC's interconnect side is paid up
// (TickDRAM can push replies, and SkipIcnt's Busy() accounting must never
// span a state change); afterwards both horizons are recomputed, since a
// completed read wakes the interconnect side.
func (l *lane) dramTicks() {
	s := l.sys
	dc := s.sched.Cycles(timing.DomainDRAM)
	ic := s.sched.Cycles(timing.DomainInterconnect)
	for j, mc := range s.mcs {
		if dc < l.dramWake[j] {
			continue
		}
		if k := ic - l.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
			l.icntCred[j] = ic
		}
		if k := dc - 1 - l.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
		}
		mc.TickDRAM()
		l.dramCred[j] = dc
		if l.elide {
			l.dramWake[j] = mc.NextDRAMWorkCycle()
			l.icntWake[j] = icntWakeOf(mc, ic)
		}
	}
}

// icntWakeOf converts an MC's interconnect-side horizon (the cycle argument
// of the first TickIcnt with work, given the current post-step count) into
// the post-step count at which that tick runs.
func icntWakeOf(mc *mem.MCNode, now uint64) uint64 {
	w := mc.NextIcntWorkCycle(now)
	if w == mem.NeverCycle {
		return mem.NeverCycle
	}
	return w + 1
}

// icntTick runs the interconnect-domain edge. When no core has an outbound
// request, no MC's interconnect wake has arrived and the network's horizon
// has not arrived either, the whole edge is provably idle and nothing is
// touched — the elided cycle is paid later by each component's skip credit.
// Otherwise the network is paid up to the pre-tick cycle (injections and MC
// ticks must observe the true network clock) and the edge runs: core
// requests enter the network, MCs whose wake has arrived process and inject
// replies, the network moves flits, and deliveries fan back out to cores and
// MCs.
func (l *lane) icntTick() {
	s := l.sys
	ic := s.sched.Cycles(timing.DomainInterconnect) // post-step count
	anyMC := false
	for j := range s.mcs {
		if ic >= l.icntWake[j] {
			anyMC = true
			break
		}
	}
	inject := false
	if l.dormantN < len(s.cores) {
		for i, c := range s.cores {
			if l.coreDormant[i] {
				continue // dormant cores have empty out-queues by construction
			}
			if _, ok := c.PeekRequest(); ok {
				inject = true
				break
			}
		}
	}
	if !anyMC && !inject && ic < l.netWake {
		return
	}
	if k := ic - 1 - l.netCred; k > 0 {
		s.net.SkipAhead(k)
	}
	l.injectCoreRequests()
	cycle := s.net.Cycle() // == ic-1, the pre-tick count MCs observe
	dc := s.sched.Cycles(timing.DomainDRAM)
	for j, mc := range s.mcs {
		if ic < l.icntWake[j] {
			continue
		}
		// Pay the DRAM side first: servicing a request may enqueue DRAM
		// work, and SkipDRAM's accounting must never span that change.
		if k := dc - l.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
			l.dramCred[j] = dc
		}
		if k := ic - 1 - l.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
		}
		mc.TickIcnt(cycle, s.net)
		l.icntCred[j] = ic
		if l.elide {
			l.icntWake[j] = icntWakeOf(mc, ic)
			l.dramWake[j] = mc.NextDRAMWorkCycle()
		}
	}
	s.net.Tick()
	l.netCred = ic
	l.deliver(ic)
	if l.elide {
		l.netWake = s.net.NextWorkCycle()
	}
}

// injectCoreRequests moves queued core requests into the network until it
// refuses one; a successful injection pays and wakes the core before
// PopRequest mutates it (out-queue space may unblock a stalled miss).
func (l *lane) injectCoreRequests() {
	s := l.sys
	for i, c := range s.cores {
		if l.coreDormant[i] {
			continue
		}
		for {
			req, ok := c.PeekRequest()
			if !ok {
				break
			}
			pkt := s.packetFor(s.coreNodes[i], req)
			if !s.net.TryInject(pkt) {
				s.pool.Put(pkt)
				break
			}
			l.wakeCore(i)
			c.PopRequest()
		}
	}
}

// deliver hands every packet the network ejected this edge to its
// destination — fills to cores, requests to MCs — paying and waking the
// receiving component before each delivery lands.
func (l *lane) deliver(ic uint64) {
	s := l.sys
	for idx, node := range s.coreNodes {
		for _, pkt := range s.net.Delivered(node) {
			if pkt.Class != noc.ClassReply {
				panic(fmt.Sprintf("core: compute node %d received non-reply packet %d", node, pkt.ID))
			}
			l.wakeCore(idx)
			s.cores[idx].DeliverFill(addr.Address(pkt.Line))
			s.pool.Put(pkt)
		}
	}
	for j, node := range s.mcNodes {
		for _, pkt := range s.net.Delivered(node) {
			if k := ic - l.icntCred[j]; k > 0 {
				s.mcs[j].SkipIcnt(k)
				l.icntCred[j] = ic
			}
			l.icntWake[j] = 0 // a queued request means work on the next edge
			s.mcs[j].AcceptRequest(pkt)
			s.pool.Put(pkt)
		}
	}
}

// maybeSkip fast-forwards the scheduler across a fully idle window. It asks
// every subsystem for a conservative next-work horizon — reading the cached
// wake state rather than re-deriving horizons for dormant components —
// converts each to an absolute femtosecond instant, and bulk-advances the
// scheduler to the earliest one with SkipTo; the credited idle edges are
// paid lazily from each component's cred watermark. When any domain has
// work on its very next edge the method returns without touching anything,
// so the edge-by-edge path stays the ground truth. Skipping never changes
// results (the idle-horizon contract), so the cached horizons only need to
// be conservative, which they are: every event that could shorten one
// clears the wake first.
func (l *lane) maybeSkip() {
	s := l.sys
	const never = noc.NeverCycle

	// Core horizon first: in compute-bound phases some core works on its
	// very next tick, so this scan is the cheap early-out. A queued outbound
	// request forces a real interconnect tick (injection). A core whose
	// horizon is NeverCycle turns dormant until an external event wakes it,
	// so later scans skip it.
	coreNow := s.sched.Cycles(timing.DomainCore)
	kCore := never
	for i, c := range s.cores {
		if l.coreDormant[i] {
			continue // empty out-queue, NeverCycle horizon
		}
		if _, ok := c.PeekRequest(); ok {
			return
		}
		w := c.NextWorkCycle()
		if w == gpu.NeverCycle {
			if !l.coreDone[i] && c.Done() {
				l.coreDone[i] = true
			}
			l.coreDormant[i] = true
			l.dormantN++
			continue
		}
		if w <= coreNow+1 {
			return
		}
		if k := w - coreNow - 1; k < kCore {
			kCore = k
		}
	}

	// Interconnect horizon: the network itself and each MC's network side
	// ride the same domain. Both wakes are post-step counts, so a wake of w
	// leaves w-icntNow-1 idle ticks.
	icntNow := s.sched.Cycles(timing.DomainInterconnect)
	kIcnt := never
	if l.netWake != never {
		if l.netWake <= icntNow+1 {
			return
		}
		kIcnt = l.netWake - icntNow - 1
	}
	for j := range s.mcs {
		w := l.icntWake[j]
		if w == never {
			continue
		}
		if w <= icntNow+1 {
			return
		}
		if k := w - icntNow - 1; k < kIcnt {
			kIcnt = k
		}
	}

	// DRAM horizon. Unlike the gates above, imminent DRAM work only bounds
	// the skip: core and interconnect edges strictly before the next DRAM
	// work edge are still credited, which is where memory-bound phases
	// (every warp parked on an outstanding fetch) win their wall-clock.
	dramNow := s.sched.Cycles(timing.DomainDRAM)
	kDram := never
	for j := range s.mcs {
		w := l.dramWake[j]
		if w == never {
			continue
		}
		k := uint64(0)
		if w > dramNow+1 {
			k = w - dramNow - 1
		}
		if k < kDram {
			kDram = k
		}
	}

	// The stall watchdog samples at interconnect cycles that are multiples
	// of stallCheckPeriod, fed the loop-top cycle count; the skip must leave
	// those samples exactly where stepping would put them.
	if l.wd != nil {
		if l.wd.Synced(s.progress()) {
			// The recorded window is live: the first sample at or past
			// LastMovement+Window trips (idle windows cannot advance the
			// progress counter). Keep every interconnect edge from that
			// sample's cycle onward un-skipped so the trip — and the domain
			// counters its diagnostic reports — are bit-identical to
			// stepping.
			c := ceilCheck(l.wd.LastMovement() + l.wd.Window)
			if c <= icntNow {
				return
			}
			if b := c - icntNow - 1; b < kIcnt {
				kIcnt = b
			}
		} else {
			// Progress advanced since the last sample, so the next sample
			// resets the window; it must observe the same cycle value under
			// skipping as under stepping.
			if b := ceilCheck(icntNow) - icntNow; b < kIcnt {
				kIcnt = b
			}
		}
	}

	// A completed run exits at the next loop-top done() check without
	// ticking again; skipping past that point would tack idle cycles onto
	// the final counters. Checked this late because it only matters once
	// every horizon is quiescent — busy systems returned above.
	if l.done() {
		return
	}

	// Earliest real-work instant across the domains, capped at the cycle
	// limit's own edge so a cycle-cap verdict lands with every counter
	// unchanged.
	h := s.sched.EdgeFs(timing.DomainInterconnect, l.maxIcnt)
	if kCore != never {
		if t := s.sched.HorizonFs(timing.DomainCore, kCore); t < h {
			h = t
		}
	}
	if kIcnt != never {
		if t := s.sched.HorizonFs(timing.DomainInterconnect, kIcnt); t < h {
			h = t
		}
	}
	if kDram != never {
		if t := s.sched.HorizonFs(timing.DomainDRAM, kDram); t < h {
			h = t
		}
	}
	if h <= s.sched.NextFs() {
		return
	}
	// The skipped idle edges are paid lazily: each component's cred
	// watermark lags the domain counter, and the next real tick, wake event
	// or retirement settles the difference with one skip credit.
	s.sched.SkipTo(h)
}
