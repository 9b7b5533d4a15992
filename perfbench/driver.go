package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/timing"
	"repro/internal/workload"
)

// The traced driver is core.System.Run reassembled from the exported parts
// (timing.Scheduler, gpu.Core, mem.MCNode, the noc.Network from noc.NewMesh
// or noc.NewDouble, addr.Mapper, workload.NewGenerator, noc.PacketPool) in
// the same step order and with the same idle skip, so that every group of
// calls can be timed from outside the program. Its Result and NetStats
// must equal core.Run's for the same config and seed; the benchmark checks
// that on every traced run.

// Same constants as internal/core: changing either there changes results,
// which the equality check against core.Run catches.
const (
	defaultMaxIcntCycles = 30_000_000
	stallCheckPeriod     = 64
	ctxCheckPeriod       = 256
)

// tracedSystem mirrors core.System field for field.
type tracedSystem struct {
	cfg       core.Config
	sched     *timing.Scheduler
	net       noc.Network
	mapper    *addr.Mapper
	cores     []*gpu.Core
	coreNodes []noc.NodeID
	mcs       []*mem.MCNode
	mcNodes   []noc.NodeID
	pool      noc.PacketPool
	coreQuiet []bool

	tr      *runTrace
	arrived []*noc.Packet // per-tick delivery batch, reused
	last    time.Time     // end of the previous timed group
}

// mark charges the time since the previous mark to span sp.
func (s *tracedSystem) mark(sp span) {
	now := time.Now()
	s.tr.ns[sp] += int64(now.Sub(s.last))
	s.tr.calls[sp]++
	s.last = now
}

// newTracedSystem assembles the system the way core.NewSystem does. Only
// the cycle-level networks are supported: the ideal networks have no
// routers to trace.
func newTracedSystem(cfg core.Config, tr *runTrace) (*tracedSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := timing.NewScheduler(cfg.Clocks.CoreMHz, cfg.Clocks.IcntMHz, cfg.Clocks.DRAMMHz)
	if err != nil {
		return nil, err
	}
	cfg.Noc.Shards = core.ResolveShards(cfg.Shards)
	s := &tracedSystem{cfg: cfg, sched: sched, tr: tr}

	var backend noc.Backend
	switch cfg.Net {
	case core.NetMesh:
		m, err := noc.NewMesh(cfg.Noc)
		if err != nil {
			return nil, err
		}
		s.net, backend = m, m.Backend()
	case core.NetDouble:
		d, err := noc.NewDouble(cfg.Noc)
		if err != nil {
			return nil, err
		}
		s.net, backend = d, d.Subnet(noc.ClassRequest).Backend()
	default:
		return nil, fmt.Errorf("traced driver: network kind %v is not traced", cfg.Net)
	}

	s.mapper, err = addr.NewMapper(addr.Config{
		NumMCs:     len(cfg.Noc.MCs),
		LineBytes:  uint64(cfg.Core.L1.LineBytes),
		BanksPerMC: uint64(cfg.Mem.DRAM.NumBanks),
	})
	if err != nil {
		return nil, err
	}
	computeNodes := backend.ComputeNodes()
	for i, node := range computeNodes {
		gen, err := workload.NewGenerator(cfg.Workload, i, len(computeNodes), cfg.Seed)
		if err != nil {
			return nil, err
		}
		c, err := gpu.New(cfg.Core, gen)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
		s.coreNodes = append(s.coreNodes, node)
	}
	s.coreQuiet = make([]bool, len(s.cores))
	for _, node := range backend.MCs() {
		mc, err := mem.New(cfg.Mem, node, s.mapper)
		if err != nil {
			return nil, err
		}
		mc.SetPool(&s.pool)
		s.mcs = append(s.mcs, mc)
		s.mcNodes = append(s.mcNodes, node)
	}
	return s, nil
}

// tracedRun builds and runs cfg through the traced driver, filling tr.
func tracedRun(ctx context.Context, cfg core.Config, tr *runTrace) (core.Result, error) {
	t0 := time.Now()
	s, err := newTracedSystem(cfg, tr)
	if err != nil {
		return core.Result{}, err
	}
	tr.ns[spanNewSystem] += int64(time.Since(t0))
	tr.calls[spanNewSystem]++
	res, err := s.run(ctx)
	tr.result = res
	tr.net = s.net.Stats()
	tr.rowLocality, tr.dramQueue = s.dramLocality()
	for _, c := range s.cores {
		st := c.Stats()
		tr.issueStalls += st.IssueStalls
		tr.memStallFull += st.MemStallFull
	}
	tr.cores = uint64(len(s.cores))
	return res, err
}

// statusOf mirrors core's mapping of a run error to Result.Status.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fault.ErrCycleCap):
		return "cycle-cap"
	case errors.Is(err, fault.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, fault.ErrLivelock):
		return "livelock"
	case errors.Is(err, fault.ErrStall):
		return "stall"
	case errors.Is(err, fault.ErrInvariant):
		return "invariant"
	case errors.Is(err, fault.ErrTimeout):
		return "timeout"
	case errors.Is(err, fault.ErrCanceled):
		return "canceled"
	}
	return "error"
}

func (s *tracedSystem) hang(cond error, kind string) error {
	return fault.Hang(cond, &fault.Diagnostic{Kind: kind, Cycle: s.sched.Cycles(timing.DomainInterconnect)})
}

// run is core.System.Run with every group of calls timed.
func (s *tracedSystem) run(ctx context.Context) (core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxIcnt := s.cfg.MaxIcntCycles
	if maxIcnt == 0 {
		maxIcnt = defaultMaxIcntCycles
	}
	var wd *fault.Watchdog
	if s.cfg.Noc.Fault.Monitored() {
		wd = fault.NewWatchdog(s.cfg.Noc.Fault.WatchdogCycles)
	}
	buf := make([]timing.Domain, 0, 3)
	skip := !s.cfg.NoIdleSkip
	var runErr error
	timedOut := false
	loopStart := time.Now()
	s.last = loopStart
	for !s.done() {
		icnt := s.sched.Cycles(timing.DomainInterconnect)
		if icnt >= maxIcnt {
			timedOut = true
			runErr = s.hang(fault.ErrCycleCap, "cycle-cap")
			break
		}
		if icnt%ctxCheckPeriod == 0 {
			if cerr := ctx.Err(); cerr != nil {
				cond := fault.ErrCanceled
				if errors.Is(cerr, context.DeadlineExceeded) {
					cond = fault.ErrTimeout
				}
				runErr = s.hang(cond, statusOf(cond))
				break
			}
		}
		s.last = time.Now()
		buf = s.sched.Step(buf)
		s.mark(spanStep)
		icntTicked := false
		for _, d := range buf {
			switch d {
			case timing.DomainCore:
				for _, c := range s.cores {
					c.Tick()
				}
				s.mark(spanGPUTick)
			case timing.DomainInterconnect:
				s.icntTick()
				icntTicked = true
			case timing.DomainDRAM:
				for _, mc := range s.mcs {
					mc.TickDRAM()
				}
				s.mark(spanDRAMTick)
			}
		}
		if err := s.net.Health(); err != nil {
			runErr = err
			break
		}
		if wd != nil && icnt%stallCheckPeriod == 0 &&
			wd.Observe(icnt, s.progress(), 1) {
			runErr = s.hang(fault.ErrStall, "stall")
			break
		}
		if skip && icntTicked {
			s.tr.skipAttempts++
			s.last = time.Now()
			s.maybeSkip(wd, maxIcnt)
		}
	}
	s.tr.ns[spanLoop] += int64(time.Since(loopStart))
	s.tr.calls[spanLoop]++
	res := s.result(timedOut)
	res.Status = statusOf(runErr)
	return res, runErr
}

// maybeSkip is core.System.maybeSkip with the horizon scans of each
// component and the skip itself timed. The caller has set s.last.
func (s *tracedSystem) maybeSkip(wd *fault.Watchdog, maxIcnt uint64) {
	const never = noc.NeverCycle

	coreNow := s.sched.Cycles(timing.DomainCore)
	kCore := never
	for i, c := range s.cores {
		if _, ok := c.PeekRequest(); ok {
			s.mark(spanGPUHorizon)
			return
		}
		if s.coreQuiet[i] {
			continue
		}
		w := c.NextWorkCycle()
		if w == gpu.NeverCycle {
			s.coreQuiet[i] = true
			continue
		}
		if w <= coreNow+1 {
			s.mark(spanGPUHorizon)
			return
		}
		if k := w - coreNow - 1; k < kCore {
			kCore = k
		}
	}
	s.mark(spanGPUHorizon)

	icntNow := s.sched.Cycles(timing.DomainInterconnect)
	kIcnt := never
	if w := s.net.NextWorkCycle(); w != never {
		if w <= icntNow+1 {
			s.mark(spanNoCHorizon)
			return
		}
		kIcnt = w - icntNow - 1
	}
	s.mark(spanNoCHorizon)
	for _, mc := range s.mcs {
		w := mc.NextIcntWorkCycle(icntNow)
		if w == mem.NeverCycle {
			continue
		}
		if w <= icntNow {
			s.mark(spanMemHorizon)
			return
		}
		if k := w - icntNow; k < kIcnt {
			kIcnt = k
		}
	}
	s.mark(spanMemHorizon)

	dramNow := s.sched.Cycles(timing.DomainDRAM)
	kDram := never
	for _, mc := range s.mcs {
		w := mc.NextDRAMWorkCycle()
		if w == mem.NeverCycle {
			continue
		}
		if k := w - dramNow - 1; k < kDram {
			kDram = k
		}
	}
	s.mark(spanDRAMHorizon)

	if wd != nil {
		if wd.Synced(s.progress()) {
			c := ceilCheck(wd.LastMovement() + wd.Window)
			if c <= icntNow {
				return
			}
			if b := c - icntNow - 1; b < kIcnt {
				kIcnt = b
			}
		} else {
			if b := ceilCheck(icntNow) - icntNow; b < kIcnt {
				kIcnt = b
			}
		}
	}
	if s.done() {
		return
	}

	h := s.sched.EdgeFs(timing.DomainInterconnect, maxIcnt)
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
	s.last = time.Now()
	credits := s.sched.SkipTo(h)
	if n := credits[timing.DomainCore]; n > 0 {
		for _, c := range s.cores {
			c.SkipAhead(n)
		}
	}
	if n := credits[timing.DomainInterconnect]; n > 0 {
		s.net.SkipAhead(n)
		for _, mc := range s.mcs {
			mc.SkipIcnt(n)
		}
	}
	if n := credits[timing.DomainDRAM]; n > 0 {
		for _, mc := range s.mcs {
			mc.SkipDRAM(n)
		}
	}
	s.mark(spanSkip)
	s.tr.skipsTaken++
	s.tr.skipped[timing.DomainCore] += credits[timing.DomainCore]
	s.tr.skipped[timing.DomainInterconnect] += credits[timing.DomainInterconnect]
	s.tr.skipped[timing.DomainDRAM] += credits[timing.DomainDRAM]
}

func ceilCheck(x uint64) uint64 {
	return (x + stallCheckPeriod - 1) &^ uint64(stallCheckPeriod-1)
}

func (s *tracedSystem) progress() uint64 {
	var total uint64
	for _, c := range s.cores {
		total += c.Progress()
	}
	for _, mc := range s.mcs {
		total += mc.Progress()
	}
	ns := s.net.Stats()
	total += ns.FlitHops
	for _, v := range ns.EjectedFlits {
		total += v
	}
	return total
}

// icntTick is core.System.icntTick split into its timed groups: core
// requests enter the network, MCs process and inject replies, the network
// moves flits, and deliveries fan back out to cores and MCs.
func (s *tracedSystem) icntTick() {
	s.injectCoreRequests()
	s.mark(spanNoCInject)
	cycle := s.net.Cycle()
	for _, mc := range s.mcs {
		mc.TickIcnt(cycle, s.net)
	}
	s.mark(spanMemTickIcnt)
	s.net.Tick()
	s.mark(spanNoCTick)
	s.deliver()
}

func (s *tracedSystem) injectCoreRequests() {
	for i, c := range s.cores {
		for {
			req, ok := c.PeekRequest()
			if !ok {
				break
			}
			pkt := s.packetFor(s.coreNodes[i], req)
			s.tr.injectTries++
			if !s.net.TryInject(pkt) {
				s.tr.injectRefused++
				s.pool.Put(pkt)
				break
			}
			c.PopRequest()
			s.coreQuiet[i] = false
		}
	}
}

func (s *tracedSystem) packetFor(src noc.NodeID, req gpu.MemRequest) *noc.Packet {
	bytes := mem.ReadRequestBytes
	if req.Write {
		bytes = mem.WriteRequestBytes
	}
	pkt := s.pool.Get()
	pkt.Src = src
	pkt.Dst = s.mcNodes[s.mapper.MC(req.Line)]
	pkt.Class = noc.ClassRequest
	pkt.Bytes = bytes
	pkt.Line = uint64(req.Line)
	pkt.Write = req.Write
	return pkt
}

// deliver first drains every node's ejected packets from the network (the
// noc share of delivery), then hands them to the cores and MCs in the same
// node order core.System.deliver uses, so the packet pool sees the same
// sequence of Puts.
func (s *tracedSystem) deliver() {
	batch := s.arrived[:0]
	for _, node := range s.coreNodes {
		batch = append(batch, s.net.Delivered(node)...)
		batch = append(batch, nil) // node separator
	}
	coreEnd := len(batch)
	for _, node := range s.mcNodes {
		batch = append(batch, s.net.Delivered(node)...)
		batch = append(batch, nil)
	}
	s.arrived = batch
	s.mark(spanNoCDeliver)

	idx := 0
	for _, pkt := range batch[:coreEnd] {
		if pkt == nil {
			idx++
			continue
		}
		if pkt.Class != noc.ClassReply {
			panic(fmt.Sprintf("traced driver: compute node %d received non-reply packet %d", s.coreNodes[idx], pkt.ID))
		}
		s.cores[idx].DeliverFill(addr.Address(pkt.Line))
		s.coreQuiet[idx] = false
		s.pool.Put(pkt)
	}
	s.mark(spanGPUDeliver)
	idx = 0
	for _, pkt := range batch[coreEnd:] {
		if pkt == nil {
			idx++
			continue
		}
		s.mcs[idx].AcceptRequest(pkt)
		s.pool.Put(pkt)
	}
	s.mark(spanMemAccept)
}

func (s *tracedSystem) done() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
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

// result mirrors core.System.result.
func (s *tracedSystem) result(timedOut bool) core.Result {
	res := core.Result{
		Benchmark:  s.cfg.Workload.Abbr,
		Config:     s.cfg.Name,
		CoreCycles: s.sched.Cycles(timing.DomainCore),
		IcntCycles: s.sched.Cycles(timing.DomainInterconnect),
		TimedOut:   timedOut,
	}
	var l1Hits, l1Total uint64
	for _, c := range s.cores {
		st := c.Stats()
		res.ScalarInstrs += st.ScalarInstrs
		cs := c.L1Stats()
		l1Hits += cs.Hits
		l1Total += cs.Hits + cs.Misses
	}
	if res.CoreCycles > 0 {
		res.IPC = float64(res.ScalarInstrs) / float64(res.CoreCycles)
	}
	if l1Total > 0 {
		res.L1HitRate = float64(l1Hits) / float64(l1Total)
	}

	ns := s.net.Stats()
	res.AvgNetLatency = ns.NetLatency.Value()
	res.AcceptedBytes = ns.AcceptedBytesPerCycle()
	res.RetxPackets = ns.Retransmits
	res.DroppedPackets = ns.DroppedPackets
	res.AvgRetries = ns.RetriesPerPacket.Mean()
	for _, node := range s.mcNodes {
		res.MCInjRate += ns.InjectionRate(node)
	}
	res.MCInjRate /= float64(len(s.mcNodes))
	for _, node := range s.coreNodes {
		res.CoreInjRate += ns.InjectionRate(node)
	}
	res.CoreInjRate /= float64(len(s.coreNodes))

	var l2Hits, l2Total uint64
	for _, mc := range s.mcs {
		res.MCStallFraction += mc.Stats().StallFraction()
		res.DRAMEfficiency += mc.DRAMStats().Efficiency()
		cs := mc.L2Stats()
		l2Hits += cs.Hits
		l2Total += cs.Hits + cs.Misses
	}
	res.MCStallFraction /= float64(len(s.mcs))
	res.DRAMEfficiency /= float64(len(s.mcs))
	if l2Total > 0 {
		res.L2HitRate = float64(l2Hits) / float64(l2Total)
	}
	return res
}

// dramLocality returns the mean DRAM row-hit rate and queue occupancy
// across channels, as core.System.RowLocality and AvgDRAMQueue do.
func (s *tracedSystem) dramLocality() (rowHit, queue float64) {
	for _, mc := range s.mcs {
		st := mc.DRAMStats()
		rowHit += st.RowLocality()
		if st.TotalQueueSamples > 0 {
			queue += float64(st.QueueOccupancySum) / float64(st.TotalQueueSamples)
		}
	}
	n := float64(len(s.mcs))
	return rowHit / n, queue / n
}
