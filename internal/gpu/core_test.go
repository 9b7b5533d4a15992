package gpu

import (
	"fmt"
	"hash"
	"testing"

	"repro/internal/addr"
	"repro/internal/workload"
)

func testProfile() workload.Profile {
	return workload.Profile{
		Name: "t", Abbr: "T", Class: "HH",
		Warps: 4, InstrsPerWarp: 50, MemFraction: 0.3, WriteFraction: 0.2,
		LinesPerMemInstr: 2, ActiveThreads: 32, WorkingSetKB: 256,
		Sequential: 0.7, Reuse: 0.1,
	}
}

func newTestCore(t *testing.T, p workload.Profile) *Core {
	t.Helper()
	gen, err := workload.NewGenerator(p, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runToCompletion services the core's memory requests with a fixed-latency
// perfect memory and returns the stats.
func runToCompletion(t *testing.T, c *Core, memLatency int, maxCycles int) Stats {
	t.Helper()
	return runFixedLatency(t, c, memLatency, maxCycles, nil)
}

// runFixedLatency is runToCompletion that also writes, when h is non-nil,
// every popped request and the core's per-cycle observable state (Stats,
// NextWorkCycle, Done) to h. It audits the core after every Tick,
// PopRequest and DeliverFill.
func runFixedLatency(t *testing.T, c *Core, memLatency int, maxCycles int, h hash.Hash64) Stats {
	t.Helper()
	type inflight struct {
		line addr.Address
		due  uint64
	}
	var fills []inflight
	for cyc := uint64(1); cyc <= uint64(maxCycles); cyc++ {
		c.Tick()
		auditCore(t, c)
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			auditCore(t, c)
			if h != nil {
				fmt.Fprintf(h, "req %d %d %t\n", cyc, req.Line, req.Write)
			}
			if !req.Write {
				fills = append(fills, inflight{line: req.Line, due: cyc + uint64(memLatency)})
			}
		}
		kept := fills[:0]
		for _, f := range fills {
			if f.due <= cyc {
				c.DeliverFill(f.line)
				auditCore(t, c)
			} else {
				kept = append(kept, f)
			}
		}
		fills = kept
		if h != nil {
			fmt.Fprintf(h, "%+v %d %t\n", c.Stats(), c.NextWorkCycle(), c.Done())
		}
		if c.Done() {
			return c.Stats()
		}
	}
	t.Fatalf("core did not finish in %d cycles (warps idle=%v, mshr=%d, outQ=%d)",
		maxCycles, c.allWarpsIdle(), c.mshr.InFlight(), c.outQ.Len())
	return Stats{}
}

// auditCore checks the core's incremental bookkeeping against a linear
// recomputation: the ready mask, the running outstanding total and the
// generator's count of finished warps.
func auditCore(t *testing.T, c *Core) {
	t.Helper()
	var ready uint32
	outstanding, allDone := 0, true
	for w := range c.warps {
		if c.warps[w].ready() {
			ready |= 1 << w
		}
		outstanding += c.warps[w].outstanding
		allDone = allDone && c.gen.Done(w)
	}
	if c.ready != ready || c.outstanding != outstanding || c.gen.AllDone() != allDone {
		t.Fatalf("cycle %d: ready mask %#x, want %#x; outstanding %d, want %d; AllDone %v, want %v",
			c.stats.Cycles, c.ready, ready, c.outstanding, outstanding, c.gen.AllDone(), allDone)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.WarpSize = 0 },
		func(c *Config) { c.SIMDWidth = 5 }, // 32 % 5 != 0
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.OutQueueCap = 0 },
		func(c *Config) { c.L1.Ways = 0 },
	}
	for i, m := range bad {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCoreCompletesAllInstructions(t *testing.T) {
	c := newTestCore(t, testProfile())
	st := runToCompletion(t, c, 100, 200000)
	want := uint64(4 * 50)
	if st.WarpInstrs != want {
		t.Errorf("warp instrs = %d, want %d", st.WarpInstrs, want)
	}
	if st.ScalarInstrs != want*32 {
		t.Errorf("scalar instrs = %d, want %d", st.ScalarInstrs, want*32)
	}
}

func TestIssueRateCap(t *testing.T) {
	// A pure-compute kernel issues at most one warp instr per 4 cycles.
	p := testProfile()
	p.MemFraction = 0
	c := newTestCore(t, p)
	st := runToCompletion(t, c, 1, 100000)
	// 200 warp instrs at 1 per 4 cycles: first at cycle 1, last at 4*199+1.
	if st.Cycles < 4*(st.WarpInstrs-1)+1 {
		t.Errorf("issued %d warp instrs in %d cycles; cap is 1 per 4",
			st.WarpInstrs, st.Cycles)
	}
	if got := st.IPC(); got > 8.05 {
		t.Errorf("IPC %v exceeds peak 8 scalar/cycle", got)
	}
}

func TestLatencyHidingWithManyWarps(t *testing.T) {
	// More warps hide memory latency better: IPC must improve.
	few := testProfile()
	few.Warps = 2
	many := testProfile()
	many.Warps = 24
	cf := newTestCore(t, few)
	cm := newTestCore(t, many)
	ipcFew := runToCompletion(t, cf, 200, 500000).IPC()
	ipcMany := runToCompletion(t, cm, 200, 500000).IPC()
	if ipcMany <= ipcFew {
		t.Errorf("24 warps IPC %v not above 2 warps IPC %v", ipcMany, ipcFew)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// With few warps, higher memory latency must reduce IPC.
	p := testProfile()
	p.Warps = 2
	fast := runToCompletion(t, newTestCore(t, p), 20, 500000).IPC()
	slow := runToCompletion(t, newTestCore(t, p), 400, 2000000).IPC()
	if slow >= fast {
		t.Errorf("IPC at 400-cycle memory (%v) not below 20-cycle (%v)", slow, fast)
	}
}

func TestWritebacksEmitted(t *testing.T) {
	// A write-heavy kernel with an L1-overflowing working set must emit
	// write-back requests.
	p := testProfile()
	p.WriteFraction = 1.0
	p.MemFraction = 0.8
	p.Sequential, p.Reuse = 1.0, 0
	p.WorkingSetKB = 256 // 16x the L1
	gen := workload.MustNewGenerator(p, 0, 1, 2)
	c := MustNew(DefaultConfig(), gen)
	writes := 0
	var fills []addr.Address
	for cyc := 0; cyc < 300000 && !c.Done(); cyc++ {
		c.Tick()
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			if req.Write {
				writes++
			} else {
				fills = append(fills, req.Line)
			}
		}
		for _, l := range fills {
			c.DeliverFill(l)
		}
		fills = fills[:0]
	}
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if writes == 0 {
		t.Error("no write-backs emitted by write-heavy kernel")
	}
}

func TestEndOfKernelFlush(t *testing.T) {
	// A small working set that fits in L1 only writes back at the flush.
	p := testProfile()
	p.WriteFraction = 1.0
	p.MemFraction = 0.5
	p.WorkingSetKB = 8 // fits in 16KB L1
	p.Sequential, p.Reuse = 1.0, 0
	gen := workload.MustNewGenerator(p, 0, 1, 3)
	c := MustNew(DefaultConfig(), gen)
	writes := 0
	var fills []addr.Address
	for cyc := 0; cyc < 300000 && !c.Done(); cyc++ {
		c.Tick()
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			if req.Write {
				writes++
			} else {
				fills = append(fills, req.Line)
			}
		}
		for _, l := range fills {
			c.DeliverFill(l)
		}
		fills = fills[:0]
	}
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if writes == 0 {
		t.Error("flush produced no write-backs for dirty resident lines")
	}
}

func TestMSHRMergingReducesRequests(t *testing.T) {
	// High-reuse traffic with many warps should merge misses: fewer read
	// requests than line accesses.
	p := testProfile()
	p.Warps = 16
	p.MemFraction = 0.6
	p.Sequential, p.Reuse = 0.0, 0.9
	gen := workload.MustNewGenerator(p, 0, 1, 4)
	c := MustNew(DefaultConfig(), gen)
	reads := 0
	var fills []addr.Address
	delay := 0
	for cyc := 0; cyc < 500000 && !c.Done(); cyc++ {
		c.Tick()
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			if !req.Write {
				reads++
				fills = append(fills, req.Line)
			}
		}
		// Delay fills to leave misses outstanding for merging.
		if delay++; delay%50 == 0 {
			for _, l := range fills {
				c.DeliverFill(l)
			}
			fills = fills[:0]
		}
	}
	for _, l := range fills {
		c.DeliverFill(l)
	}
	for cyc := 0; cyc < 1000 && !c.Done(); cyc++ {
		c.Tick()
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			if !req.Write {
				c.DeliverFill(req.Line)
			}
		}
	}
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if uint64(reads) >= c.Stats().LineAccesses {
		t.Errorf("reads %d not below line accesses %d: no L1 hits or merges",
			reads, c.Stats().LineAccesses)
	}
}

func TestOutQueueBackpressureStallsCore(t *testing.T) {
	// If requests are never drained, the core must stall rather than grow
	// its queues without bound.
	p := testProfile()
	p.MemFraction = 0.9
	p.Sequential, p.Reuse = 1.0, 0
	gen := workload.MustNewGenerator(p, 0, 1, 5)
	cfg := DefaultConfig()
	cfg.OutQueueCap = 4
	c := MustNew(cfg, gen)
	for cyc := 0; cyc < 5000; cyc++ {
		c.Tick()
	}
	if c.outQ.Len() > cfg.OutQueueCap {
		t.Errorf("out queue grew to %d despite cap %d", c.outQ.Len(), cfg.OutQueueCap)
	}
	if c.Done() {
		t.Error("core finished without any memory service")
	}
	if c.Stats().MemStallFull == 0 {
		t.Error("no memory stalls recorded under backpressure")
	}
}

func TestDirtyFillAfterStoreMiss(t *testing.T) {
	// A store miss must install the line dirty so it writes back later.
	p := testProfile()
	p.Warps = 1
	p.InstrsPerWarp = 1
	p.MemFraction = 1.0
	p.WriteFraction = 1.0
	p.LinesPerMemInstr = 1
	p.Sequential, p.Reuse = 1.0, 0
	gen := workload.MustNewGenerator(p, 0, 1, 6)
	c := MustNew(DefaultConfig(), gen)
	var line addr.Address
	for cyc := 0; cyc < 100; cyc++ {
		c.Tick()
		if req, ok := c.PopRequest(); ok {
			if req.Write {
				t.Fatal("store miss should fetch (read) first")
			}
			line = req.Line
			c.DeliverFill(line)
			break
		}
	}
	// Drain: kernel flush must now write the dirty line back.
	sawWB := false
	for cyc := 0; cyc < 1000 && !c.Done(); cyc++ {
		c.Tick()
		if req, ok := c.PopRequest(); ok && req.Write && req.Line == line {
			sawWB = true
		}
	}
	if !sawWB {
		t.Error("dirty line from store miss never written back")
	}
}

func TestBarrierSynchronizesCTA(t *testing.T) {
	// Two CTAs of 2 warps, barrier every 10 instructions. With a slow
	// memory, warps drift; barriers must still all release and the kernel
	// must finish.
	p := testProfile()
	p.Warps = 4
	p.CTAs = 2
	p.BarrierEvery = 10
	p.InstrsPerWarp = 60
	gen := workload.MustNewGenerator(p, 0, 1, 8)
	c := MustNew(DefaultConfig(), gen)
	st := runToCompletion(t, c, 150, 500000)
	if st.Barriers == 0 {
		t.Fatal("no barrier instructions issued")
	}
	// 5 barriers per warp (instrs 10,20,30,40,50) x 4 warps.
	if st.Barriers != 20 {
		t.Errorf("barriers = %d, want 20", st.Barriers)
	}
	if st.WarpInstrs != 4*60 {
		t.Errorf("warp instrs = %d, want 240", st.WarpInstrs)
	}
}

func TestBarrierActuallyBlocks(t *testing.T) {
	// One CTA of 2 warps; warp progress may never diverge past a barrier
	// boundary. Observe by checking issue interleaving: when one warp
	// stalls on memory before its barrier, the other cannot run ahead into
	// the next barrier interval's instructions... approximated by checking
	// total completion still happens and barrier count matches.
	p := testProfile()
	p.Warps = 2
	p.CTAs = 1
	p.BarrierEvery = 5
	p.InstrsPerWarp = 20
	p.MemFraction = 0.5
	gen := workload.MustNewGenerator(p, 0, 1, 9)
	c := MustNew(DefaultConfig(), gen)
	st := runToCompletion(t, c, 300, 500000)
	if st.Barriers != 2*3 {
		t.Errorf("barriers = %d, want 6", st.Barriers)
	}
}

func TestBarrierProfileValidation(t *testing.T) {
	p := testProfile()
	p.BarrierEvery = 10 // without CTAs
	if err := p.Validate(); err == nil {
		t.Error("barriers without CTAs accepted")
	}
	p = testProfile()
	p.Warps = 4
	p.CTAs = 3 // does not divide 4
	if err := p.Validate(); err == nil {
		t.Error("non-dividing CTA count accepted")
	}
}

func TestGTOSchedulerCompletes(t *testing.T) {
	p := testProfile()
	gen := workload.MustNewGenerator(p, 0, 1, 10)
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	c := MustNew(cfg, gen)
	st := runToCompletion(t, c, 120, 500000)
	if st.WarpInstrs != uint64(p.Warps*p.InstrsPerWarp) {
		t.Errorf("GTO issued %d warp instrs, want %d", st.WarpInstrs, p.Warps*p.InstrsPerWarp)
	}
}

func TestGTOGreedyOnComputeKernel(t *testing.T) {
	// On a pure-compute kernel GTO drains one warp completely before the
	// next: verify via the generator's warp completion order being biased
	// (warp 0 finishes among the first issues).
	p := testProfile()
	p.MemFraction = 0
	p.Warps = 4
	p.InstrsPerWarp = 10
	gen := workload.MustNewGenerator(p, 0, 1, 11)
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	c := MustNew(cfg, gen)
	for i := 0; i < 50*4*10 && !gen.Done(0); i++ {
		c.Tick()
	}
	if !gen.Done(0) {
		t.Fatal("warp 0 did not finish first under GTO")
	}
	if gen.Done(3) {
		t.Error("warp 3 finished before warp 0's stream drained: not greedy")
	}
}
