package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	m := addr.MustNewMapper(addr.Config{})
	c, err := NewController(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run ticks the controller until n requests complete or maxCycles elapse.
func run(t *testing.T, c *Controller, n int, maxCycles int) []Request {
	t.Helper()
	var done []Request
	for i := 0; i < maxCycles && len(done) < n; i++ {
		done = append(done, c.Tick()...)
	}
	if len(done) < n {
		t.Fatalf("only %d/%d requests completed in %d cycles", len(done), n, maxCycles)
	}
	return done
}

func TestNewControllerValidation(t *testing.T) {
	m := addr.MustNewMapper(addr.Config{})
	if _, err := NewController(Config{QueueCapacity: 0, NumBanks: 8}, m); err == nil {
		t.Error("zero queue capacity accepted")
	}
	if _, err := NewController(Config{QueueCapacity: 32, NumBanks: 0}, m); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := NewController(DefaultConfig(), nil); err == nil {
		t.Error("nil mapper accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(Request{Addr: 0, Meta: "r0"})
	done := run(t, c, 1, 200)
	// Cold bank: activate (tRCD=12) + CAS (tCL=9) + burst (4) after issue on
	// cycle 1 => completion around cycle 26. Allow slack for model details.
	tm := DefaultTiming()
	minLat := tm.RCD + tm.CL + tm.Bust
	if c.now < minLat {
		t.Errorf("completed at cycle %d, faster than tRCD+tCL+tBurst=%d", c.now, minLat)
	}
	if done[0].Meta != "r0" {
		t.Errorf("wrong meta: %v", done[0].Meta)
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	// Two requests to the same row complete much sooner than two to
	// different rows of the same bank.
	sameRowCycles := cyclesFor(t, []addr.Address{0, 64})
	sameBankDiffRow := cyclesFor(t, []addr.Address{0, bankStride() * 8}) // same bank, different row
	if sameRowCycles >= sameBankDiffRow {
		t.Errorf("row hit (%d cycles) not faster than row conflict (%d cycles)",
			sameRowCycles, sameBankDiffRow)
	}
}

// bankStride returns the global address stride that advances one full row
// within one MC (local stride rowBytes, times 8 MCs for global).
func bankStride() addr.Address { return 2048 * 8 }

func cyclesFor(t *testing.T, addrs []addr.Address) uint64 {
	t.Helper()
	c := newTestController(t)
	for _, a := range addrs {
		c.Enqueue(Request{Addr: a})
	}
	run(t, c, len(addrs), 1000)
	return c.now
}

func TestBankParallelismBeatsBankConflict(t *testing.T) {
	// 4 requests across 4 banks should finish sooner than 4 row-conflicting
	// requests in one bank.
	var spread, conflict []addr.Address
	for i := 0; i < 4; i++ {
		spread = append(spread, addr.Address(i)*bankStride())                // different banks
		conflict = append(conflict, addr.Address(i)*bankStride()*8+64*8*100) // same bank, different rows
	}
	sc := cyclesFor(t, spread)
	cc := cyclesFor(t, conflict)
	if sc >= cc {
		t.Errorf("bank-parallel (%d) not faster than bank-conflict (%d)", sc, cc)
	}
}

func TestFRFCFSPrioritizesRowHits(t *testing.T) {
	c := newTestController(t)
	// Open row 0 of bank 0 with one request, then enqueue a conflicting
	// request (different row) followed by a row hit; FR-FCFS should finish
	// the row hit before the conflict despite arrival order.
	c.Enqueue(Request{Addr: 0, Meta: "opener"})
	for i := 0; i < 60; i++ {
		c.Tick()
	}
	c.Enqueue(Request{Addr: bankStride() * 8 * 100, Meta: "conflict"}) // same bank, row 100
	c.Enqueue(Request{Addr: 64 * 8, Meta: "hit"})                      // same row as opener
	var order []string
	for i := 0; i < 500 && len(order) < 2; i++ {
		for _, r := range c.Tick() {
			order = append(order, r.Meta.(string))
		}
	}
	if len(order) != 2 || order[0] != "hit" {
		t.Errorf("completion order = %v, want hit before conflict", order)
	}
	if c.Stats().RowHits == 0 {
		t.Error("expected at least one row hit recorded")
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestController(t)
	for i := 0; i < 32; i++ {
		if !c.CanAccept() {
			t.Fatalf("queue refused entry %d", i)
		}
		if !c.Enqueue(Request{Addr: addr.Address(i * 64 * 8)}) {
			t.Fatalf("queue with space rejected entry %d", i)
		}
	}
	if c.CanAccept() {
		t.Error("queue should be full at 32 entries")
	}
	if c.Enqueue(Request{}) {
		t.Error("full queue accepted a request instead of applying backpressure")
	}
	if c.QueueLen() != 32 {
		t.Errorf("refused enqueue changed queue length to %d", c.QueueLen())
	}
}

func TestEfficiencyHigherForSequential(t *testing.T) {
	seq := effFor(t, func(i int) addr.Address { return addr.Address(i * 64) })
	scatter := effFor(t, func(i int) addr.Address {
		// Same bank, new row every request: worst case.
		return addr.Address(i) * bankStride() * 8
	})
	if seq <= scatter {
		t.Errorf("sequential efficiency %v not higher than scattered %v", seq, scatter)
	}
	if seq < 0.3 {
		t.Errorf("sequential efficiency %v unexpectedly low", seq)
	}
}

func effFor(t *testing.T, gen func(i int) addr.Address) float64 {
	t.Helper()
	c := newTestController(t)
	fed, completed := 0, 0
	const total = 200
	for cycle := 0; cycle < 100000 && completed < total; cycle++ {
		if fed < total && c.CanAccept() {
			c.Enqueue(Request{Addr: gen(fed)})
			fed++
		}
		completed += len(c.Tick())
	}
	if completed < total {
		t.Fatalf("only %d/%d completed", completed, total)
	}
	return c.Stats().Efficiency()
}

func TestAllRequestsEventuallyComplete(t *testing.T) {
	// Property: any batch of requests completes, exactly once each.
	f := func(raws []uint32) bool {
		c := MustNewController(DefaultConfig(), addr.MustNewMapper(addr.Config{}))
		want := len(raws)
		if want > 64 {
			raws = raws[:64]
			want = 64
		}
		seen := map[int]int{}
		fed := 0
		got := 0
		for cycle := 0; cycle < 200000 && got < want; cycle++ {
			if fed < want && c.CanAccept() {
				c.Enqueue(Request{Addr: addr.Address(raws[fed]) &^ 63, IsWrite: raws[fed]%3 == 0, Meta: fed})
				fed++
			}
			for _, r := range c.Tick() {
				seen[r.Meta.(int)]++
				got++
			}
		}
		if got != want {
			return false
		}
		for i := 0; i < want; i++ {
			if seen[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounts(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(Request{Addr: 0, IsWrite: false})
	c.Enqueue(Request{Addr: 64, IsWrite: true})
	run(t, c, 2, 1000)
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/1", st.Reads, st.Writes)
	}
	if st.RowHits+st.RowMiss != 2 {
		t.Errorf("row events = %d, want 2", st.RowHits+st.RowMiss)
	}
}

func TestRowLocalityMetric(t *testing.T) {
	var s Stats
	if s.RowLocality() != 0 {
		t.Error("empty locality should be 0")
	}
	s = Stats{RowHits: 3, RowMiss: 1}
	if s.RowLocality() != 0.75 {
		t.Errorf("locality = %v, want 0.75", s.RowLocality())
	}
}

// TestWarmCyclesDoNotAllocate keeps the queue fed with a mix of reads and
// writes and counts every heap allocation over 400 warm cycles: the
// completion batch lives in a buffer the controller reuses across Ticks.
func TestWarmCyclesDoNotAllocate(t *testing.T) {
	c := newTestController(t)
	next := 0
	step := func() {
		for c.CanAccept() {
			c.Enqueue(Request{Addr: addr.Address(next * 64 * 3), IsWrite: next%4 == 0})
			next++
		}
		c.Tick()
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if c.Stats().Reads == 0 {
		t.Fatal("warm-up completed no reads")
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 400; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations over 400 warm DRAM cycles, want 0", allocs)
	}
}
