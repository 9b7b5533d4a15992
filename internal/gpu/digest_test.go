package gpu

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// schedCase is one scheduler-edge scenario for TestSchedulerDigests.
type schedCase struct {
	name    string
	prof    workload.Profile
	cfg     func(*Config)
	advance []int // per warp, instructions consumed before the core starts
	latency int
}

// schedCases covers the scheduler edges no Table I profile reaches.
func schedCases() []schedCase {
	plain := testProfile()
	plain.Warps = 8
	plain.InstrsPerWarp = 60

	// Four CTAs of four warps with a barrier every 6 instructions (the last
	// at instruction 36). Most warps start part-way through their stream:
	// next to a barrier, past their last one, out of phase with their peers,
	// or (warp 3) with nothing left. Warps therefore run dry while CTA peers
	// wait at a barrier, and that release lands mid-scan, on peers both
	// ahead of and behind the scan position.
	barrier := testProfile()
	barrier.Warps = 16
	barrier.CTAs = 4
	barrier.BarrierEvery = 6
	barrier.InstrsPerWarp = 40
	barrier.MemFraction = 0.5

	// Store-heavy scattered traffic over a working set 1.5x the L1, into a
	// small MSHR table with a merge cap of 2 and a one-entry out-queue: warps
	// collide on in-flight lines, and the core stalls on a full MSHR table, a
	// full merge entry and a write-back holding the out-queue.
	writes := testProfile()
	writes.Warps = 16
	writes.InstrsPerWarp = 40
	writes.MemFraction = 0.7
	writes.WriteFraction = 0.6
	writes.LinesPerMemInstr = 8
	writes.Sequential, writes.Reuse = 0, 0.3
	writes.WorkingSetKB = 24

	return []schedCase{
		{name: "plain", prof: plain, latency: 120},
		{name: "barrier", prof: barrier, latency: 150,
			advance: []int{37, 35, 33, 40, 0, 38, 35, 10, 35, 39, 34, 30, 31, 37, 0, 36}},
		{name: "writes", prof: writes, latency: 200, cfg: func(c *Config) {
			c.MSHRs = 16
			c.MSHRMergeCap = 2
			c.OutQueueCap = 1
		}},
	}
}

// schedDigests pins the per-cycle behaviour of each scenario. They were
// recorded from the original per-cycle warp scan; the ready-mask scheduler
// must reproduce them bit for bit.
var schedDigests = map[string]string{
	"plain/rr":    "1541b906bd282cd4",
	"plain/gto":   "6a50a85ad54a0843",
	"barrier/rr":  "fb8f23097b28bafd",
	"barrier/gto": "92097c5c72a2563e",
	"writes/rr":   "4dfaa8e2225b5b1e",
	"writes/gto":  "b815f4fa83584414",
}

// TestSchedulerDigests hashes, every cycle, the stats, idle horizon, Done
// flag and popped request stream of a core driven by a fixed-latency
// memory, under both schedulers.
func TestSchedulerDigests(t *testing.T) {
	for _, sc := range schedCases() {
		for _, sched := range []struct {
			name string
			s    Scheduler
		}{{"rr", SchedRR}, {"gto", SchedGTO}} {
			id := sc.name + "/" + sched.name
			t.Run(id, func(t *testing.T) {
				gen := workload.MustNewGenerator(sc.prof, 0, 1, 7)
				for w, n := range sc.advance { // in warp order: Next draws from one shared stream
					for i := 0; i < n; i++ {
						gen.Next(w)
					}
				}
				cfg := DefaultConfig()
				cfg.Scheduler = sched.s
				if sc.cfg != nil {
					sc.cfg(&cfg)
				}
				c := MustNew(cfg, gen)
				h := fnv.New64a()
				st := runFixedLatency(t, c, sc.latency, 1_000_000, h)
				got := fmt.Sprintf("%016x", h.Sum64())
				want, ok := schedDigests[id]
				if !ok || got != want {
					t.Errorf("%s: digest %s, want %s (stats %+v)", id, got, want, st)
				}
			})
		}
	}
}
