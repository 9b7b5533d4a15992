package gpu

import (
	"math"
	"testing"

	"repro/internal/addr"
	"repro/internal/ring"
	"repro/internal/workload"
)

// BenchmarkCoreTick measures the steady-state cost of one core cycle (one
// op = one Tick plus its request pops and fill deliveries) on a kernel that
// never ends. Memory is a fixed-latency perfect memory whose replies wait in
// a preallocated ring, so allocs/op isolates the core's own heap traffic.
// LL runs a compute-bound Table I profile (BIN), HH a memory-heavy one
// (FWT); both keep 32 warps resident, the most a core holds.
//
// Capture before/after numbers with scripts/bench.sh (emits BENCH_<date>.json).
func BenchmarkCoreTick(b *testing.B) {
	b.Run("LL", func(b *testing.B) { benchCoreTick(b, "BIN") })
	b.Run("HH", func(b *testing.B) { benchCoreTick(b, "FWT") })
}

func benchCoreTick(b *testing.B, abbr string) {
	const (
		cores      = 28  // the paper's compute-node count, for address interleaving
		memLatency = 300 // core cycles from request pop to fill
		warmup     = 50_000
	)
	p, err := workload.ByAbbr(abbr)
	if err != nil {
		b.Fatal(err)
	}
	p.InstrsPerWarp = math.MaxInt
	cfg := DefaultConfig()
	c := MustNew(cfg, workload.MustNewGenerator(p, 0, cores, 1))
	type reply struct {
		line addr.Address
		due  uint64
	}
	// Each in-flight read holds an MSHR entry, so MSHRs bounds the ring.
	replies := ring.New[reply](cfg.MSHRs, cfg.MSHRs)
	var cyc uint64
	tick := func() {
		cyc++
		c.Tick()
		for req, ok := c.PopRequest(); ok; req, ok = c.PopRequest() {
			if !req.Write {
				replies.Push(reply{line: req.Line, due: cyc + memLatency})
			}
		}
		for replies.Len() > 0 && replies.Front().due <= cyc {
			c.DeliverFill(replies.Pop().line)
		}
	}
	for i := 0; i < warmup; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(st.IPC(), "ipc")
}
