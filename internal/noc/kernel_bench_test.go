package noc

import (
	"fmt"
	"testing"
)

// BenchmarkCycleKernel measures the steady-state cost of one interconnect
// cycle (one op = one Tick) under a closed-loop request/reply protocol:
// every compute node keeps a fixed number of read requests outstanding to
// the memory-controller tiles, and each MC echoes a 4-flit reply. The
// harness itself is allocation-free (packet pool, preallocated backlogs),
// so allocs/op isolates the cycle kernel's own heap traffic — the number
// the allocation-free refactor drives to zero.
//
// Capture before/after numbers with scripts/bench.sh (emits BENCH_<date>.json).
func BenchmarkCycleKernel(b *testing.B) {
	b.Run("low-load", func(b *testing.B) { benchMeshKernel(b, DefaultConfig(), 1) })
	b.Run("high-load", func(b *testing.B) { benchMeshKernel(b, DefaultConfig(), 8) })
	b.Run("checkerboard", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.Checkerboard = true
		cfg.Routing = RoutingCheckerboard
		cfg.NumVCs = 4
		cfg.MCs = CheckerboardPlacement(6, 6, 8)
		cfg.MCInjPorts = 2
		benchMeshKernel(b, cfg, 4)
	})
	// The channel-sliced pairs of §IV-C: dedicated (requests on slice 0,
	// replies on slice 1) and load-balanced. Delivered merges the slices'
	// batches, so these rows keep the 0 allocs/op gate on that path too.
	b.Run("double", func(b *testing.B) {
		d := MustNewDouble(DefaultConfig())
		benchCycleKernel(b, d, d.Subnet(ClassRequest).Backend(), 8)
	})
	b.Run("double-balanced", func(b *testing.B) {
		d := MustNewDoubleBalanced(DefaultConfig())
		benchCycleKernel(b, d, d.Subnet(ClassRequest).Backend(), 8)
	})
	// Convergence tail: the network drains after a burst, so most tiles are
	// idle most cycles — the case active-component lists exist for.
	b.Run("drain-tail", func(b *testing.B) { benchDrainTail(b, DefaultConfig()) })
}

// BenchmarkShardedKernel measures the column-band sharded cycle kernel
// against its own serial baseline: the same closed-loop workload at 1, 2 and
// 4 shards on a small and a large mesh. Sub-benchmark names end in -s<N> so
// cmd/benchjson can derive a speedup_vs_s1 metric for each sharded row in
// the capture. On a single-core host the sharded rows measure pure
// coordination overhead (goroutine dispatch + epilogue); the speedup only
// materialises when GOMAXPROCS gives the shard workers real CPUs.
func BenchmarkShardedKernel(b *testing.B) {
	small := DefaultConfig()
	large := DefaultConfig()
	large.Width, large.Height = 12, 12
	large.MCs = TopBottomPlacement(12, 12, 8)
	for _, mesh := range []struct {
		name string
		cfg  Config
	}{
		{"small-6x6", small},
		{"large-12x12", large},
	} {
		for _, shards := range []int{1, 2, 4} {
			cfg := mesh.cfg
			cfg.Shards = shards
			b.Run(fmt.Sprintf("%s-s%d", mesh.name, shards), func(b *testing.B) {
				benchMeshKernel(b, cfg, 8)
			})
		}
	}
}

// BenchmarkBackendKernel measures the cycle kernel across the topology
// backends at two scales — the paper's 6×6 and a 12×12 stress geometry —
// under the same closed-loop request/reply protocol. Identical harness,
// identical load, so the rows compare what a tick costs on each substrate
// (and keep the 0 allocs/op gate honest on every backend's hot path).
func BenchmarkBackendKernel(b *testing.B) {
	backendCfg := func(kind BackendKind, w, h int) Config {
		cfg := DefaultConfig()
		if w != 6 || h != 6 {
			cfg.Width, cfg.Height = w, h
			cfg.MCs = TopBottomPlacement(w, h, 8)
		}
		switch kind {
		case BackendRing:
			cfg.Topology = BackendRing
			cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 4, 4, 2
		case BackendBaseJump:
			cfg.Topology = BackendBaseJump
			cfg.FlitBytes, cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 64, 2, 2, 2
		}
		return cfg
	}
	for _, kind := range []BackendKind{BackendMesh, BackendRing, BackendBaseJump} {
		for _, dim := range []struct{ w, h int }{{6, 6}, {12, 12}} {
			cfg := backendCfg(kind, dim.w, dim.h)
			b.Run(fmt.Sprintf("%s-%dx%d", kind, dim.w, dim.h), func(b *testing.B) {
				benchMeshKernel(b, cfg, 4)
			})
		}
	}
}

// BenchmarkLaneKernel measures the lane-batched cycle kernel on every
// topology backend: one op advances a LaneSet of L seed replicas by one
// cycle under the closed-loop request/reply protocol, so the -l4 rows cost
// roughly 4× the -l1 rows in ns/op while sharing a single Backend (route
// tables and geometry built once). Sub-benchmark names end in -l<N> so
// cmd/benchjson derives a per-lane speedup_vs_l1 metric. The harness is
// allocation-free like benchCycleKernel, keeping the 0 allocs/op gate
// honest on the lane hot path.
func BenchmarkLaneKernel(b *testing.B) {
	backendCfg := func(kind BackendKind) Config {
		cfg := DefaultConfig()
		switch kind {
		case BackendRing:
			cfg.Topology = BackendRing
			cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 4, 4, 2
		case BackendBaseJump:
			cfg.Topology = BackendBaseJump
			cfg.FlitBytes, cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 64, 2, 2, 2
		}
		return cfg
	}
	for _, kind := range []BackendKind{BackendMesh, BackendRing, BackendBaseJump} {
		for _, lanes := range []int{1, 4} {
			cfg := backendCfg(kind)
			b.Run(fmt.Sprintf("%s-l%d", kind, lanes), func(b *testing.B) {
				benchLaneKernel(b, cfg, lanes, 4)
			})
		}
	}
}

// benchLaneKernel drives a LaneSet with `outstanding` requests in flight
// per compute node per lane, warms every lane to steady state, then times
// b.N lockstep ticks.
func benchLaneKernel(b *testing.B, cfg Config, lanes, outstanding int) {
	ls := MustNewLaneSet(cfg, lanes)
	hs := make([]*reqReply, lanes)
	for l := range hs {
		hs[l] = newReqReply(ls.Lane(l), ls.Backend(), outstanding)
	}
	tick := func() {
		for _, h := range hs {
			h.offer()
		}
		ls.Tick()
	}
	for i := 0; i < 3000; i++ { // warm every lane to steady state
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	var hops, cycles uint64
	for l := 0; l < lanes; l++ {
		st := ls.Lane(l).Stats()
		hops += st.FlitHops
		cycles = st.Cycles
	}
	if cycles > 0 {
		b.ReportMetric(float64(hops)/float64(cycles), "hops/cycle")
	}
}

// reqReply is the closed-loop request/reply protocol the kernel benchmarks
// and the allocator digests drive: every compute node keeps `outstanding`
// 8-byte read requests in flight to the MC tiles (round-robin), and each MC
// answers every request with a 64-byte reply from a backlog preallocated to
// the in-flight bound. With the packet pool, the harness never allocates in
// steady state, so allocs/op isolates the cycle kernel's own heap traffic.
type reqReply struct {
	net         Network
	comp, mcs   []NodeID
	outstanding int
	pool        PacketPool
	inflight    []int
	backlog     [][]*Packet
	rr          int

	// onDeliver, when set, observes every delivered packet (MC requests,
	// then compute-node replies) before it returns to the pool.
	onDeliver func(node NodeID, p *Packet)
}

func newReqReply(net Network, backend Backend, outstanding int) *reqReply {
	h := &reqReply{
		net:         net,
		comp:        backend.ComputeNodes(),
		mcs:         backend.MCs(),
		outstanding: outstanding,
	}
	h.inflight = make([]int, len(h.comp))
	h.backlog = make([][]*Packet, len(h.mcs))
	for i := range h.backlog {
		h.backlog[i] = make([]*Packet, 0, outstanding*len(h.comp))
	}
	return h
}

// offer runs one cycle of the protocol's endpoints: top up every compute
// node's requests, turn MC deliveries into queued replies and inject them,
// and retire delivered replies. The caller ticks the network.
func (h *reqReply) offer() {
	m := h.net
	for i, c := range h.comp {
		for h.inflight[i] < h.outstanding {
			p := h.pool.Get()
			p.Src, p.Dst = c, h.mcs[h.rr%len(h.mcs)]
			p.Class, p.Bytes = ClassRequest, 8
			p.Line = uint64(i) // requester index rides in the typed payload
			h.rr++
			if !m.TryInject(p) {
				h.pool.Put(p)
				break
			}
			h.inflight[i]++
		}
	}
	for j, mc := range h.mcs {
		for _, pkt := range m.Delivered(mc) {
			if h.onDeliver != nil {
				h.onDeliver(mc, pkt)
			}
			r := h.pool.Get()
			r.Src, r.Dst = mc, pkt.Src
			r.Class, r.Bytes = ClassReply, 64
			r.Line = pkt.Line
			h.backlog[j] = append(h.backlog[j], r)
			h.pool.Put(pkt)
		}
		q := h.backlog[j]
		n := 0
		for _, r := range q {
			if !m.TryInject(r) {
				break
			}
			n++
		}
		h.backlog[j] = q[:copy(q, q[n:])]
	}
	for _, c := range h.comp {
		for _, pkt := range m.Delivered(c) {
			if h.onDeliver != nil {
				h.onDeliver(c, pkt)
			}
			h.inflight[pkt.Line]--
			h.pool.Put(pkt)
		}
	}
}

// benchCycleKernel drives net with `outstanding` requests in flight per
// compute node, warms the queues to steady state, then times b.N ticks.
func benchCycleKernel(b *testing.B, net Network, backend Backend, outstanding int) {
	h := newReqReply(net, backend, outstanding)
	tick := func() {
		h.offer()
		net.Tick()
	}
	for i := 0; i < 3000; i++ { // warm to steady state
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	st := net.Stats()
	if st.Cycles > 0 {
		b.ReportMetric(float64(st.FlitHops)/float64(st.Cycles), "hops/cycle")
	}
}

// benchMeshKernel is benchCycleKernel on a single network built from cfg.
func benchMeshKernel(b *testing.B, cfg Config, outstanding int) {
	m := MustNewMesh(cfg)
	benchCycleKernel(b, m, m.Backend(), outstanding)
}

// benchDrainTail times the idle-dominated convergence tail: a short burst of
// traffic, then ticks on a draining (and eventually empty) network.
func benchDrainTail(b *testing.B, cfg Config) {
	m := MustNewMesh(cfg)
	backend := m.Backend()
	comp := backend.ComputeNodes()
	mcs := backend.MCs()
	var pool PacketPool
	for i, c := range comp {
		p := pool.Get()
		p.Src, p.Dst = c, mcs[i%len(mcs)]
		p.Class, p.Bytes = ClassRequest, 8
		m.TryInject(p)
	}
	drain := func() {
		for _, n := range backend.MCs() {
			for _, pkt := range m.Delivered(n) {
				pool.Put(pkt)
			}
		}
	}
	for i := 0; i < 200 && !m.Quiet(); i++ { // let the burst drain
		m.Tick()
		drain()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}
