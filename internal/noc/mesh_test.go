package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// runUntilQuiet ticks the network until it drains or maxCycles pass.
func runUntilQuiet(t *testing.T, n Network, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if n.Quiet() {
			return
		}
		n.Tick()
	}
	t.Fatalf("network did not drain within %d cycles", maxCycles)
}

// collectAll drains delivered packets at every node.
func collectAll(n Network, nodes int) []*Packet {
	var out []*Packet
	for id := 0; id < nodes; id++ {
		out = append(out, n.Delivered(NodeID(id))...)
	}
	return out
}

func TestMeshConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.FlitBytes = 0 },
		func(c *Config) { c.NumVCs = 3 },   // not divisible by class split
		func(c *Config) { c.NumVCs = 128 }, // wider than the router's VC masks
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.RouterStages = 0 },
		func(c *Config) { c.MCInjPorts = 0 },
		func(c *Config) { c.SrcQueueCap = 0 },
		func(c *Config) { c.Routing = RoutingCheckerboard }, // without checkerboard mesh
		func(c *Config) { c.Width = 1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewMesh(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewMesh(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestVCPlan(t *testing.T) {
	// Baseline: 2 VCs split by class.
	p, err := buildVCPlan(2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.allowed(ClassRequest, false); len(got) != 1 || got[0] != 0 {
		t.Errorf("request VCs = %v, want [0]", got)
	}
	if got := p.allowed(ClassReply, false); len(got) != 1 || got[0] != 1 {
		t.Errorf("reply VCs = %v, want [1]", got)
	}
	// CR single network: 4 VCs = class × phase.
	p, err = buildVCPlan(4, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"req-xy": {0}, "req-yx": {1}, "reply-xy": {2}, "reply-yx": {3},
	}
	got := map[string][]int{
		"req-xy":   p.allowed(ClassRequest, false),
		"req-yx":   p.allowed(ClassRequest, true),
		"reply-xy": p.allowed(ClassReply, false),
		"reply-yx": p.allowed(ClassReply, true),
	}
	for k, w := range want {
		g := got[k]
		if len(g) != 1 || g[0] != w[0] {
			t.Errorf("%s VCs = %v, want %v", k, g, w)
		}
	}
	// CR needs 4 VCs on a single class-split network.
	if _, err := buildVCPlan(2, true, 2); err == nil {
		t.Error("2 VCs accepted for split CR")
	}
	// Double-network slice: CR with 2 VCs, no class split.
	p, err = buildVCPlan(2, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.allowed(ClassReply, true); len(got) != 1 || got[0] != 1 {
		t.Errorf("YX VCs = %v, want [1]", got)
	}
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	src, dst := m.Topology().Node(0, 2), m.Topology().Node(3, 2) // 3 hops
	p := &Packet{Src: src, Dst: dst, Class: ClassRequest, Bytes: 8}
	if !m.TryInject(p) {
		t.Fatal("inject failed")
	}
	runUntilQuiet(t, m, 1000)
	if p.ArrivedAt == 0 {
		t.Fatal("packet not delivered")
	}
	// 4-stage routers, 1-cycle channels: 5 cycles per hop plus the final
	// router's 4 stages: 3*5 + 4 = 19.
	if got := p.NetworkLatency(); got != 19 {
		t.Errorf("zero-load latency = %d, want 19", got)
	}
	got := m.Delivered(dst)
	if len(got) != 1 || got[0] != p {
		t.Errorf("Delivered = %v", got)
	}
}

func TestSinglePacketAggressiveRouterLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouterStages = 1
	m := MustNewMesh(cfg)
	src, dst := m.Topology().Node(0, 2), m.Topology().Node(3, 2)
	p := &Packet{Src: src, Dst: dst, Class: ClassRequest, Bytes: 8}
	m.TryInject(p)
	runUntilQuiet(t, m, 1000)
	// 1-cycle routers: 2 cycles per hop + final router 1 = 7.
	if got := p.NetworkLatency(); got != 7 {
		t.Errorf("aggressive zero-load latency = %d, want 7", got)
	}
}

func TestMultiFlitSerialization(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	src, dst := m.Topology().Node(0, 2), m.Topology().Node(3, 2)
	p := &Packet{Src: src, Dst: dst, Class: ClassReply, Bytes: 64} // 4 flits
	m.TryInject(p)
	runUntilQuiet(t, m, 1000)
	// Tail trails head by 3 cycles: 19 + 3 = 22.
	if got := p.NetworkLatency(); got != 22 {
		t.Errorf("4-flit latency = %d, want 22", got)
	}
}

func TestDeliveryOrderSameFlow(t *testing.T) {
	// Packets of one class between one src/dst pair must arrive in order.
	cfg := DefaultConfig()
	cfg.SrcQueueCap = 64
	m := MustNewMesh(cfg)
	src, dst := m.Topology().Node(0, 0), m.Topology().Node(5, 5)
	const n = 30
	for i := 0; i < n; i++ {
		p := &Packet{Src: src, Dst: dst, Class: ClassRequest, Bytes: 8, Meta: i}
		if !m.TryInject(p) {
			t.Fatalf("inject %d refused", i)
		}
	}
	runUntilQuiet(t, m, 10000)
	got := m.Delivered(dst)
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, p := range got {
		if p.Meta.(int) != i {
			t.Fatalf("out-of-order delivery: position %d has packet %v", i, p.Meta)
		}
	}
}

func TestSrcQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SrcQueueCap = 2
	m := MustNewMesh(cfg)
	src, dst := m.Topology().Node(0, 0), m.Topology().Node(5, 5)
	accepted := 0
	for i := 0; i < 10; i++ {
		if m.TryInject(&Packet{Src: src, Dst: dst, Class: ClassRequest, Bytes: 8}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("accepted %d packets with queue cap 2", accepted)
	}
	if m.CanInject(src, ClassRequest) {
		t.Error("CanInject true with full queue")
	}
	if !m.CanInject(src, ClassReply) {
		t.Error("reply class should still have space")
	}
}

// crossTraffic drives random compute->MC requests plus MC->compute replies
// and checks complete delivery. Returns mean network latency.
func crossTraffic(t *testing.T, cfg Config, packets int, seed uint64) float64 {
	t.Helper()
	m := MustNewMesh(cfg)
	var net Network = m
	topo := m.Topology()
	rng := xrand.New(seed)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	if len(mcs) == 0 {
		t.Fatal("config has no MCs")
	}
	sent, recv := 0, 0
	for cycle := 0; cycle < 200000 && recv < packets; cycle++ {
		if sent < packets {
			var p *Packet
			if sent%2 == 0 {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			} else {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			}
			if net.TryInject(p) {
				sent++
			}
		}
		net.Tick()
		recv += len(collectAll(net, topo.NumNodes()))
	}
	if recv != packets {
		t.Fatalf("delivered %d/%d packets", recv, packets)
	}
	return net.Stats().NetLatency.Value()
}

func TestHeavyCrossTrafficDrains(t *testing.T) {
	crossTraffic(t, DefaultConfig(), 2000, 11)
}

func TestCheckerboardMeshTrafficDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	crossTraffic(t, cfg, 2000, 12)
}

func TestCheckerboardPlacementDORTrafficDrains(t *testing.T) {
	// Fig 16 config: staggered placement, full routers, DOR.
	cfg := DefaultConfig()
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	crossTraffic(t, cfg, 2000, 13)
}

func TestMultiPortMCDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	cfg.MCInjPorts = 2
	cfg.MCEjPorts = 2
	crossTraffic(t, cfg, 2000, 14)
}

func TestAggressiveRouterLowersLatency(t *testing.T) {
	cfg := DefaultConfig()
	base := crossTraffic(t, cfg, 1500, 15)
	cfg.RouterStages = 1
	fast := crossTraffic(t, cfg, 1500, 15)
	if fast >= base {
		t.Errorf("1-cycle router latency %v not lower than 4-stage %v", fast, base)
	}
}

func TestWiderChannelsFewerFlits(t *testing.T) {
	cfg := DefaultConfig()
	m16 := MustNewMesh(cfg)
	cfg.FlitBytes = 32
	m32 := MustNewMesh(cfg)
	p16 := &Packet{Src: 0, Dst: 35, Class: ClassReply, Bytes: 64}
	p32 := &Packet{Src: 0, Dst: 35, Class: ClassReply, Bytes: 64}
	m16.TryInject(p16)
	m32.TryInject(p32)
	runUntilQuiet(t, m16, 2000)
	runUntilQuiet(t, m32, 2000)
	if p32.NetworkLatency() >= p16.NetworkLatency() {
		t.Errorf("32B latency %d not below 16B %d (serialization)",
			p32.NetworkLatency(), p16.NetworkLatency())
	}
}

func TestMeshDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := DefaultConfig()
		m := MustNewMesh(cfg)
		topo := m.Topology()
		rng := xrand.New(77)
		comp := topo.ComputeNodes()
		mcs := topo.MCs()
		for i := 0; i < 300; i++ {
			m.TryInject(&Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
				Class: ClassRequest, Bytes: 8})
			m.Tick()
		}
		for i := 0; i < 5000 && !m.Quiet(); i++ {
			m.Tick()
		}
		return m.Stats().FlitHops, m.Stats().NetLatency.Value()
	}
	h1, l1 := run()
	h2, l2 := run()
	if h1 != h2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", h1, l1, h2, l2)
	}
}

func TestMeshPropertyAllConfigsDeliver(t *testing.T) {
	// Property: across router latencies, VC counts and port counts, all
	// offered packets are delivered exactly once.
	f := func(seed uint64, stages, vcs, inj uint8) bool {
		cfg := DefaultConfig()
		cfg.RouterStages = int(stages%4) + 1
		cfg.NumVCs = 2 << (vcs % 2) // 2 or 4
		cfg.MCInjPorts = int(inj%2) + 1
		cfg.MCEjPorts = int(inj%2) + 1
		cfg.SrcQueueCap = 4
		m := MustNewMesh(cfg)
		topo := m.Topology()
		rng := xrand.New(seed)
		comp := topo.ComputeNodes()
		mcs := topo.MCs()
		want := 0
		for i := 0; i < 200; i++ {
			var p *Packet
			if i%3 == 0 {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			} else {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			}
			if m.TryInject(p) {
				want++
			}
			m.Tick()
		}
		got := 0
		got += len(collectAll(m, topo.NumNodes()))
		for i := 0; i < 50000 && !m.Quiet(); i++ {
			m.Tick()
			got += len(collectAll(m, topo.NumNodes()))
		}
		return m.Quiet() && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestInjectionRateStat(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	p := &Packet{Src: 0, Dst: 35, Class: ClassReply, Bytes: 64}
	m.TryInject(p)
	runUntilQuiet(t, m, 1000)
	st := m.Stats()
	if st.InjectedFlits[0] != 4 {
		t.Errorf("injected flits at node 0 = %d, want 4", st.InjectedFlits[0])
	}
	if st.EjectedFlits[35] != 4 {
		t.Errorf("ejected flits at node 35 = %d, want 4", st.EjectedFlits[35])
	}
	if st.InjectionRate(0) <= 0 {
		t.Error("injection rate should be positive")
	}
	if st.AcceptedFlitsPerCycle() <= 0 {
		t.Error("accepted traffic should be positive")
	}
}
