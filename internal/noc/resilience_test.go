package noc

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// faultyTraffic drives compute<->MC traffic through a faulty mesh until
// every logical transfer is delivered, checking flit conservation along the
// way. Returns the mesh for stat assertions.
func faultyTraffic(t *testing.T, cfg Config, packets int, seed uint64) *Mesh {
	t.Helper()
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(seed)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	seen := make(map[uint64]bool)
	sent, recv := 0, 0
	for cycle := 0; cycle < 400000 && (recv < packets || !m.Quiet()); cycle++ {
		if sent < packets {
			var p *Packet
			if sent%2 == 0 {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			} else {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			}
			if m.TryInject(p) {
				sent++
			}
		}
		m.Tick()
		auditRouters(t, m, cycle)
		for _, p := range collectAll(m, topo.NumNodes()) {
			if seen[p.lid] {
				t.Fatalf("logical transfer %d delivered twice", p.lid)
			}
			seen[p.lid] = true
			recv++
		}
		if cycle%1000 == 999 {
			if err := m.CheckFlitConservation(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if recv != packets {
		t.Fatalf("delivered %d/%d transfers (active=%d)", recv, packets, m.active)
	}
	if err := m.CheckFlitConservation(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if err := m.Health(); err != nil {
		t.Fatalf("healthy faulty run reported %v", err)
	}
	return m
}

func TestFaultyRunRecoversAllTransfers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = cfg.Fault.WithRate(0.002, 7)
	cfg.Fault.RetxTimeout = 512 // keep recovery fast enough for the test cap
	m := faultyTraffic(t, cfg, 2000, 21)
	st := m.Stats()
	if st.CorruptFlits == 0 || st.DroppedPackets == 0 || st.Retransmits == 0 {
		t.Errorf("fault path never exercised: corrupt=%d dropped=%d retx=%d",
			st.CorruptFlits, st.DroppedPackets, st.Retransmits)
	}
	if st.StuckVCFaults == 0 || st.LostCredits == 0 {
		t.Errorf("router/credit faults never placed: stuck=%d lostCred=%d",
			st.StuckVCFaults, st.LostCredits)
	}
	if st.LostPackets != 0 {
		t.Errorf("%d transfers lost despite unlimited retries", st.LostPackets)
	}
	if n := st.RetriesPerPacket.N(); n != 2000 {
		t.Errorf("retry distribution has %d samples, want 2000", n)
	}
	if st.RetriesPerPacket.Max() == 0 {
		t.Error("no delivered transfer needed a retry at rate 0.002")
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = cfg.Fault.WithRate(0.005, 99)
	cfg.Fault.RetxTimeout = 512
	a := faultyTraffic(t, cfg, 1000, 33)
	b := faultyTraffic(t, cfg, 1000, 33)
	sa, sb := a.Stats(), b.Stats()
	if a.Cycle() != b.Cycle() {
		t.Errorf("runs drained at different cycles: %d vs %d", a.Cycle(), b.Cycle())
	}
	if sa.CorruptFlits != sb.CorruptFlits || sa.Retransmits != sb.Retransmits ||
		sa.DroppedPackets != sb.DroppedPackets || sa.LostCredits != sb.LostCredits ||
		sa.StuckVCFaults != sb.StuckVCFaults || sa.FlitHops != sb.FlitHops {
		t.Errorf("equal-seeded faulty runs diverged:\n%+v\nvs\n%+v", *sa, *sb)
	}
	if sa.NetLatency.Value() != sb.NetLatency.Value() {
		t.Errorf("latency diverged: %v vs %v", sa.NetLatency.Value(), sb.NetLatency.Value())
	}
}

// TestZeroRateBitIdentical checks the acceptance criterion that a rate-0
// fault config (watchdog on or off) leaves the network bit-identical to the
// zero-value config: same drain cycle, same hop and latency totals.
func TestZeroRateBitIdentical(t *testing.T) {
	base := DefaultConfig()
	base.Fault = fault.Config{} // subsystem entirely absent
	watch := DefaultConfig()    // watchdog on, rate 0

	run := func(cfg Config) (uint64, uint64, float64) {
		m := MustNewMesh(cfg)
		topo := m.Topology()
		rng := xrand.New(5)
		comp := topo.ComputeNodes()
		mcs := topo.MCs()
		sent := 0
		for cycle := 0; cycle < 200000 && (sent < 1500 || !m.Quiet()); cycle++ {
			if sent < 1500 {
				p := &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 32}
				if m.TryInject(p) {
					sent++
				}
			}
			m.Tick()
			collectAll(m, topo.NumNodes())
		}
		st := m.Stats()
		return m.Cycle(), st.FlitHops, st.NetLatency.Value()
	}

	c1, h1, l1 := run(base)
	c2, h2, l2 := run(watch)
	if c1 != c2 || h1 != h2 || l1 != l2 {
		t.Errorf("rate-0 monitored run diverged from unmonitored: cycles %d/%d hops %d/%d lat %v/%v",
			c1, c2, h1, h2, l1, l2)
	}
}

func TestWatchdogDetectsDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = cfg.Fault.WithRate(1, 3) // every flit corrupt, heavy credit loss
	cfg.Fault.CreditResyncCycles = 1 << 40
	cfg.Fault.RetxTimeout = 1 << 40 // no recovery: the network must wedge
	cfg.Fault.WatchdogCycles = 2000
	m := MustNewMesh(cfg)
	topo := m.Topology()
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	for i := 0; i < 200; i++ {
		m.TryInject(&Packet{Src: comp[i%len(comp)], Dst: mcs[i%len(mcs)],
			Class: ClassRequest, Bytes: 64})
	}
	var verdict error
	for cycle := 0; cycle < 100000; cycle++ {
		m.Tick()
		collectAll(m, topo.NumNodes())
		if verdict = m.Health(); verdict != nil {
			break
		}
	}
	if verdict == nil {
		t.Fatal("watchdog never tripped on a wedged network")
	}
	if !errors.Is(verdict, fault.ErrDeadlock) {
		t.Fatalf("verdict %v is not ErrDeadlock", verdict)
	}
	var he *fault.HangError
	if !fault.AsHang(verdict, &he) {
		t.Fatal("verdict does not carry a HangError")
	}
	if he.Diag.Empty() {
		t.Fatal("deadlock verdict has an empty diagnostic")
	}
	if he.Diag.InFlight == 0 {
		t.Error("deadlock declared with nothing in flight")
	}
	// The verdict is sticky and the simulation remains steppable (graceful
	// degradation: no panic, callers choose when to stop).
	m.Tick()
	if !errors.Is(m.Health(), fault.ErrDeadlock) {
		t.Error("health verdict did not stick")
	}
}

func TestFlitConservationAcross10kFaultyCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = cfg.Fault.WithRate(0.01, 11)
	cfg.Fault.RetxTimeout = 256
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(17)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	for cycle := 0; cycle < 10000; cycle++ {
		p := &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
			Class: ClassRequest, Bytes: 64}
		m.TryInject(p)
		m.Tick()
		collectAll(m, topo.NumNodes())
		if cycle%500 == 499 {
			if err := m.CheckFlitConservation(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if m.Stats().CorruptFlits == 0 {
		t.Error("10k faulty cycles produced no corrupt flits")
	}
}

func TestDoubleNetworkHealthAndFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = cfg.Fault.WithRate(0.002, 13)
	cfg.Fault.RetxTimeout = 512
	d := MustNewDouble(cfg)
	if err := d.Health(); err != nil {
		t.Fatalf("fresh double network unhealthy: %v", err)
	}
	topo := d.Subnet(ClassRequest).Topology()
	rng := xrand.New(29)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	sent, recv := 0, 0
	for cycle := 0; cycle < 400000 && (recv < 1000 || !d.Quiet()); cycle++ {
		if sent < 1000 {
			var p *Packet
			if sent%2 == 0 {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			} else {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			}
			if d.TryInject(p) {
				sent++
			}
		}
		d.Tick()
		recv += len(collectAll(d, topo.NumNodes()))
	}
	if recv != 1000 {
		t.Fatalf("delivered %d/1000 transfers", recv)
	}
	st := d.Stats()
	if st.CorruptFlits == 0 || st.Retransmits == 0 {
		t.Errorf("sliced network fault path not exercised: corrupt=%d retx=%d",
			st.CorruptFlits, st.Retransmits)
	}
	if err := d.Health(); err != nil {
		t.Fatalf("healthy faulty double run reported %v", err)
	}
}
