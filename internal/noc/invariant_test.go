package noc

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// checkCreditConservation verifies, for every direction link and VC, that
//
//	upstream credits + flits on the wire + flits buffered downstream
//	+ credits on the wire back == buffer depth
//
// This is the fundamental credit-based flow-control invariant; any leak or
// double-count breaks it immediately.
func checkCreditConservation(t *testing.T, m *Mesh, cycle int) {
	t.Helper()
	n := &m.meshNet
	depth := n.cfg.BufDepth
	for id, r := range n.routers {
		for d := Port(0); d < numDirs; d++ {
			ch := r.outChans[d]
			if ch == nil {
				continue
			}
			down := ch.dst
			// Find the credit channel going back to (r, d).
			var back *creditChannel
			for _, cc := range n.credChans {
				if cc.dst == r && cc.dstPort == int(d) {
					back = cc
					break
				}
			}
			if back == nil {
				t.Fatalf("router %d dir %v: no credit channel", id, d)
			}
			for vc := 0; vc < n.cfg.NumVCs; vc++ {
				credits := r.outputs[r.vcIdx(int(d), vc)].credits
				onWire := 0
				for i := 0; i < ch.q.Len(); i++ {
					if ch.q.At(i).flit.VC == vc {
						onWire++
					}
				}
				buffered := down.inputs[down.vcIdx(ch.dstPort, vc)].buf.Len()
				creditsBack := 0
				for i := 0; i < back.q.Len(); i++ {
					if back.q.At(i).vc == vc {
						creditsBack++
					}
				}
				total := credits + onWire + buffered + creditsBack
				if total != depth {
					t.Fatalf("cycle %d router %d dir %v vc %d: credits=%d wire=%d buf=%d back=%d, sum %d != depth %d",
						cycle, id, d, vc, credits, onWire, buffered, creditsBack, total, depth)
				}
			}
		}
	}
}

// auditRouter checks the router's incremental work tracking against the
// state it summarises: every VC mask bit must equal the predicate it stands
// for, and busy must count the input VCs holding flits or allocation state.
func auditRouter(r *router) error {
	n := r.p.numVCs
	names := [3]string{"rc", "va", "sa"}
	busy := 0
	for in := 0; in < r.nIn; in++ {
		masks := [3]uint64{r.rcMask[in], r.vaMask[in], r.saMask[in]}
		for k, m := range masks {
			if m>>uint(n) != 0 {
				return fmt.Errorf("router %d port %d: %sMask %#x has bits past VC %d", r.p.node, in, names[k], m, n-1)
			}
		}
		for v := 0; v < n; v++ {
			ivc := &r.inputs[r.vcIdx(in, v)]
			full := ivc.buf.Len() > 0
			if full || ivc.state != vcIdle {
				busy++
			}
			want := [3]bool{ivc.state == vcIdle && full, ivc.state == vcWaitVA, ivc.state == vcActive && full}
			for k, m := range masks {
				if got := m>>uint(v)&1 == 1; got != want[k] {
					return fmt.Errorf("router %d port %d vc %d (%s, %d flits): %sMask bit %v, want %v",
						r.p.node, in, v, vcStateName(ivc.state), ivc.buf.Len(), names[k], got, want[k])
				}
			}
		}
	}
	if busy != r.busy {
		return fmt.Errorf("router %d: busy %d, but %d input VCs hold work", r.p.node, r.busy, busy)
	}
	return nil
}

// auditRouters runs auditRouter on every router of m.
func auditRouters(t *testing.T, m *Mesh, cycle int) {
	t.Helper()
	for _, r := range m.routers {
		if err := auditRouter(r); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

// TestCreditConservationUnderLoad drives heavy mixed traffic and checks the
// invariant every cycle.
func TestCreditConservationUnderLoad(t *testing.T) {
	for _, cb := range []bool{false, true} {
		cfg := DefaultConfig()
		if cb {
			cfg.Checkerboard = true
			cfg.Routing = RoutingCheckerboard
			cfg.NumVCs = 4
			cfg.MCs = CheckerboardPlacement(6, 6, 8)
			cfg.MCInjPorts = 2
		}
		m := MustNewMesh(cfg)
		topo := m.Topology()
		rng := xrand.New(99)
		comp := topo.ComputeNodes()
		mcs := topo.MCs()
		for cycle := 0; cycle < 3000; cycle++ {
			if cycle < 2000 {
				for k := 0; k < 3; k++ {
					var p *Packet
					if k == 2 {
						p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
							Class: ClassReply, Bytes: 64}
					} else {
						p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
							Class: ClassRequest, Bytes: 8}
					}
					m.TryInject(p)
				}
			}
			m.Tick()
			collectAll(m, topo.NumNodes())
			checkCreditConservation(t, m, cycle)
			auditRouters(t, m, cycle)
		}
	}
}

// TestHalfRouterNeverTurns inspects every switch traversal in a loaded
// checkerboard mesh: flits entering a half-router on a direction port must
// leave straight through or eject.
func TestHalfRouterNeverTurns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(123)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	// The legality check inside the router panics on an illegal turn, so
	// driving traffic through every half-router suffices.
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle < 3000 {
			p := &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
				Class: ClassRequest, Bytes: 8}
			m.TryInject(p)
			q := &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64}
			m.TryInject(q)
		}
		m.Tick()
		collectAll(m, topo.NumNodes())
	}
	if !m.Quiet() {
		for i := 0; i < 20000 && !m.Quiet(); i++ {
			m.Tick()
			collectAll(m, topo.NumNodes())
		}
	}
	if !m.Quiet() {
		t.Fatal("checkerboard mesh failed to drain")
	}
}

// TestVCClassIsolation checks that request flits never occupy reply VCs and
// vice versa on a class-split network.
func TestVCClassIsolation(t *testing.T) {
	cfg := DefaultConfig() // 2 VCs: vc0 = request, vc1 = reply
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(7)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	check := func(cycle int) {
		for id, r := range m.meshNet.routers {
			for in := 0; in < r.nIn; in++ {
				for vc := 0; vc < cfg.NumVCs; vc++ {
					buf := &r.inputs[r.vcIdx(in, vc)].buf
					for i := 0; i < buf.Len(); i++ {
						f := buf.At(i)
						wantVC := 0
						if f.Pkt.Class == ClassReply {
							wantVC = 1
						}
						if vc != wantVC {
							t.Fatalf("cycle %d router %d: %v flit on vc %d", cycle, id, f.Pkt.Class, vc)
						}
					}
				}
			}
		}
	}
	for cycle := 0; cycle < 1500; cycle++ {
		if cycle < 1000 {
			m.TryInject(&Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
				Class: ClassRequest, Bytes: 8})
			m.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64})
		}
		m.Tick()
		collectAll(m, topo.NumNodes())
		check(cycle)
	}
}

// TestWormholeContiguityPerVC asserts flits of one packet stay in order on
// each VC buffer (no interleaving within a VC).
func TestWormholeContiguityPerVC(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(31)
	mcs := topo.MCs()
	comp := topo.ComputeNodes()
	check := func() {
		for _, r := range m.meshNet.routers {
			for in := 0; in < r.nIn; in++ {
				for vc := 0; vc < cfg.NumVCs; vc++ {
					buf := &r.inputs[r.vcIdx(in, vc)].buf
					for i := 1; i < buf.Len(); i++ {
						cur, prev := buf.At(i), buf.At(i-1)
						if cur.Pkt == prev.Pkt {
							if cur.Seq != prev.Seq+1 {
								t.Fatalf("out-of-order flits of pkt %d: %d after %d",
									cur.Pkt.ID, cur.Seq, prev.Seq)
							}
						} else if !cur.Head {
							// A different packet may only start at a head flit.
							if prev.Tail {
								t.Fatalf("non-head flit of pkt %d follows tail of pkt %d",
									cur.Pkt.ID, prev.Pkt.ID)
							}
							t.Fatalf("interleaved packets %d and %d in one VC",
								prev.Pkt.ID, cur.Pkt.ID)
						}
					}
				}
			}
		}
	}
	for cycle := 0; cycle < 2000; cycle++ {
		if cycle < 1500 {
			m.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64})
		}
		m.Tick()
		collectAll(m, topo.NumNodes())
		check()
		auditRouters(t, m, cycle)
	}
}
