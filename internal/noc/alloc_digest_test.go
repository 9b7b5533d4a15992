package noc

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
)

// allocCase is one router-allocator scenario for TestAllocatorDigests: a
// network under the request/reply protocol at a fixed load.
type allocCase struct {
	name        string
	build       func() (Network, Backend)
	outstanding int // requests in flight per compute node
	check       func(t *testing.T, st *NetStats)
}

// meshCase builds a single network from DefaultConfig edited by edit.
func meshCase(edit func(*Config)) func() (Network, Backend) {
	return func() (Network, Backend) {
		cfg := DefaultConfig()
		edit(&cfg)
		m := MustNewMesh(cfg)
		return m, m.Backend()
	}
}

// allocCases covers the allocator edges the core and traffic golden digests
// never reach: two MC ejection ports (the ejection-port rotation), 8 VCs,
// stuck-VC faults and lost credits at high load, both double networks, the
// ring at saturation and 1-stage routers.
func allocCases() []allocCase {
	return []allocCase{
		{name: "cpcr-8vc-2p", outstanding: 16, build: meshCase(func(c *Config) {
			c.Checkerboard = true
			c.Routing = RoutingCheckerboard
			c.NumVCs = 8
			c.MCs = CheckerboardPlacement(6, 6, 8)
			c.MCInjPorts, c.MCEjPorts = 2, 2
		})},
		{name: "baseline-faults", outstanding: 8, build: meshCase(func(c *Config) {
			c.Fault = c.Fault.WithRate(0.002, 7)
			c.Fault.RetxTimeout = 512
		}), check: func(t *testing.T, st *NetStats) {
			if st.StuckVCFaults == 0 || st.LostCredits == 0 || st.Retransmits == 0 {
				t.Errorf("faults not exercised: stuck=%d lostCred=%d retx=%d",
					st.StuckVCFaults, st.LostCredits, st.Retransmits)
			}
		}},
		{name: "double", outstanding: 8, build: func() (Network, Backend) {
			d := MustNewDouble(DefaultConfig())
			return d, d.Subnet(ClassRequest).Backend()
		}},
		{name: "double-balanced", outstanding: 8, build: func() (Network, Backend) {
			d := MustNewDoubleBalanced(DefaultConfig())
			return d, d.Subnet(ClassRequest).Backend()
		}},
		{name: "ring", outstanding: 16, build: meshCase(func(c *Config) {
			c.Topology = BackendRing
			c.NumVCs, c.BufDepth, c.RouterStages = 4, 4, 2
		})},
		{name: "1-stage", outstanding: 8, build: meshCase(func(c *Config) {
			c.RouterStages, c.HalfRouterStages = 1, 1
		})},
	}
}

// allocDigests pins the per-cycle behaviour of each scenario. They were
// recorded on the dense per-VC allocator scans; the mask-driven allocators
// must reproduce them bit for bit.
var allocDigests = map[string]string{
	"cpcr-8vc-2p":     "ce191484ac53eadc",
	"baseline-faults": "f971ce6154f9f9ba",
	"double":          "27e3277374d07559",
	"double-balanced": "f63f55803b8718cb",
	"ring":            "8cc03db10c86cea8",
	"1-stage":         "ad5ba353154c1b3a",
}

// meshesOf returns the physical networks behind a Network under test.
func meshesOf(n Network) []*Mesh {
	switch v := n.(type) {
	case *Mesh:
		return []*Mesh{v}
	case *Double:
		return v.nets[:]
	}
	panic(fmt.Sprintf("meshesOf: unsupported network %T", n))
}

// TestAllocatorDigests drives each scenario for a loaded phase and then a
// drain, hashing on every cycle the network stats, the IDs delivered per
// node, Quiet and NextWorkCycle, and audits every router after each Tick.
func TestAllocatorDigests(t *testing.T) {
	const loadCycles, drainCap = 2500, 20000
	for _, ac := range allocCases() {
		t.Run(ac.name, func(t *testing.T) {
			net, backend := ac.build()
			h := fnv.New64a()
			rr := newReqReply(net, backend, ac.outstanding)
			rr.onDeliver = func(node NodeID, p *Packet) {
				hashWords(h, uint64(node), p.ID)
			}
			for c := 0; c < loadCycles+drainCap; c++ {
				if c == loadCycles {
					rr.outstanding = 0 // stop issuing; the replies still flow
				}
				rr.offer()
				if c > loadCycles && net.Quiet() {
					break
				}
				net.Tick()
				for _, m := range meshesOf(net) {
					auditRouters(t, m, c)
				}
				hashNetStats(h, net.Stats())
				quiet := uint64(0)
				if net.Quiet() {
					quiet = 1
				}
				hashWords(h, quiet, net.NextWorkCycle())
			}
			if !net.Quiet() {
				t.Fatalf("network did not drain within %d cycles", drainCap)
			}
			st := net.Stats()
			if ac.check != nil {
				ac.check(t, st)
			}
			got := fmt.Sprintf("%016x", h.Sum64())
			if want, ok := allocDigests[ac.name]; !ok || got != want {
				t.Errorf("%s: digest %s, want %s (cycles %d, hops %d)", ac.name, got, want, st.Cycles, st.FlitHops)
			}
		})
	}
}

func hashWords(h hash.Hash64, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// hashNetStats folds every NetStats counter, including the float latency
// sums bit for bit, into h.
func hashNetStats(h hash.Hash64, st *NetStats) {
	hashWords(h, st.Cycles, st.FlitHops)
	for _, s := range [][]uint64{st.InjectedFlits, st.InjectedPackets, st.InjectedBytes, st.EjectedFlits} {
		hashWords(h, s...)
	}
	means := []*stats.Mean{&st.NetLatency, &st.TotalLatency}
	for c := range st.LatencyByClass {
		means = append(means, &st.LatencyByClass[c])
	}
	for _, m := range means {
		hashWords(h, math.Float64bits(m.Sum()), uint64(m.N()))
	}
	hashWords(h, st.CorruptFlits, st.DroppedPackets, st.DroppedFlits, st.DuplicatePackets,
		st.Retransmits, st.LostPackets, st.LostCredits, st.StuckVCFaults,
		st.RetriesPerPacket.N(), st.RetriesPerPacket.Sum(), uint64(st.RetriesPerPacket.Max()))
}
