package noc

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Network is the closed-loop simulator's view of an interconnect: offer
// packets, advance cycles, and collect delivered packets per node. Mesh,
// DoubleMesh and Ideal all implement it.
type Network interface {
	// TryInject offers a packet at its source node. It returns false when
	// the source queue for the packet's class is full (the caller stalls).
	TryInject(p *Packet) bool
	// CanInject reports whether a packet of the given class would be
	// accepted at node n this cycle.
	CanInject(n NodeID, class TrafficClass) bool
	// Tick advances the network one interconnect cycle.
	Tick()
	// Delivered returns (and clears) the packets fully ejected at node n.
	// The returned slice is only valid until the next Delivered call for
	// the same node: implementations recycle the backing array to keep the
	// cycle loop allocation-free, so callers must consume (or copy) the
	// batch before asking again.
	Delivered(n NodeID) []*Packet
	// Cycle returns the elapsed interconnect cycles.
	Cycle() uint64
	// Quiet reports whether no packets are queued or in flight.
	Quiet() bool
	// Stats exposes aggregate counters.
	Stats() *NetStats
	// Health returns nil while the network is sound, or a sticky
	// *fault.HangError once the deadlock/livelock/invariant monitors trip.
	Health() error
	// NextWorkCycle returns a conservative bound on the next cycle count
	// at which Tick would do anything beyond the deterministic idle-tick
	// credits SkipAhead replays, or NeverCycle when only an injection can
	// create work. "Conservative" means it may name an earlier cycle than
	// the real one (forcing a harmless edge-by-edge tick) but never a
	// later one.
	NextWorkCycle() uint64
	// SkipAhead credits k consecutive idle ticks in O(1), bit-identical
	// to calling Tick k times under NextWorkCycle's guarantee. Callers
	// must not skip at or past the cycle NextWorkCycle returned and must
	// recompute the horizon after any injection.
	SkipAhead(k uint64)
}

// NeverCycle is the NextWorkCycle sentinel for "idle until an external
// event (an injection) creates work".
const NeverCycle = ^uint64(0)

// NetStats aggregates network activity.
type NetStats struct {
	Cycles          uint64
	FlitHops        uint64 // switch traversals, network-wide
	InjectedFlits   []uint64
	InjectedPackets []uint64
	InjectedBytes   []uint64 // packet payload bytes offered per source node
	EjectedFlits    []uint64
	NetLatency      stats.Mean // head injection -> tail ejection
	TotalLatency    stats.Mean // includes source queueing
	LatencyByClass  [NumClasses]stats.Mean

	// Fault-injection and resilience counters (all zero when faults are off).
	CorruptFlits     uint64        // flit deliveries struck by a link fault
	DroppedPackets   uint64        // packets failing the end-to-end check at ejection
	DroppedFlits     uint64        // flits belonging to dropped packets
	DuplicatePackets uint64        // late copies of already-delivered transfers
	Retransmits      uint64        // wire packets re-injected by the timeout
	LostPackets      uint64        // transfers abandoned after MaxRetries
	LostCredits      uint64        // credits delayed by the resync protocol
	StuckVCFaults    uint64        // stuck-VC faults placed
	RetriesPerPacket stats.IntDist // retries per delivered transfer
}

// InjectionRate returns node n's injection rate in flits/cycle.
func (s *NetStats) InjectionRate(n NodeID) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.InjectedFlits[n]) / float64(s.Cycles)
}

// AcceptedFlitsPerCycle returns network-wide accepted traffic averaged over
// all nodes, in flits/cycle/node.
func (s *NetStats) AcceptedFlitsPerCycle() float64 {
	if s.Cycles == 0 || len(s.InjectedFlits) == 0 {
		return 0
	}
	var total uint64
	for _, f := range s.InjectedFlits {
		total += f
	}
	return float64(total) / float64(s.Cycles) / float64(len(s.InjectedFlits))
}

// AcceptedBytesPerCycle returns accepted traffic averaged over all nodes,
// in payload bytes/cycle/node (the §III-B classification metric).
func (s *NetStats) AcceptedBytesPerCycle() float64 {
	if s.Cycles == 0 || len(s.InjectedBytes) == 0 {
		return 0
	}
	var total uint64
	for _, b := range s.InjectedBytes {
		total += b
	}
	return float64(total) / float64(s.Cycles) / float64(len(s.InjectedBytes))
}

// Config parameterizes a network (defaults are Table III).
type Config struct {
	// Topology selects the interconnect backend; the zero value is the 2D
	// mesh. Width×Height always names the node count; the ring backend
	// arranges those nodes in id order around a circle.
	Topology         BackendKind
	Width, Height    int
	FlitBytes        int
	NumVCs           int
	BufDepth         int         // flits per VC
	RouterStages     int         // full-router pipeline depth
	HalfRouterStages int         // half-router pipeline depth
	ChannelLatency   uint64      // cycles
	CreditLatency    uint64      // cycles
	Checkerboard     bool        // half-routers at odd-parity tiles
	Routing          RoutingAlgo // DOR or checkerboard routing
	SplitClasses     bool        // reserve disjoint VCs for request/reply
	MCs              []NodeID    // memory-controller tiles
	MCInjPorts       int         // injection ports at MC routers (2P: 2)
	MCEjPorts        int         // ejection ports at MC routers
	SrcQueueCap      int         // source queue capacity per class, packets
	EjQueueCap       int         // ejection queue capacity, flits
	Seed             uint64
	Fault            fault.Config // fault injection + health monitoring policy

	// Shards partitions the network into contiguous bands (mesh/basejump:
	// column bands; ring: arc segments) that tick on parallel worker
	// goroutines (see shard.go). 0 or 1 runs the serial kernel; any value
	// is clamped to the backend's MaxShards, and fault injection forces 1 (the
	// injector's RNG draw order cannot be preserved across shards). Results
	// are bit-identical for every value, so Shards never needs to appear in
	// cache keys or config names.
	Shards int
}

// DefaultConfig returns the paper's baseline mesh (Tables II/III): 6×6,
// 16-byte channels, 2 VCs × 8-flit buffers, 4-stage routers, 1-cycle
// channels, DOR, MCs on the top and bottom rows.
func DefaultConfig() Config {
	return Config{
		Width: 6, Height: 6,
		FlitBytes:        16,
		NumVCs:           2,
		BufDepth:         8,
		RouterStages:     4,
		HalfRouterStages: 3,
		ChannelLatency:   1,
		CreditLatency:    1,
		Checkerboard:     false,
		Routing:          RoutingDOR,
		SplitClasses:     true,
		MCs:              TopBottomPlacement(6, 6, 8),
		MCInjPorts:       1,
		MCEjPorts:        1,
		SrcQueueCap:      8,
		EjQueueCap:       8,
		Seed:             1,
		Fault:            fault.DefaultConfig(),
	}
}

// vcPlan maps (traffic class, routing phase) to the allowed output VCs.
type vcPlan struct {
	sets [NumClasses][2][]int
}

func buildVCPlan(numVCs int, split bool, phases int) (vcPlan, error) {
	div := 1
	if split {
		div *= 2
	}
	if phases > 1 {
		div *= 2 // two-phase routing needs disjoint phase VC classes
	}
	if numVCs < div || numVCs%div != 0 {
		return vcPlan{}, fmt.Errorf("noc: %d VCs not divisible across %d class/phase sets", numVCs, div)
	}
	per := numVCs / div
	var p vcPlan
	for class := 0; class < int(NumClasses); class++ {
		for phase := 0; phase < 2; phase++ {
			base := 0
			if split {
				base += class * (numVCs / 2)
			}
			if phases > 1 {
				base += phase * per
			}
			set := make([]int, per)
			for i := range set {
				set[i] = base + i
			}
			p.sets[class][phase] = set
		}
	}
	return p, nil
}

func (p *vcPlan) allowed(class TrafficClass, yxPhase bool) []int {
	phase := 0
	if yxPhase {
		phase = 1
	}
	return p.sets[class][phase]
}

// Mesh is the cycle-level network engine. Despite the historical name it
// serves every topology backend (mesh, ring, basejump): routers, VCs,
// credits, NIs, sharding and fault injection are backend-agnostic, and the
// backend contributes geometry and routing.
type Mesh struct{ meshNet }

type meshNet struct {
	cfg       Config
	backend   Backend
	topo      *Topology // mesh geometry; nil for non-mesh backends
	vcs       vcPlan
	routers   []*router
	nis       []*netIface
	flitChans []*channel
	credChans []*creditChannel
	cycle     uint64
	rng       *xrand.Rand
	stats     NetStats
	active    int
	nextPkt   uint64

	// Active-component work lists live on the shards: one bitset per Tick
	// phase per shard, indexed like the matching component slice but only
	// ever holding bits for shard-owned components. A component sets its
	// owner's bit when it gains work (a queued event, packet or flit) and
	// the phase loop clears the bit once the component goes idle, so the
	// common case — most tiles idle — costs nothing per cycle. Bits are
	// only ever set for phases at or after the setter's own (channel sends
	// from the router phase target the NEXT cycle's channel phase), so the
	// in-order bitset iteration visits exactly the components the dense
	// loops would have found non-idle, keeping equal-seeded runs
	// bit-identical. A serial mesh is simply one shard covering every
	// column.
	shards []*meshShard
	tickWG sync.WaitGroup

	// interScratch is the reusable candidate buffer for checkerboard
	// case-2 intermediate selection, sized once to the node count so route
	// planning never allocates.
	interScratch []NodeID

	// Resilience machinery (see resilience.go). fs is nil at fault rate 0,
	// wd is nil with the watchdog disabled; both nil-paths leave behaviour
	// bit-identical to a build without the subsystem.
	fs         *faultState
	wd         *fault.Watchdog
	health     *fault.HangError
	moveCount  uint64 // monotonic flit-movement counter for the watchdog
	hopBudget  int    // livelock bound, switch traversals per wire packet
	auditEvery uint64 // flit-conservation audit period
}

// NewMesh validates cfg and builds the network.
func NewMesh(cfg Config) (*Mesh, error) {
	backend, err := BuildBackend(cfg)
	if err != nil {
		return nil, err
	}
	return newMeshNet(cfg, backend)
}

// NewMeshWithBackend builds a network on a prebuilt backend, so lane-batched
// seed replicas of one configuration (see core.RunLanes) pay for geometry and
// route tables once. Backends are immutable at runtime — PlanRoute threads
// the caller's rng and scratch through — so sharing one across networks is
// race-free. cfg must describe the same substrate the backend was built from.
func NewMeshWithBackend(cfg Config, backend Backend) (*Mesh, error) {
	if backend == nil {
		return nil, fmt.Errorf("noc: NewMeshWithBackend needs a backend")
	}
	if backend.Kind() != cfg.Topology {
		return nil, fmt.Errorf("noc: backend is %v but config wants %v", backend.Kind(), cfg.Topology)
	}
	if got, want := backend.NumNodes(), cfg.Width*cfg.Height; got != want {
		return nil, fmt.Errorf("noc: backend has %d nodes but config describes %d", got, want)
	}
	mcs := backend.MCs()
	if len(mcs) != len(cfg.MCs) {
		return nil, fmt.Errorf("noc: backend has %d MCs but config places %d", len(mcs), len(cfg.MCs))
	}
	for i, mc := range mcs {
		if mc != cfg.MCs[i] {
			return nil, fmt.Errorf("noc: backend MC %d is node %d but config places node %d", i, mc, cfg.MCs[i])
		}
	}
	return newMeshNet(cfg, backend)
}

// newMeshNet builds the network body on an already-validated backend.
func newMeshNet(cfg Config, backend Backend) (*Mesh, error) {
	if cfg.FlitBytes <= 0 || cfg.BufDepth <= 0 || cfg.NumVCs <= 0 {
		return nil, fmt.Errorf("noc: FlitBytes, BufDepth and NumVCs must be positive")
	}
	if cfg.NumVCs > maxVCs {
		return nil, fmt.Errorf("noc: %d VCs exceed the router's %d-bit VC masks", cfg.NumVCs, maxVCs)
	}
	if cfg.RouterStages <= 0 || cfg.HalfRouterStages <= 0 {
		return nil, fmt.Errorf("noc: router stages must be positive")
	}
	if cfg.MCInjPorts <= 0 || cfg.MCEjPorts <= 0 {
		return nil, fmt.Errorf("noc: MC port counts must be positive")
	}
	if cfg.SrcQueueCap <= 0 || cfg.EjQueueCap <= 0 {
		return nil, fmt.Errorf("noc: queue capacities must be positive")
	}
	plan, err := buildVCPlan(cfg.NumVCs, cfg.SplitClasses, backend.Phases())
	if err != nil {
		return nil, err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{}
	n := &m.meshNet
	n.cfg, n.backend, n.vcs, n.rng = cfg, backend, plan, xrand.New(cfg.Seed)
	if mb, ok := backend.(interface{ topology() *Topology }); ok {
		n.topo = mb.topology()
	}
	if cfg.Fault.Enabled() {
		n.fs = newFaultState(cfg.Fault)
	}
	if cfg.Fault.Monitored() {
		n.wd = fault.NewWatchdog(cfg.Fault.WatchdogCycles)
		n.hopBudget = cfg.Fault.HopBudget
		if n.hopBudget <= 0 {
			n.hopBudget = 16 * (cfg.Width + cfg.Height)
		}
		n.auditEvery = cfg.Fault.AuditCycles
		if n.auditEvery == 0 {
			n.auditEvery = cfg.Fault.WatchdogCycles / 4
		}
	}
	nNodes := backend.NumNodes()
	n.stats.InjectedFlits = make([]uint64, nNodes)
	n.stats.InjectedPackets = make([]uint64, nNodes)
	n.stats.InjectedBytes = make([]uint64, nNodes)
	n.stats.EjectedFlits = make([]uint64, nNodes)
	n.interScratch = make([]NodeID, 0, nNodes)

	for id := 0; id < nNodes; id++ {
		node := NodeID(id)
		p := routerParams{
			node:     node,
			half:     backend.IsHalf(node),
			numVCs:   cfg.NumVCs,
			bufDepth: cfg.BufDepth,
			nInj:     1,
			nEj:      1,
			stages:   cfg.RouterStages,
			chanLat:  cfg.ChannelLatency,
			credLat:  cfg.CreditLatency,
			ejCap:    cfg.EjQueueCap,
		}
		if p.half {
			p.stages = cfg.HalfRouterStages
		}
		if backend.IsMC(node) {
			p.nInj = cfg.MCInjPorts
			p.nEj = cfg.MCEjPorts
		}
		n.routers = append(n.routers, newRouter(p, n))
	}
	// Wire direction channels and credits. Channel event queues are bounded
	// by credit flow control: at most numVCs*bufDepth flits (or credits) can
	// be in flight on one link.
	chanCap := cfg.NumVCs * cfg.BufDepth
	for id := 0; id < nNodes; id++ {
		r := n.routers[id]
		for d := Port(0); d < numDirs; d++ {
			nb := backend.Neighbor(NodeID(id), d)
			if nb < 0 {
				continue
			}
			ch := &channel{idx: len(n.flitChans), src: NodeID(id), dst: n.routers[nb], dstPort: int(d.opposite())}
			ch.q = ring.New[flitEvent](chanCap, chanCap)
			r.outChans[d] = ch
			n.flitChans = append(n.flitChans, ch)
			cc := &creditChannel{idx: len(n.credChans), src: nb, dst: r, dstPort: int(d)}
			cc.q = ring.New[creditEvent](chanCap, chanCap)
			n.routers[nb].credChans[int(d.opposite())] = cc
			n.credChans = append(n.credChans, cc)
			for v := 0; v < cfg.NumVCs; v++ {
				r.outputs[r.vcIdx(int(d), v)].credits = cfg.BufDepth
			}
		}
	}
	for id := 0; id < nNodes; id++ {
		n.nis = append(n.nis, newNetIface(NodeID(id), n.routers[id], n))
	}
	n.buildShards(cfg.Shards)
	return m, nil
}

// MustNewMesh is NewMesh but panics on error.
func MustNewMesh(cfg Config) *Mesh {
	m, err := NewMesh(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Topology exposes the mesh geometry, or nil for backends without one
// (ring). Prefer Backend for topology-agnostic callers.
func (n *meshNet) Topology() *Topology { return n.topo }

// Backend exposes the topology backend.
func (n *meshNet) Backend() Backend { return n.backend }

// FlitBytes returns the channel flit size.
func (n *meshNet) FlitBytes() int { return n.cfg.FlitBytes }

// flitsFor sizes a payload in flits, enforcing the single-flit contract of
// backends whose packets must fit one channel word (basejump).
func (n *meshNet) flitsFor(bytes int) int {
	f := flitCount(bytes, n.cfg.FlitBytes)
	if f > 1 && n.backend.SingleFlit() {
		panic(fmt.Sprintf("noc: %d-byte packet exceeds the %d-byte single-flit channel of the %s backend",
			bytes, n.cfg.FlitBytes, n.backend.Kind()))
	}
	return f
}

// Cycle returns the elapsed cycles.
func (n *meshNet) Cycle() uint64 { return n.cycle }

// Stats returns the live counters.
func (n *meshNet) Stats() *NetStats { return &n.stats }

// Quiet reports whether the network holds no packets and no transfer is
// awaiting a retransmission timeout.
func (n *meshNet) Quiet() bool {
	return n.active == 0 && (n.fs == nil || n.fs.pending == 0)
}

// CanInject reports source-queue space for class at node.
func (n *meshNet) CanInject(node NodeID, class TrafficClass) bool {
	return !n.nis[node].srcQ[class].Full()
}

// TryInject offers p at p.Src. On success the network owns the packet until
// it reappears in Delivered(p.Dst).
func (n *meshNet) TryInject(p *Packet) bool {
	if p.Src < 0 || int(p.Src) >= n.backend.NumNodes() || p.Dst < 0 || int(p.Dst) >= n.backend.NumNodes() {
		panic(fmt.Sprintf("noc: inject with bad endpoints %d->%d", p.Src, p.Dst))
	}
	if !n.CanInject(p.Src, p.Class) {
		return false
	}
	yx, inter, err := n.backend.PlanRoute(p.Src, p.Dst, n.rng, n.interScratch)
	if err != nil {
		panic(err)
	}
	p.YXPhase, p.Intermediate = yx, inter
	p.ejected = 0
	p.ID = n.nextPkt
	n.nextPkt++
	p.OfferedAt = n.cycle
	n.nis[p.Src].enqueue(p)
	n.active++
	if n.fs != nil {
		n.fs.onInject(n, p)
	}
	return true
}

// Delivered returns and clears packets assembled at node. The batch and its
// spare predecessor are double-buffered per node; the returned slice is
// valid until the next Delivered call for the same node.
func (n *meshNet) Delivered(node NodeID) []*Packet {
	ni := n.nis[node]
	out := ni.delivered
	ni.delivered = ni.spare[:0]
	ni.spare = out
	return out
}

// Tick advances one network cycle: the serial prologue (cycle count, fault
// machinery), the shard segments — each phase walking only its active
// components in ascending index order, the same order the dense loops used,
// so arbitration and fault-RNG draw sequences are unchanged — and the serial
// epilogue (boundary hand-off, counter/sample merge, health monitors). With
// one shard the segment runs inline and the tick is the serial kernel; with
// more, the calling goroutine runs shard 0 itself while the executor runs
// the rest, and the WaitGroup join is the cycle barrier.
func (n *meshNet) Tick() {
	n.tickPrologue()
	if len(n.shards) == 1 {
		n.shards[0].runSegment(n.cycle)
	} else {
		n.tickWG.Add(len(n.shards) - 1)
		for _, sh := range n.shards[1:] {
			submitShard(&sh.task)
		}
		n.shards[0].task.execute()
		n.tickWG.Wait()
	}
	n.epilogue()
}

func (n *meshNet) tickPrologue() {
	n.cycle++
	if n.fs != nil {
		n.fs.tick(n)
	}
}

// tickAsync starts a cycle and dispatches every shard segment (including
// shard 0) to the executor without waiting, so a Double network can overlap
// its two slices' cycles; tickJoin completes it. The caller must pair every
// tickAsync with a tickJoin before touching the network again.
func (n *meshNet) tickAsync() {
	n.tickPrologue()
	n.tickWG.Add(len(n.shards))
	for _, sh := range n.shards {
		submitShard(&sh.task)
	}
}

func (n *meshNet) tickJoin() {
	n.tickWG.Wait()
	n.epilogue()
}

// NextWorkCycle scans the per-shard work lists for the earliest cycle with
// real work: any queued injection, busy router, pending ejection or parked
// boundary event means the very next tick works; otherwise the earliest
// due channel/credit event (flit-channel dues are monotonic so the front
// is the minimum; resync-delayed credits are not, so credit queues scan in
// full). Fault injection draws its RNG every cycle and a tripped monitor
// must keep reporting, so both force edge-by-edge ticking. With an armed
// deadlock watchdog and work in flight, the horizon also never passes the
// cycle the watchdog would trip, so a wedged network is detected on
// exactly the same cycle as when stepping.
func (n *meshNet) NextWorkCycle() uint64 {
	if n.fs != nil || n.health != nil {
		return n.cycle + 1
	}
	next := NeverCycle
	for _, sh := range n.shards {
		if !sh.injActive.isEmpty() || !sh.rtrActive.isEmpty() || !sh.ejActive.isEmpty() ||
			sh.outFlit.Len() > 0 || sh.outCred.Len() > 0 {
			return n.cycle + 1
		}
		sh.flitActive.forEach(func(i int) {
			if q := &n.flitChans[i].q; q.Len() > 0 {
				if d := q.Front().due; d < next {
					next = d
				}
			}
		})
		sh.credActive.forEach(func(i int) {
			q := &n.credChans[i].q
			for j := 0; j < q.Len(); j++ {
				if d := q.At(j).due; d < next {
					next = d
				}
			}
		})
	}
	if n.wd != nil && n.inFlightTotal() > 0 {
		// observeHealth ran at the last cycle boundary, so the watchdog is
		// synced and an un-tripped monitor means lastMove+Window is still
		// ahead of the current cycle.
		if trip := n.wd.LastMovement() + n.wd.Window; trip < next {
			next = trip
		}
	}
	if next <= n.cycle {
		next = n.cycle + 1
	}
	return next
}

// SkipAhead credits k idle ticks: with no due events and no active
// components, a tick is exactly cycle/stat increments plus the end-of-
// cycle health observation, which is replayed once at the landing cycle
// (the intermediate observations are no-ops: an idle network resets the
// watchdog's movement mark, which the final observation reproduces, and
// the conservation audit is pure on a consistent network).
func (n *meshNet) SkipAhead(k uint64) {
	n.cycle += k
	n.stats.Cycles += k
	n.observeHealth()
}
