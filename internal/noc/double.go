package noc

import "fmt"

// Double is the channel-sliced network of §IV-C: two physical mesh networks
// at half channel width. In the paper's dedicated form one slice carries
// request traffic and the other replies, which needs no protocol-deadlock
// VCs; the alternative §IV-C mentions is a load-balanced pair where both
// slices carry both classes (each slice then splits its VCs by class).
// Either way, the quadratic dependence of crossbar area on channel width
// makes the pair cheaper than one full-width network (Table VI).
type Double struct {
	nets     [2]*Mesh
	balanced bool
	overlap  bool    // tick the slices concurrently (cfg.Shards > 1)
	rr       []uint8 // per-source slice rotation (balanced mode)

	// merged holds, per node, the batch Delivered returns when both slices
	// delivered in the same cycle; reused, so merging never allocates.
	merged [][]*Packet
}

// NewDouble builds the paper's dedicated pair from cfg. cfg describes the
// equivalent single network: each slice gets cfg.FlitBytes/2-byte channels
// and all of its VCs for a single traffic class (cfg.SplitClasses is
// ignored).
func NewDouble(cfg Config) (*Double, error) {
	return newDouble(cfg, false)
}

// NewDoubleBalanced builds the load-balanced alternative: both slices carry
// both classes (so each slice keeps class-split VCs against protocol
// deadlock) and every source spreads its packets across the slices
// round-robin.
func NewDoubleBalanced(cfg Config) (*Double, error) {
	return newDouble(cfg, true)
}

func newDouble(cfg Config, balanced bool) (*Double, error) {
	if cfg.FlitBytes%2 != 0 {
		return nil, fmt.Errorf("noc: cannot slice odd channel width %d", cfg.FlitBytes)
	}
	if cfg.Topology.singleFlit() {
		return nil, fmt.Errorf("noc: cannot channel-slice the single-flit %s backend (half-width flits could no longer carry a packet)", cfg.Topology)
	}
	// The slices are independent networks, so a shard budget of S splits
	// into S/2-shard groups ticking concurrently (tickAsync overlaps the
	// slices; each mesh further clamps its own count). The two independent
	// per-slice fault streams stay deterministic under overlap because each
	// slice's draws happen inside its own single-shard segment.
	d := &Double{balanced: balanced, overlap: cfg.Shards > 1}
	for c := 0; c < 2; c++ {
		sub := cfg
		sub.FlitBytes = cfg.FlitBytes / 2
		sub.SplitClasses = balanced
		sub.Seed = cfg.Seed + uint64(c)
		sub.Fault.Seed = cfg.Fault.Seed + uint64(c) // decorrelate the slices' fault streams
		sub.Shards = (cfg.Shards + 1) / 2
		m, err := NewMesh(sub)
		if err != nil {
			return nil, err
		}
		d.nets[c] = m
	}
	if balanced {
		d.rr = make([]uint8, cfg.Width*cfg.Height)
	}
	d.merged = make([][]*Packet, cfg.Width*cfg.Height)
	return d, nil
}

// MustNewDouble is NewDouble but panics on error.
func MustNewDouble(cfg Config) *Double {
	d, err := NewDouble(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// MustNewDoubleBalanced is NewDoubleBalanced but panics on error.
func MustNewDoubleBalanced(cfg Config) *Double {
	d, err := NewDoubleBalanced(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Subnet returns the physical network carrying class c.
func (d *Double) Subnet(c TrafficClass) *Mesh { return d.nets[c] }

// CanInject checks whether some slice can take a packet of class at n.
func (d *Double) CanInject(n NodeID, class TrafficClass) bool {
	if !d.balanced {
		return d.nets[class].CanInject(n, class)
	}
	return d.nets[0].CanInject(n, class) || d.nets[1].CanInject(n, class)
}

// TryInject routes p to its class's slice (dedicated) or to the source's
// next slice in rotation (balanced), falling back to the other slice when
// the preferred one is full.
func (d *Double) TryInject(p *Packet) bool {
	if !d.balanced {
		return d.nets[p.Class].TryInject(p)
	}
	first := int(d.rr[p.Src]) % 2
	d.rr[p.Src]++
	if d.nets[first].TryInject(p) {
		return true
	}
	return d.nets[1-first].TryInject(p)
}

// Tick advances both slices. With a shard budget above one the slices —
// independent networks that never touch each other's state mid-cycle —
// overlap: both dispatch their shard groups to the executor before either
// joins, so a Double run uses its full budget even when each slice clamps
// to few shards. The serial order (slice 0 then slice 1) is preserved for
// the epilogues, keeping results bit-identical to sequential ticking.
func (d *Double) Tick() {
	if d.overlap {
		d.nets[0].tickAsync()
		d.nets[1].tickAsync()
		d.nets[0].tickJoin()
		d.nets[1].tickJoin()
		return
	}
	for _, n := range d.nets {
		n.Tick()
	}
}

// Delivered merges deliveries from both slices, slice 0 first. When only
// one slice delivered, its batch is returned as is; a two-slice batch is
// copied into a per-node buffer owned by d. Either way the result is valid
// until the next Delivered call for node.
func (d *Double) Delivered(node NodeID) []*Packet {
	a := d.nets[0].Delivered(node)
	b := d.nets[1].Delivered(node)
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := append(append(d.merged[node][:0], a...), b...)
	d.merged[node] = out
	return out
}

// Cycle returns elapsed cycles (slices tick in lockstep).
func (d *Double) Cycle() uint64 { return d.nets[0].Cycle() }

// Quiet reports whether both slices are empty.
func (d *Double) Quiet() bool { return d.nets[0].Quiet() && d.nets[1].Quiet() }

// Health returns the first slice's verdict that is non-nil.
func (d *Double) Health() error {
	for _, n := range d.nets {
		if err := n.Health(); err != nil {
			return err
		}
	}
	return nil
}

// NextWorkCycle returns the earlier of the two slices' horizons; the
// slices tick in lockstep so their cycle counters agree.
func (d *Double) NextWorkCycle() uint64 {
	a, b := d.nets[0].NextWorkCycle(), d.nets[1].NextWorkCycle()
	if b < a {
		return b
	}
	return a
}

// SkipAhead credits k idle ticks to both slices (serially, matching the
// epilogue order of Tick).
func (d *Double) SkipAhead(k uint64) {
	d.nets[0].SkipAhead(k)
	d.nets[1].SkipAhead(k)
}

// Stats merges both slices' counters into a fresh snapshot.
func (d *Double) Stats() *NetStats {
	a, b := d.nets[0].Stats(), d.nets[1].Stats()
	merged := &NetStats{
		Cycles:   a.Cycles,
		FlitHops: a.FlitHops + b.FlitHops,
	}
	merged.InjectedFlits = addSlices(a.InjectedFlits, b.InjectedFlits)
	merged.InjectedPackets = addSlices(a.InjectedPackets, b.InjectedPackets)
	merged.InjectedBytes = addSlices(a.InjectedBytes, b.InjectedBytes)
	merged.EjectedFlits = addSlices(a.EjectedFlits, b.EjectedFlits)
	merged.NetLatency = a.NetLatency.Merge(b.NetLatency)
	merged.TotalLatency = a.TotalLatency.Merge(b.TotalLatency)
	for c := range merged.LatencyByClass {
		merged.LatencyByClass[c] = a.LatencyByClass[c].Merge(b.LatencyByClass[c])
	}
	merged.CorruptFlits = a.CorruptFlits + b.CorruptFlits
	merged.DroppedPackets = a.DroppedPackets + b.DroppedPackets
	merged.DroppedFlits = a.DroppedFlits + b.DroppedFlits
	merged.DuplicatePackets = a.DuplicatePackets + b.DuplicatePackets
	merged.Retransmits = a.Retransmits + b.Retransmits
	merged.LostPackets = a.LostPackets + b.LostPackets
	merged.LostCredits = a.LostCredits + b.LostCredits
	merged.StuckVCFaults = a.StuckVCFaults + b.StuckVCFaults
	merged.RetriesPerPacket = a.RetriesPerPacket.Merge(b.RetriesPerPacket)
	return merged
}

func addSlices(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
