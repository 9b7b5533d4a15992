// Package noc implements the cycle-level on-chip network models of the
// paper: a 2D mesh of virtual-channel wormhole routers (full and half
// routers, multi-port memory-controller routers), dimension-order and
// checkerboard routing, credit-based flow control, channel-sliced double
// networks, and idealized (zero-latency) networks for limit studies.
package noc

import "fmt"

// NodeID identifies a mesh tile: id = y*width + x.
type NodeID int

// TrafficClass separates request and reply traffic, which must use disjoint
// virtual channels (or disjoint physical networks) to avoid protocol
// deadlock.
type TrafficClass int

// Traffic classes.
const (
	ClassRequest TrafficClass = iota
	ClassReply
	NumClasses
)

// String names the class.
func (c TrafficClass) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassReply:
		return "reply"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Packet is one network transaction. Routing state (YX flag, intermediate
// node) is planned at injection by the routing algorithm and consumed by
// per-hop route computation.
type Packet struct {
	ID    uint64
	Src   NodeID
	Dst   NodeID
	Class TrafficClass
	Bytes int // payload size; flit count = ceil(Bytes/flitBytes)

	// Routing state for checkerboard routing (§IV-B).
	YXPhase      bool   // currently routing Y-first
	Intermediate NodeID // CR case-2 intermediate full-router; < 0 when unused

	// Line and Write carry the closed-loop memory protocol's payload (a
	// cache-line address and the read/write flag) without boxing it into
	// Meta: storing a uint64 or a struct in an interface{} allocates on
	// every packet, which the allocation-free cycle kernel forbids. Traffic
	// harnesses with richer payloads may still use Meta; the two coexist.
	Line  uint64
	Write bool

	Meta interface{} // opaque caller payload (nil on the closed-loop hot path)

	// Timing, in network cycles.
	OfferedAt  uint64 // when handed to the network interface
	InjectedAt uint64 // when the head flit entered the injection buffer
	ArrivedAt  uint64 // when the last flit was ejected

	flits   int // cached flit count
	ejected int // flits ejected at the destination so far (reassembly)

	// Resilience state (used only when fault injection is enabled).
	lid     uint64 // logical transfer id: wire ID of the first attempt
	attempt int    // 1-based transmission attempt this wire packet carries
	corrupt bool   // a link fault struck a flit; discard at the ejection NI
	hops    int    // switch traversals so far, for the livelock budget
}

// Attempt returns which end-to-end transmission attempt this wire packet
// was (1 = original injection, 0 = fault injection disabled).
func (p *Packet) Attempt() int { return p.attempt }

// Corrupt reports whether a link fault struck one of the packet's flits;
// such packets fail their end-to-end check and are dropped at the ejection
// network interface, to be recovered by retransmission.
func (p *Packet) Corrupt() bool { return p.corrupt }

// NetworkLatency is the in-network latency (head injection to tail arrival).
func (p *Packet) NetworkLatency() uint64 { return p.ArrivedAt - p.InjectedAt }

// TotalLatency includes source-queue waiting time.
func (p *Packet) TotalLatency() uint64 { return p.ArrivedAt - p.OfferedAt }

// Flit is the flow-control unit. Flits of one packet always travel in order
// on a single virtual channel per link.
type Flit struct {
	Pkt  *Packet
	Seq  int // 0-based position within the packet
	Head bool
	Tail bool
	VC   int // virtual channel on the link the flit currently occupies

	arrived uint64 // cycle the flit entered its current input buffer; lets a
	// queued head overlap its buffer-write/RC stages with the
	// previous packet's drain (pipelined routers do this)
}

// PacketPool is a free list of Packet objects for steady-state
// allocation-free simulation. A run's packet population is bounded by the
// in-flight work, so after warm-up every Get is served from the free list
// and the cycle loop performs no heap allocation for packets.
//
// The pool is deliberately NOT safe for concurrent use: each simulation run
// is single-threaded (the parallel experiment runner isolates runs in
// separate goroutines with separate pools), and a mutex or sync.Pool would
// put synchronization on the hot path for no benefit. Ownership contract:
// whoever drains a packet from the network (ejection-side consumer) is
// responsible for returning it with Put once the payload is extracted;
// packets still referenced anywhere must never be Put.
type PacketPool struct {
	free []*Packet
	gets uint64 // total Get calls
	news uint64 // Gets that had to allocate
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pp *PacketPool) Get() *Packet {
	pp.gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		return p
	}
	pp.news++
	return &Packet{}
}

// Put recycles p. The caller must hold the only live reference.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pp.free = append(pp.free, p)
}

// Stats reports (total Gets, Gets that allocated); the difference is the
// number of reuses, a direct measure of steady-state pooling health.
func (pp *PacketPool) Stats() (gets, news uint64) { return pp.gets, pp.news }

// flitCount returns the number of flits a payload of n bytes needs on links
// with the given flit size.
func flitCount(n, flitBytes int) int {
	if n <= 0 {
		return 1
	}
	return (n + flitBytes - 1) / flitBytes
}

// makeFlits materializes the flits of p for a network with the given flit
// size.
func makeFlits(p *Packet, flitBytes int) []Flit {
	n := flitCount(p.Bytes, flitBytes)
	p.flits = n
	fs := make([]Flit, n)
	for i := range fs {
		fs[i] = Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == n-1}
	}
	return fs
}
