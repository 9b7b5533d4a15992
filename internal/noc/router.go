package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
)

// maxVCs bounds Config.NumVCs at the width of the router's per-port VC
// masks.
const maxVCs = 64

// vcState is the lifecycle of an input virtual channel.
type vcState int

const (
	vcIdle   vcState = iota // no packet, or next head not yet route-computed
	vcWaitVA                // route computed, waiting for an output VC
	vcActive                // output VC held, flits compete in switch allocation
)

// inVC is one input virtual channel: a flit FIFO plus allocation state.
type inVC struct {
	buf     ring.Ring[Flit]
	state   vcState
	outPort int   // granted output port (valid from vcWaitVA on)
	outVC   int   // granted output VC (valid in vcActive)
	allowed []int // output VCs this packet may use at this hop
	readyAt uint64
}

// outVC is the book-keeping for one (output port, VC) pair.
type outVC struct {
	credits int // free buffer slots at the downstream input VC
	owner   int // input index holding this VC, or -1 when free
}

// pipeDelays maps a router pipeline depth to stage delays. The uncontended
// per-hop latency is rc+va+st+channelLatency, so the paper's 4-stage router
// with 1-cycle channels costs 5 cycles per hop, and the aggressive 1-cycle
// router costs 2.
func pipeDelays(stages int) (rc, va, st uint64) {
	switch {
	case stages <= 1:
		return 0, 0, 1
	case stages == 2:
		return 0, 1, 1
	default:
		return uint64(stages) - 2, 1, 1
	}
}

// routerParams configures one router instance.
type routerParams struct {
	node     NodeID
	half     bool // half-router: no turns between dimensions (§IV-A)
	numVCs   int
	bufDepth int
	nInj     int // injection (terminal input) ports
	nEj      int // ejection (terminal output) ports
	stages   int // pipeline depth (4 baseline, 3 half, 1 aggressive)
	chanLat  uint64
	credLat  uint64
	ejCap    int // ejection queue capacity, in flits
}

// router is a VC wormhole router with separable round-robin (iSLIP-style)
// VC and switch allocation.
type router struct {
	p    routerParams
	net  *meshNet
	sh   *meshShard // owning column-band shard (assigned by buildShards)
	rcD  uint64
	vaD  uint64
	stD  uint64
	nIn  int // 4 dirs + nInj
	nOut int // 4 dirs + nEj

	// inputs and outputs are flat, indexed by vcIdx(port, vc); an output
	// VC's index doubles as its VC-allocation key.
	inputs  []inVC
	outputs []outVC

	// Per-input-port VC work masks, bit v standing for VC v:
	//   rcMask: idle VCs with a buffered head, waiting for route computation;
	//   vaMask: VCs in vcWaitVA;
	//   saMask: vcActive VCs with at least one buffered flit.
	// They change only where a VC's state or occupancy does (acceptFlit, the
	// RC and VA transitions, traverse), so each allocation phase visits just
	// the VCs that can act. Walking a mask's bits in ascending (port, VC)
	// order is the order of a dense scan, so arbitration is unchanged.
	rcMask []uint64
	vaMask []uint64
	saMask []uint64

	outChans  []*channel       // per dir output port; nil at mesh edge
	credChans []*creditChannel // per dir input port, back to upstream; nil at edge or terminal

	ejQ []ring.Ring[flitEvent] // per ejection port

	// busy counts input VCs holding work (buffered flits or allocation
	// state); step is a no-op at busy == 0, so the network skips the router.
	// ejCount counts flits across the ejection queues, the analogous
	// condition for the ejection phase.
	busy    int
	ejCount int

	// stuck[vcIdx(port, vc)] holds the cycle until which a stuck-VC fault
	// freezes that input VC's switch allocation; nil when faults are disabled.
	stuck []uint64

	// Round-robin pointers.
	vaPtr    []int // per outPort*numVCs+outVC, over input index
	saInPtr  []int // per input port, over VCs
	saOutPtr []int // per output port, over input ports
	ejRR     int

	// Allocation scratch, reused across cycles: vaBids[key] holds the input
	// indices bidding for output VC key = outPort*numVCs+outVC and vaKeys the
	// dirty keys in discovery order; saBids[out] holds the switch bidders per
	// output port. All preallocated to their worst case, so the allocators
	// never touch the heap.
	vaBids [][]int
	vaKeys []int
	saBids [][]int
}

func newRouter(p routerParams, net *meshNet) *router {
	r := &router{p: p, net: net}
	r.rcD, r.vaD, r.stD = pipeDelays(p.stages)
	r.nIn = int(numDirs) + p.nInj
	r.nOut = int(numDirs) + p.nEj
	r.inputs = make([]inVC, r.nIn*p.numVCs)
	for i := range r.inputs {
		r.inputs[i].outPort = -1
		r.inputs[i].buf = ring.New[Flit](p.bufDepth, p.bufDepth)
	}
	r.outputs = make([]outVC, r.nOut*p.numVCs)
	for i := range r.outputs {
		r.outputs[i].owner = -1
	}
	r.rcMask = make([]uint64, r.nIn)
	r.vaMask = make([]uint64, r.nIn)
	r.saMask = make([]uint64, r.nIn)
	r.outChans = make([]*channel, numDirs)
	r.credChans = make([]*creditChannel, numDirs)
	r.ejQ = make([]ring.Ring[flitEvent], p.nEj)
	for e := range r.ejQ {
		r.ejQ[e] = ring.New[flitEvent](p.ejCap, p.ejCap)
	}
	r.vaPtr = make([]int, r.nOut*p.numVCs)
	r.saInPtr = make([]int, r.nIn)
	r.saOutPtr = make([]int, r.nOut)
	r.vaBids = make([][]int, r.nOut*p.numVCs)
	for i := range r.vaBids {
		r.vaBids[i] = make([]int, 0, r.nIn*p.numVCs)
	}
	r.vaKeys = make([]int, 0, r.nOut*p.numVCs)
	r.saBids = make([][]int, r.nOut)
	for i := range r.saBids {
		r.saBids[i] = make([]int, 0, r.nIn)
	}
	if net != nil && net.fs != nil {
		r.stuck = make([]uint64, r.nIn*p.numVCs)
	}
	return r
}

// vcIdx is the flat index of (port, vc) in inputs or outputs.
func (r *router) vcIdx(port, vc int) int { return port*r.p.numVCs + vc }

// acceptFlit enqueues an arriving flit into its input VC buffer. Credit
// accounting upstream guarantees space; overflow means a protocol bug.
// A flit landing on a fully idle VC is new work: it raises the busy count,
// puts the router on the network's active list and waits for route
// computation. A flit landing on an empty active VC makes it a switch
// bidder again.
func (r *router) acceptFlit(port int, f Flit, cycle uint64) {
	ivc := &r.inputs[r.vcIdx(port, f.VC)]
	if ivc.buf.Full() {
		panic(fmt.Sprintf("noc: router %d port %d vc %d buffer overflow", r.p.node, port, f.VC))
	}
	f.arrived = cycle
	if ivc.buf.Len() == 0 {
		switch ivc.state {
		case vcIdle:
			r.busy++
			r.sh.rtrActive.set(int(r.p.node))
			r.rcMask[port] |= 1 << uint(f.VC)
		case vcActive:
			r.saMask[port] |= 1 << uint(f.VC)
		}
	}
	ivc.buf.Push(f)
}

// acceptCredit returns a buffer slot for (output port, vc).
func (r *router) acceptCredit(port, vc int) {
	o := &r.outputs[r.vcIdx(port, vc)]
	o.credits++
	if o.credits > r.p.bufDepth {
		panic(fmt.Sprintf("noc: router %d port %d vc %d credit overflow", r.p.node, port, vc))
	}
}

// injSpace reports free slots in an injection port VC buffer (used by the
// network interface, which writes flits directly).
func (r *router) injSpace(injPort, vc int) int {
	return r.p.bufDepth - r.inputs[r.vcIdx(int(numDirs)+injPort, vc)].buf.Len()
}

// injectFlit writes one flit into an injection buffer.
func (r *router) injectFlit(injPort int, f Flit, cycle uint64) {
	r.acceptFlit(int(numDirs)+injPort, f, cycle)
}

// legalOutput reports whether this router can forward from input port in to
// output port out. Half-routers cannot change dimension (§IV-A, Fig 13).
func (r *router) legalOutput(in, out int) bool {
	inDir := in < int(numDirs)
	outDir := out < int(numDirs)
	if !inDir || !outDir {
		return true // terminal ports connect to everything
	}
	if in == out {
		return false // no U-turns
	}
	if !r.p.half {
		return true
	}
	return Port(out) == Port(in).opposite()
}

// step runs one router cycle: route computation, VC allocation, switch
// allocation and switch traversal.
func (r *router) step(cycle uint64) {
	r.routeCompute(cycle)
	r.vcAllocate(cycle)
	r.switchAllocate(cycle)
}

// routeCompute processes new head flits at the front of idle VCs: every
// VC in rcMask moves to vcWaitVA this cycle.
func (r *router) routeCompute(cycle uint64) {
	n := r.p.numVCs
	for in, m := range r.rcMask {
		if m == 0 {
			continue
		}
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			ivc := &r.inputs[in*n+v]
			head := ivc.buf.Front()
			if !head.Head {
				panic(fmt.Sprintf("noc: router %d: non-head flit (pkt %d seq %d) at front of idle vc",
					r.p.node, head.Pkt.ID, head.Seq))
			}
			pkt := head.Pkt
			out, eject := r.net.backend.NextHop(r.p.node, pkt)
			outPort := int(out)
			if eject {
				outPort = int(numDirs) + r.ejRR
				r.ejRR = (r.ejRR + 1) % r.p.nEj
			}
			if !r.legalOutput(in, outPort) {
				panic(fmt.Sprintf("noc: illegal turn at router %d (half=%v): in %d -> out %d for pkt %d (%d->%d)",
					r.p.node, r.p.half, in, outPort, pkt.ID, pkt.Src, pkt.Dst))
			}
			ivc.outPort = outPort
			ivc.allowed = r.net.vcs.allowed(pkt.Class, pkt.YXPhase)
			ivc.state = vcWaitVA
			// Heads that queued behind a previous packet already overlapped
			// their buffer-write/RC stages with its drain.
			ivc.readyAt = head.arrived + r.rcD
			if ivc.readyAt < cycle {
				ivc.readyAt = cycle
			}
		}
		r.vaMask[in] |= r.rcMask[in]
		r.rcMask[in] = 0
	}
}

// vcAllocate matches waiting input VCs to free output VCs: each input VC
// bids for the first free VC in its allowed set; each contested output VC
// grants round-robin. Grants are processed in key-discovery order; they are
// independent per key (every input VC bids on exactly one key), so the
// order does not affect the outcome.
func (r *router) vcAllocate(cycle uint64) {
	n := r.p.numVCs
	for in, m := range r.vaMask {
		for ; m != 0; m &= m - 1 {
			idx := in*n + bits.TrailingZeros64(m)
			ivc := &r.inputs[idx]
			if ivc.readyAt > cycle {
				continue
			}
			base := ivc.outPort * n
			for _, ov := range ivc.allowed {
				key := base + ov
				if r.outputs[key].owner < 0 {
					if len(r.vaBids[key]) == 0 {
						r.vaKeys = append(r.vaKeys, key)
					}
					r.vaBids[key] = append(r.vaBids[key], idx)
					break
				}
			}
		}
	}
	for _, key := range r.vaKeys {
		bidders := r.vaBids[key]
		winner := pickRR(bidders, &r.vaPtr[key], len(r.inputs))
		ivc := &r.inputs[winner]
		r.outputs[key].owner = winner
		ivc.outVC = key % n
		ivc.state = vcActive
		ivc.readyAt = cycle + r.vaD
		// The head is still buffered, so the VC becomes a switch bidder.
		in, bit := winner/n, uint64(1)<<uint(winner%n)
		r.vaMask[in] &^= bit
		r.saMask[in] |= bit
		r.vaBids[key] = bidders[:0]
	}
	r.vaKeys = r.vaKeys[:0]
}

// switchAllocate picks one flit per input port and one per output port
// (input-first separable allocation) and traverses the switch. Grants run
// in output-port order: traverse draws from the fault RNG (credit-loss per
// send), so the iteration order must be deterministic for equal-seeded runs
// to stay bit-identical.
func (r *router) switchAllocate(cycle uint64) {
	for in, m := range r.saMask {
		if m == 0 {
			continue
		}
		idx, ok := r.pickSAInput(in, m, cycle)
		if !ok {
			continue
		}
		out := r.inputs[idx].outPort
		r.saBids[out] = append(r.saBids[out], idx)
	}
	for out := 0; out < r.nOut; out++ {
		bidders := r.saBids[out]
		if len(bidders) == 0 {
			continue
		}
		winner := pickRR(bidders, &r.saOutPtr[out], len(r.inputs))
		r.traverse(winner, cycle)
		r.saBids[out] = bidders[:0]
	}
}

// pickSAInput selects, round-robin, an eligible VC at input port in, whose
// saMask is m, and returns its flat index. It walks m rotated at
// saInPtr[in] — the bits at or after the pointer, then the wrapped ones —
// which is the candidate order of a cyclic scan starting at the pointer.
func (r *router) pickSAInput(in int, m, cycle uint64) (int, bool) {
	n := r.p.numVCs
	start := uint(r.saInPtr[in])
	for _, part := range [2]uint64{m >> start << start, m & (1<<start - 1)} {
		for ; part != 0; part &= part - 1 {
			v := bits.TrailingZeros64(part)
			idx := in*n + v
			ivc := &r.inputs[idx]
			if ivc.readyAt > cycle {
				continue
			}
			if r.stuck != nil && r.stuck[idx] > cycle {
				continue // transient stuck-VC fault freezes this VC's allocation
			}
			if !r.outputReady(ivc.outPort, ivc.outVC) {
				continue
			}
			r.saInPtr[in] = (v + 1) % n
			return idx, true
		}
	}
	return 0, false
}

// outputReady reports whether a flit can leave via (port, vc) this cycle:
// a downstream credit for direction ports, a queue slot for ejection ports.
func (r *router) outputReady(port, vc int) bool {
	if port < int(numDirs) {
		return r.outputs[r.vcIdx(port, vc)].credits > 0
	}
	return !r.ejQ[port-int(numDirs)].Full()
}

// traverse moves the front flit of input VC idx through the switch.
func (r *router) traverse(idx int, cycle uint64) {
	n := r.p.numVCs
	in, v := idx/n, idx%n
	ivc := &r.inputs[idx]
	f := ivc.buf.Pop()
	op, ov := ivc.outPort, ivc.outVC
	o := &r.outputs[op*n+ov]
	f.VC = ov
	if op < int(numDirs) {
		o.credits--
		r.outChans[op].send(f, cycle+r.stD+r.p.chanLat)
	} else {
		r.ejQ[op-int(numDirs)].Push(flitEvent{flit: f, due: cycle + r.stD})
		r.ejCount++
		r.sh.ejActive.set(int(r.p.node))
	}
	r.sh.flitHops++
	r.sh.moves++
	if f.Head {
		r.sh.noteHop(f.Pkt, r.p.node)
	}
	// Return the freed buffer slot upstream (direction inputs only; the
	// network interface reads injection buffer occupancy directly).
	if in < int(numDirs) && r.credChans[in] != nil {
		r.credChans[in].send(v, cycle+r.p.credLat)
	}
	bit := uint64(1) << uint(v)
	switch {
	case f.Tail:
		o.owner = -1
		ivc.state = vcIdle
		ivc.outPort = -1
		ivc.allowed = nil
		r.saMask[in] &^= bit
		if ivc.buf.Len() > 0 {
			r.rcMask[in] |= bit // the next packet's head is already buffered
		} else {
			r.busy--
		}
	case ivc.buf.Len() == 0:
		r.saMask[in] &^= bit // holds its output VC, waits for body flits
	}
}

// drainEjected pops all arrived flits from the ejection queues.
func (r *router) drainEjected(cycle uint64, visit func(Flit)) {
	for e := range r.ejQ {
		q := &r.ejQ[e]
		for q.Len() > 0 && q.Front().due <= cycle {
			r.ejCount--
			visit(q.Pop().flit)
		}
	}
}

// pickRR chooses the first bidder at or after *ptr in cyclic order over the
// index space [0, n), then advances the pointer past the winner. Bidders are
// input indices in [0, n) and the pointer rests in [0, n] (n after a
// last-index win), so one conditional add of n restores the cyclic distance
// for bidders that wrapped below the pointer.
func pickRR(bidders []int, ptr *int, n int) int {
	best := -1
	bestKey := 0
	for _, b := range bidders {
		key := b - *ptr
		if key < 0 {
			key += n // wrap below pointer to the end of the order
		}
		if best < 0 || key < bestKey {
			best, bestKey = b, key
		}
	}
	*ptr = best + 1
	return best
}
