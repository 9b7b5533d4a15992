package noc

import "repro/internal/ring"

// injWriter streams one packet's flits into an injection buffer VC. Flits
// are synthesized on the fly from (pkt, next) rather than materialized as a
// slice, so starting a packet allocates nothing. A writer with pkt == nil
// is free.
type injWriter struct {
	pkt   *Packet
	next  int // next flit sequence to write
	total int // flit count of pkt
	vc    int
}

// netIface is the per-node network interface: bounded source queues feeding
// the router's injection port(s), and packet reassembly on the ejection
// side. Each injection port writes at most one flit per cycle, so a 2-port
// MC router has twice the terminal injection bandwidth (§IV-D).
type netIface struct {
	node    NodeID
	rtr     *router
	net     *meshNet
	srcQ    [NumClasses]ring.Ring[*Packet]
	writers [][]injWriter // [injPort][vc]
	pend    int           // queued packets + in-progress writers; injectStep is a no-op at 0
	classRR int

	// delivered/spare double-buffer the per-tick delivery batch: Delivered
	// swaps them instead of dropping the slice, so the steady state reuses
	// two backing arrays per node instead of allocating one per batch.
	delivered []*Packet
	spare     []*Packet
}

func newNetIface(node NodeID, rtr *router, net *meshNet) *netIface {
	ni := &netIface{node: node, rtr: rtr, net: net}
	for c := range ni.srcQ {
		ni.srcQ[c] = ring.New[*Packet](net.cfg.SrcQueueCap, net.cfg.SrcQueueCap)
	}
	ni.writers = make([][]injWriter, rtr.p.nInj)
	for p := range ni.writers {
		ni.writers[p] = make([]injWriter, rtr.p.numVCs)
	}
	return ni
}

// enqueue appends p to its class's source queue and marks the interface
// active. The caller has already checked CanInject.
func (ni *netIface) enqueue(p *Packet) {
	ni.srcQ[p.Class].Push(p)
	ni.pend++
	ni.rtr.sh.injActive.set(int(ni.node))
}

// injectStep advances injection by up to one flit per port.
func (ni *netIface) injectStep(cycle uint64) {
	for port := range ni.writers {
		if ni.continueWrite(port, cycle) {
			continue
		}
		ni.startWrite(port, cycle)
	}
}

// continueWrite pushes the next flit of an in-progress packet on port,
// returning whether a flit was written.
func (ni *netIface) continueWrite(port int, cycle uint64) bool {
	for v := range ni.writers[port] {
		w := &ni.writers[port][v]
		if w.pkt == nil {
			continue
		}
		if ni.rtr.injSpace(port, v) == 0 {
			continue
		}
		ni.writeFlit(port, w, cycle)
		return true
	}
	return false
}

// startWrite begins injecting the next queued packet on port, if any class
// has a packet whose VC set offers a free writer slot with buffer space.
func (ni *netIface) startWrite(port int, cycle uint64) {
	for k := 0; k < int(NumClasses); k++ {
		class := TrafficClass((ni.classRR + k) % int(NumClasses))
		q := &ni.srcQ[class]
		if q.Len() == 0 {
			continue
		}
		pkt := *q.Front()
		vc := ni.pickInjVC(port, pkt)
		if vc < 0 {
			continue
		}
		q.Pop() // the packet stays counted in pend until its writer finishes
		ni.classRR = (int(class) + 1) % int(NumClasses)
		pkt.InjectedAt = cycle
		pkt.flits = ni.net.flitsFor(pkt.Bytes)
		ni.net.stats.InjectedPackets[ni.node]++
		ni.net.stats.InjectedBytes[ni.node] += uint64(pkt.Bytes)
		w := &ni.writers[port][vc]
		*w = injWriter{pkt: pkt, total: pkt.flits, vc: vc}
		ni.writeFlit(port, w, cycle)
		return
	}
}

// pickInjVC returns a VC from the packet's allowed set with no in-progress
// writer on this port and at least one free buffer slot, or -1.
func (ni *netIface) pickInjVC(port int, pkt *Packet) int {
	for _, v := range ni.net.vcs.allowed(pkt.Class, pkt.YXPhase) {
		if ni.writers[port][v].pkt == nil && ni.rtr.injSpace(port, v) > 0 {
			return v
		}
	}
	return -1
}

func (ni *netIface) writeFlit(port int, w *injWriter, cycle uint64) {
	f := Flit{
		Pkt:  w.pkt,
		Seq:  w.next,
		Head: w.next == 0,
		Tail: w.next == w.total-1,
		VC:   w.vc,
	}
	ni.rtr.injectFlit(port, f, cycle)
	w.next++
	ni.net.stats.InjectedFlits[ni.node]++
	ni.rtr.sh.moves++
	if w.next == w.total {
		w.pkt = nil
		ni.pend--
	}
}

// ejectStep drains arrived flits and assembles packets. Flits of one packet
// arrive in order, but packets on different VCs may interleave, so assembly
// counts the ejected flits on each packet: every wire packet, retransmission
// clones included, is its own Packet, and TryInject zeroes the count.
// Latency observations are order-sensitive float sums, so they are deferred
// into the shard's sample buffer and replayed in serial (node-ascending)
// order by the cycle epilogue.
func (ni *netIface) ejectStep(cycle uint64) {
	sh := ni.rtr.sh
	ni.rtr.drainEjected(cycle, func(f Flit) {
		ni.net.stats.EjectedFlits[ni.node]++
		sh.moves++
		pkt := f.Pkt
		pkt.ejected++
		if pkt.ejected < pkt.flits {
			return
		}
		pkt.ArrivedAt = cycle
		sh.assembled++
		if ni.net.fs != nil && !ni.net.fs.onAssembled(ni.net, pkt) {
			return // failed the end-to-end check: corrupt, duplicate or lost
		}
		ni.delivered = append(ni.delivered, pkt)
		sh.samples = append(sh.samples, latSample{
			node:  ni.node,
			net:   float64(pkt.NetworkLatency()),
			tot:   float64(pkt.TotalLatency()),
			class: pkt.Class,
		})
	})
}
