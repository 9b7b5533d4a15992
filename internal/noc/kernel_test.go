package noc

import (
	"testing"

	"repro/internal/xrand"
)

// refPickRR is an obviously-correct reference for pickRR: scan the cyclic
// order starting at the pointer and return the first bidder.
func refPickRR(bidders []int, ptr, n int) int {
	has := make(map[int]bool, len(bidders))
	for _, b := range bidders {
		has[b] = true
	}
	for o := 0; o < n; o++ {
		if idx := (ptr + o) % n; has[idx] {
			return idx
		}
	}
	return -1
}

// TestPickRRMatchesReference exercises pickRR over every pointer position
// (including the post-win resting value n, which behaves as 0) and random
// bidder sets, for several index-space sizes.
func TestPickRRMatchesReference(t *testing.T) {
	rng := xrand.New(42)
	for _, n := range []int{2, 4, 9, 24} {
		for ptr := 0; ptr <= n; ptr++ {
			for trial := 0; trial < 20; trial++ {
				var bidders []int
				for b := 0; b < n; b++ {
					if rng.Intn(3) == 0 {
						bidders = append(bidders, b)
					}
				}
				if len(bidders) == 0 {
					bidders = append(bidders, rng.Intn(n))
				}
				p := ptr
				got := pickRR(bidders, &p, n)
				want := refPickRR(bidders, ptr, n)
				if got != want {
					t.Fatalf("pickRR(n=%d, ptr=%d, %v) = %d, want %d", n, ptr, bidders, got, want)
				}
				if p != got+1 {
					t.Fatalf("pointer after win = %d, want %d", p, got+1)
				}
			}
		}
	}
}

// TestPickRRWrapAfterLastIndexWin is the regression for the old 1<<20 wrap
// sentinel: after a win at index n-1 the pointer rests at n, and the next
// allocation must treat every bidder as wrapped, preferring index 0.
func TestPickRRWrapAfterLastIndexWin(t *testing.T) {
	n := 6
	ptr := 0
	if got := pickRR([]int{n - 1}, &ptr, n); got != n-1 {
		t.Fatalf("first pick = %d, want %d", got, n-1)
	}
	if ptr != n {
		t.Fatalf("pointer = %d, want %d", ptr, n)
	}
	if got := pickRR([]int{0, 2, n - 1}, &ptr, n); got != 0 {
		t.Fatalf("wrapped pick = %d, want 0 (cyclic restart)", got)
	}
}

// TestChannelPartialDelivery checks a flit channel delivers exactly the due
// prefix of its (monotonic) event queue, leaving later flits in flight.
func TestChannelPartialDelivery(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	ch := m.meshNet.flitChans[0]
	buf := &ch.dst.inputs[ch.dst.vcIdx(ch.dstPort, 0)].buf
	ch.send(Flit{VC: 0, Head: true, Tail: true}, 3)
	ch.send(Flit{VC: 0, Head: true, Tail: true}, 5)
	ch.send(Flit{VC: 0, Head: true, Tail: true}, 9)
	ch.deliver(2)
	if buf.Len() != 0 || ch.q.Len() != 3 {
		t.Fatalf("before due: delivered %d, queued %d", buf.Len(), ch.q.Len())
	}
	ch.deliver(5)
	if buf.Len() != 2 || ch.q.Len() != 1 {
		t.Fatalf("at cycle 5: delivered %d (want 2), queued %d (want 1)", buf.Len(), ch.q.Len())
	}
	ch.deliver(9)
	if buf.Len() != 3 || ch.q.Len() != 0 {
		t.Fatalf("at cycle 9: delivered %d (want 3), queued %d (want 0)", buf.Len(), ch.q.Len())
	}
}

// TestCreditChannelOutOfOrderDues checks credit delivery with non-monotonic
// due times (the fault model's resync delay): due credits are returned even
// when queued behind later ones, and the remainder is compacted in order.
func TestCreditChannelOutOfOrderDues(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	cc := m.meshNet.credChans[0]
	out := &cc.dst.outputs[cc.dst.vcIdx(cc.dstPort, 0)]
	out.credits = 0 // make room so returned credits are countable
	for _, due := range []uint64{5, 2, 9, 1} {
		cc.send(0, due)
	}
	cc.deliver(4)
	if out.credits != 2 {
		t.Fatalf("credits after cycle 4 = %d, want 2 (dues 2 and 1)", out.credits)
	}
	if cc.q.Len() != 2 || cc.q.At(0).due != 5 || cc.q.At(1).due != 9 {
		t.Fatalf("remainder not compacted in order: len %d", cc.q.Len())
	}
	cc.deliver(9)
	if out.credits != 4 || cc.q.Len() != 0 {
		t.Fatalf("after cycle 9: credits %d (want 4), queued %d (want 0)", out.credits, cc.q.Len())
	}
}

// TestDrainEjectedPartial checks drainEjected visits only matured flits and
// keeps the ejection-work counter consistent across partial drains.
func TestDrainEjectedPartial(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	r := m.meshNet.routers[0]
	for _, due := range []uint64{1, 2, 5} {
		r.ejQ[0].Push(flitEvent{flit: Flit{Head: true, Tail: true}, due: due})
		r.ejCount++
	}
	visits := 0
	r.drainEjected(2, func(Flit) { visits++ })
	if visits != 2 || r.ejCount != 1 || r.ejQ[0].Len() != 1 {
		t.Fatalf("partial drain: visits=%d ejCount=%d queued=%d, want 2/1/1",
			visits, r.ejCount, r.ejQ[0].Len())
	}
	r.drainEjected(5, func(Flit) { visits++ })
	if visits != 3 || r.ejCount != 0 || r.ejQ[0].Len() != 0 {
		t.Fatalf("final drain: visits=%d ejCount=%d queued=%d, want 3/0/0",
			visits, r.ejCount, r.ejQ[0].Len())
	}
}
