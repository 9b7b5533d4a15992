package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestMSHRNewValidation(t *testing.T) {
	if _, err := NewMSHR(0, 0); err == nil {
		t.Error("capacity 0 should be rejected")
	}
	if _, err := NewMSHR(64, 8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := MustNewMSHR(4, 0)
	if got := m.Allocate(0x100, 1); got != AllocNew {
		t.Fatalf("first miss: got %v, want AllocNew", got)
	}
	if got := m.Allocate(0x100, 2); got != AllocMerged {
		t.Fatalf("second miss same line: got %v, want AllocMerged", got)
	}
	if m.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", m.InFlight())
	}
	if m.MergedMisses() != 1 {
		t.Errorf("MergedMisses = %d, want 1", m.MergedMisses())
	}
	waiters := m.Fill(0x100)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 {
		t.Errorf("Fill returned %v, want [1 2]", waiters)
	}
	if m.Pending(0x100) {
		t.Error("entry should be released after Fill")
	}
}

func TestMSHRCapacityStall(t *testing.T) {
	m := MustNewMSHR(2, 0)
	m.Allocate(0x0, 1)
	m.Allocate(0x40, 2)
	if !m.Full() {
		t.Error("table should be full")
	}
	if got := m.Allocate(0x80, 3); got != AllocStallFull {
		t.Errorf("allocation beyond capacity: got %v, want AllocStallFull", got)
	}
	// Merging is still allowed when full.
	if got := m.Allocate(0x0, 4); got != AllocMerged {
		t.Errorf("merge when full: got %v, want AllocMerged", got)
	}
}

func TestMSHRPerEntryMergeLimit(t *testing.T) {
	m := MustNewMSHR(4, 2)
	m.Allocate(0x0, 1)
	if got := m.Allocate(0x0, 2); got != AllocMerged {
		t.Fatalf("second waiter: got %v", got)
	}
	if got := m.Allocate(0x0, 3); got != AllocStallFull {
		t.Errorf("third waiter beyond merge limit: got %v, want AllocStallFull", got)
	}
}

func TestMSHRFillUnknownLine(t *testing.T) {
	m := MustNewMSHR(4, 0)
	if ws := m.Fill(0xdead); ws != nil {
		t.Errorf("fill of unknown line returned %v, want nil", ws)
	}
}

func TestMSHRPeak(t *testing.T) {
	m := MustNewMSHR(8, 0)
	for i := 0; i < 5; i++ {
		m.Allocate(addr.Address(i*64), Waiter(i))
	}
	m.Fill(0)
	m.Fill(64)
	if m.Peak() != 5 {
		t.Errorf("peak = %d, want 5", m.Peak())
	}
}

func TestMSHRPropertyConservation(t *testing.T) {
	// Property: every allocated waiter is returned by exactly one Fill.
	f := func(ops []uint16) bool {
		m := MustNewMSHR(8, 0)
		allocated := map[Waiter]bool{}
		released := map[Waiter]bool{}
		next := Waiter(0)
		lines := []addr.Address{0, 64, 128, 192}
		for _, op := range ops {
			line := lines[int(op)%len(lines)]
			if op%3 == 0 {
				for _, w := range m.Fill(line) {
					if released[w] {
						return false // double release
					}
					released[w] = true
				}
			} else {
				if out := m.Allocate(line, next); out != AllocStallFull {
					allocated[next] = true
					next++
				}
			}
		}
		// Drain remaining entries.
		for _, line := range lines {
			for _, w := range m.Fill(line) {
				if released[w] {
					return false
				}
				released[w] = true
			}
		}
		if len(allocated) != len(released) {
			return false
		}
		for w := range allocated {
			if !released[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRWarmCyclesDoNotAllocate(t *testing.T) {
	// Once warm, allocate/merge/fill cycles reuse the waiter slices Fill
	// released: no heap allocation per miss.
	m := MustNewMSHR(64, 8)
	base := addr.Address(0)
	cycle := func() {
		for i := 0; i < 64; i++ {
			line := base + addr.Address(i*64)
			m.Allocate(line, Waiter(i))
			m.Allocate(line, Waiter(i+1))
		}
		for i := 0; i < 64; i++ {
			m.Fill(base + addr.Address(i*64))
		}
		base += 64 * 64 // fresh lines every cycle
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm MSHR cycle allocates %v times, want 0", n)
	}
}
