package cache

import (
	"fmt"

	"repro/internal/addr"
)

// Waiter is an opaque token identifying who is waiting on a miss (for the
// GPU cores it encodes a warp). It is returned verbatim by Fill.
type Waiter uint64

// MSHR is a miss-status holding register table: it tracks outstanding line
// misses and merges later misses to a line already being fetched, so only
// one request per line is in flight (the paper models 64 MSHRs per core).
type MSHR struct {
	capacity     int
	maxPerEntry  int
	entries      map[addr.Address][]Waiter
	free         [][]Waiter // waiter slices released by Fill, reused by Allocate
	mergedMisses uint64
	peak         int
}

// NewMSHR builds a table with the given number of entries. maxPerEntry
// bounds how many waiters may merge on one line (<=0 means unlimited).
func NewMSHR(capacity, maxPerEntry int) (*MSHR, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: MSHR capacity must be positive, got %d", capacity)
	}
	return &MSHR{
		capacity:    capacity,
		maxPerEntry: maxPerEntry,
		entries:     make(map[addr.Address][]Waiter, capacity),
		free:        make([][]Waiter, 0, capacity),
	}, nil
}

// MustNewMSHR is NewMSHR but panics on error.
func MustNewMSHR(capacity, maxPerEntry int) *MSHR {
	m, err := NewMSHR(capacity, maxPerEntry)
	if err != nil {
		panic(err)
	}
	return m
}

// Outcome reports what Allocate did.
type Outcome int

// Allocate outcomes.
const (
	// AllocNew means a new entry was created: the caller must send a
	// memory request for the line.
	AllocNew Outcome = iota
	// AllocMerged means the miss was merged onto an in-flight entry:
	// no new request is needed.
	AllocMerged
	// AllocStallFull means the table (or the entry's merge capacity) is
	// full: the access must be retried later.
	AllocStallFull
)

// Allocate records a miss on line by w. See Outcome for the contract.
func (m *MSHR) Allocate(line addr.Address, w Waiter) Outcome {
	if waiters, ok := m.entries[line]; ok {
		if m.maxPerEntry > 0 && len(waiters) >= m.maxPerEntry {
			return AllocStallFull
		}
		m.entries[line] = append(waiters, w)
		m.mergedMisses++
		return AllocMerged
	}
	if len(m.entries) >= m.capacity {
		return AllocStallFull
	}
	var waiters []Waiter
	if n := len(m.free); n > 0 {
		waiters = m.free[n-1][:0]
		m.free = m.free[:n-1]
	}
	m.entries[line] = append(waiters, w)
	if len(m.entries) > m.peak {
		m.peak = len(m.entries)
	}
	return AllocNew
}

// Pending reports whether line has an in-flight entry.
func (m *MSHR) Pending(line addr.Address) bool {
	_, ok := m.entries[line]
	return ok
}

// Fill completes the miss on line, releasing and returning all waiters.
// Filling a line with no entry returns nil (harmless, e.g. after a flush).
// The returned slice is recycled: it is valid only until the next Allocate.
func (m *MSHR) Fill(line addr.Address) []Waiter {
	waiters, ok := m.entries[line]
	if !ok {
		return nil
	}
	delete(m.entries, line)
	m.free = append(m.free, waiters)
	return waiters
}

// InFlight returns the number of occupied entries.
func (m *MSHR) InFlight() int { return len(m.entries) }

// Full reports whether a new (non-merging) allocation would stall.
func (m *MSHR) Full() bool { return len(m.entries) >= m.capacity }

// MergedMisses returns how many misses were merged onto existing entries.
func (m *MSHR) MergedMisses() uint64 { return m.mergedMisses }

// Peak returns the maximum simultaneous occupancy observed.
func (m *MSHR) Peak() int { return m.peak }
