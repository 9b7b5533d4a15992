// Package dram models one GDDR3 memory channel behind a memory controller:
// a bank state machine honoring the Table II timing parameters
// (tCL=9, tRP=13, tRC=34, tRAS=21, tRCD=12, tRRD=8, in DRAM cycles), an
// out-of-order FR-FCFS (first-ready, first-come-first-served) scheduler with
// a 32-entry request queue, and a shared data bus transferring 16 bytes per
// DRAM clock.
//
// The model is transaction level: when the scheduler issues a request it
// reserves the bank and data bus for the exact command timing the request
// needs (precharge / activate / CAS / burst), which reproduces row-locality
// and bus-efficiency effects without simulating individual DRAM commands.
package dram

import (
	"fmt"

	"repro/internal/addr"
)

// Timing holds GDDR3 timing parameters in DRAM clock cycles.
type Timing struct {
	CL   uint64 // CAS latency (read command -> first data)
	RP   uint64 // precharge period
	RC   uint64 // activate -> activate, same bank
	RAS  uint64 // activate -> precharge, same bank
	RCD  uint64 // activate -> CAS, same bank
	RRD  uint64 // activate -> activate, different banks
	Bust uint64 // data burst duration (64 B at 16 B/cycle = 4)
}

// DefaultTiming is the paper's GDDR3 configuration (Table II).
func DefaultTiming() Timing {
	return Timing{CL: 9, RP: 13, RC: 34, RAS: 21, RCD: 12, RRD: 8, Bust: 4}
}

// Config parameterizes a Controller.
type Config struct {
	Timing        Timing
	QueueCapacity int // FR-FCFS queue entries (32 in the paper)
	NumBanks      int // banks per channel
}

// DefaultConfig returns the paper configuration.
func DefaultConfig() Config {
	return Config{Timing: DefaultTiming(), QueueCapacity: 32, NumBanks: addr.DefaultBanksPerMC}
}

// Request is one line-sized DRAM transaction.
type Request struct {
	Addr    addr.Address
	IsWrite bool
	Meta    interface{} // opaque caller payload, returned on completion
}

type queued struct {
	req   Request
	bank  uint64
	row   uint64
	entry uint64 // arrival order for FCFS tie-break
}

type inflight struct {
	req    Request
	doneAt uint64
}

type bank struct {
	rowOpen     bool
	row         uint64
	readyAt     uint64 // earliest cycle the bank accepts its next command
	lastActAt   uint64 // for tRC and tRAS accounting
	everActed   bool
	prechargeAt uint64 // when the currently-scheduled precharge completes (== readyAt path)
}

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes     uint64
	RowHits, RowMiss  uint64
	BusBusyCycles     uint64
	ActiveCycles      uint64 // cycles with pending or in-flight work
	TotalQueueSamples uint64
	QueueOccupancySum uint64
}

// Efficiency is the paper's DRAM-efficiency metric: the fraction of cycles
// the data pins transfer data, out of cycles where requests are pending.
func (s Stats) Efficiency() float64 {
	if s.ActiveCycles == 0 {
		return 0
	}
	return float64(s.BusBusyCycles) / float64(s.ActiveCycles)
}

// RowLocality returns rowHits / (rowHits+rowMisses).
func (s Stats) RowLocality() float64 {
	total := s.RowHits + s.RowMiss
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Controller is one memory channel. Drive it with Tick once per DRAM cycle.
type Controller struct {
	cfg      Config
	mapper   *addr.Mapper
	now      uint64
	queue    []queued
	nextID   uint64
	banks    []bank
	lastAct  uint64 // last activate on any bank, for tRRD
	anyActed bool
	busFree  uint64 // first cycle the data bus is free
	inflight []inflight
	done     []Request // completion batch Tick returns, reused every Tick
	stats    Stats
}

// NewController builds a controller; mapper supplies bank/row decoding.
func NewController(cfg Config, mapper *addr.Mapper) (*Controller, error) {
	if cfg.QueueCapacity <= 0 {
		return nil, fmt.Errorf("dram: queue capacity must be positive, got %d", cfg.QueueCapacity)
	}
	if cfg.NumBanks <= 0 {
		return nil, fmt.Errorf("dram: bank count must be positive, got %d", cfg.NumBanks)
	}
	if mapper == nil {
		return nil, fmt.Errorf("dram: mapper must not be nil")
	}
	return &Controller{
		cfg:    cfg,
		mapper: mapper,
		banks:  make([]bank, cfg.NumBanks),
	}, nil
}

// MustNewController is NewController but panics on error.
func MustNewController(cfg Config, mapper *addr.Mapper) *Controller {
	c, err := NewController(cfg, mapper)
	if err != nil {
		panic(err)
	}
	return c
}

// CanAccept reports whether the request queue has a free entry.
func (c *Controller) CanAccept() bool { return len(c.queue) < c.cfg.QueueCapacity }

// Enqueue adds a request, reporting whether the queue accepted it. A full
// queue refuses the request (returns false) and the caller applies
// backpressure — the NoC ejection path stalls until a slot frees up.
func (c *Controller) Enqueue(req Request) bool {
	if !c.CanAccept() {
		return false
	}
	br := c.mapper.Decode(req.Addr)
	c.queue = append(c.queue, queued{req: req, bank: br.Bank % uint64(c.cfg.NumBanks), row: br.Row, entry: c.nextID})
	c.nextID++
	return true
}

// QueueLen returns the current queue occupancy.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Busy reports whether any work is queued or in flight.
func (c *Controller) Busy() bool { return len(c.queue) > 0 || len(c.inflight) > 0 }

// Now returns the controller's cycle counter (Tick count so far).
func (c *Controller) Now() uint64 { return c.now }

// NeverCycle is the NextWorkCycle sentinel for "idle until new requests
// arrive".
const NeverCycle = ^uint64(0)

// NextWorkCycle returns the exact cycle count at which the next Tick does
// real work — issues a transaction or completes a burst. With an empty
// machine it returns NeverCycle; only Enqueue creates new work. Between
// now and the returned cycle each Tick only advances the clock and accrues
// the busy/occupancy counters, which SkipAhead replays in O(1).
//
// Exactness: a queued request issues on the first tick where its bank's
// readyAt has passed, so the earliest candidate is max(now+1, min over
// queue of readyAt); no earlier tick can issue anything, and completions
// fire precisely at their recorded doneAt.
func (c *Controller) NextWorkCycle() uint64 {
	if !c.Busy() {
		return NeverCycle
	}
	next := NeverCycle
	for i := range c.inflight {
		if c.inflight[i].doneAt < next {
			next = c.inflight[i].doneAt
		}
	}
	if len(c.queue) > 0 {
		minReady := NeverCycle
		for i := range c.queue {
			if r := c.banks[c.queue[i].bank].readyAt; r < minReady {
				minReady = r
			}
		}
		if issueAt := max64(c.now+1, minReady); issueAt < next {
			next = issueAt
		}
	}
	return next
}

// SkipAhead credits k idle ticks in O(1): the clock and the busy-time /
// queue-occupancy statistics advance exactly as k Ticks would (Busy() is
// invariant over a window with no issues, completions or enqueues).
func (c *Controller) SkipAhead(k uint64) {
	c.now += k
	if c.Busy() {
		c.stats.ActiveCycles += k
		c.stats.TotalQueueSamples += k
		c.stats.QueueOccupancySum += k * uint64(len(c.queue))
	}
}

// Stats returns activity counters.
func (c *Controller) Stats() Stats { return c.stats }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Tick advances one DRAM cycle and returns requests whose data transfer
// completed this cycle. The batch lives in a buffer the controller reuses,
// so it is valid only until the next Tick.
func (c *Controller) Tick() []Request {
	c.now++
	if c.Busy() {
		c.stats.ActiveCycles++
		c.stats.TotalQueueSamples++
		c.stats.QueueOccupancySum += uint64(len(c.queue))
	}
	c.schedule()
	return c.complete()
}

// schedule issues at most one transaction per cycle using FR-FCFS: the
// oldest row-hit request that can issue now wins; otherwise the oldest
// issuable request.
func (c *Controller) schedule() {
	pick := -1
	pickHit := false
	for i := range c.queue {
		q := &c.queue[i]
		b := &c.banks[q.bank]
		if b.readyAt > c.now {
			continue
		}
		hit := b.rowOpen && b.row == q.row
		if hit {
			if !pickHit || c.queue[pick].entry > q.entry {
				pick, pickHit = i, true
			}
		} else if !pickHit && (pick < 0 || c.queue[pick].entry > q.entry) {
			pick = i
		}
	}
	if pick < 0 {
		return
	}
	q := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	c.issue(q, pickHit)
}

func (c *Controller) issue(q queued, rowHit bool) {
	t := &c.cfg.Timing
	b := &c.banks[q.bank]
	casAt := c.now
	if rowHit {
		c.stats.RowHits++
	} else {
		c.stats.RowMiss++
		actAt := c.now
		if b.rowOpen {
			// Precharge first: respect tRAS since activate.
			preAt := max64(c.now, b.lastActAt+t.RAS)
			actAt = preAt + t.RP
		}
		// Respect tRC (same bank) and tRRD (any bank).
		if b.everActed {
			actAt = max64(actAt, b.lastActAt+t.RC)
		}
		if c.anyActed {
			actAt = max64(actAt, c.lastAct+t.RRD)
		}
		b.lastActAt = actAt
		b.everActed = true
		c.lastAct = actAt
		c.anyActed = true
		b.rowOpen = true
		b.row = q.row
		casAt = actAt + t.RCD
	}
	dataStart := max64(casAt+t.CL, c.busFree)
	dataEnd := dataStart + t.Bust
	c.busFree = dataEnd
	// The bus transfers for exactly the burst duration; the reservation gap
	// before dataStart is idle time and must not count toward efficiency.
	c.stats.BusBusyCycles += t.Bust
	// The bank can take its next CAS once this burst is underway; next
	// activate timing is enforced via lastActAt. Approximate bank busy
	// until the burst completes.
	b.readyAt = dataEnd
	if q.req.IsWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	c.inflight = append(c.inflight, inflight{req: q.req, doneAt: dataEnd})
}

func (c *Controller) complete() []Request {
	c.done = c.done[:0]
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.doneAt <= c.now {
			c.done = append(c.done, f.req)
		} else {
			kept = append(kept, f)
		}
	}
	c.inflight = kept
	return c.done
}
