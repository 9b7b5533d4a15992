package main

import (
	"bytes"
	"context"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/timing"
)

// span names one timed group of calls in the traced cycle loop.
type span int

const (
	spanGPUTick span = iota
	spanGPUHorizon
	spanGPUDeliver
	spanNoCTick
	spanNoCInject
	spanNoCDeliver
	spanNoCHorizon
	spanMemTickIcnt
	spanMemAccept
	spanMemHorizon
	spanDRAMTick
	spanDRAMHorizon
	spanStep
	spanSkip
	spanNewSystem
	spanLoop // the whole cycle loop; parent of every span above but spanNewSystem
	numSpans
)

// spanLayer is the module each leaf span's time belongs to.
var spanLayer = [numSpans]string{
	spanGPUTick: "gpu", spanGPUHorizon: "gpu", spanGPUDeliver: "gpu",
	spanNoCTick: "noc", spanNoCInject: "noc", spanNoCDeliver: "noc", spanNoCHorizon: "noc",
	spanMemTickIcnt: "mem", spanMemAccept: "mem", spanMemHorizon: "mem",
	spanDRAMTick: "dram", spanDRAMHorizon: "dram",
	spanStep: "timing", spanSkip: "timing",
	spanNewSystem: "core", spanLoop: "core",
}

// layers lists the modules in report order.
var layers = []string{"gpu", "noc", "mem", "dram", "timing", "core", "runner", "service"}

// runTrace holds one traced run's per-span totals and counts, kept in
// memory until the run ends.
type runTrace struct {
	ns    [numSpans]int64
	calls [numSpans]uint64

	skipAttempts, skipsTaken   uint64
	skipped                    [timing.NumDomains]uint64
	injectTries, injectRefused uint64
	issueStalls, memStallFull  uint64
	cores                      uint64
	rowLocality, dramQueue     float64

	result core.Result
	net    *noc.NetStats
	cfg    string // runner.Key of the run
}

// loopSelf is the cycle loop's own time: the loop span minus its children.
func (t *runTrace) loopSelf() int64 {
	self := t.ns[spanLoop]
	for sp := span(0); sp < spanNewSystem; sp++ {
		self -= t.ns[sp]
	}
	return self
}

// interval is one timed call made on behalf of a job.
type interval struct {
	job        string // config name | benchmark
	key        string // runner.Key of the run (the first seed's for a lane batch)
	start, end time.Time
}

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// sweepTrace collects the spans of one traced sweep: cycle-level runs from
// the traced driver, runner spans from the wrapped Run/RunLanes entry
// points, journal spans from the wrapped filesystem seam, and request and
// handler spans around the service's HTTP API.
type sweepTrace struct {
	mu          sync.Mutex
	runs        []*runTrace
	runSpans    []interval // one per Run or RunLanes call
	laneBatches int
	laneSeeds   int
	journal     []interval // write+sync of one record
	jWrite      []time.Duration
	jSync       []time.Duration
	requests    []interval // client submit -> response, fresh jobs
	hitRequests []interval // client submit -> response, store hits
	handlers    map[string]interval
	shed        int
	storeHits   int // runs served from the store
	retries     int // extra attempts over all runs
	wall        time.Duration

	// Restart of the service on its written store.
	replay   time.Duration
	replayed int

	// Derived when the sweep ends.
	queueWait    []time.Duration // submission to the first run
	overhead     []time.Duration // runner time after the last run, to the result
	httpOverhead []time.Duration // request time outside the handler
	serviceSelf  time.Duration
}

func newSweepTrace() *sweepTrace { return &sweepTrace{handlers: map[string]interval{}} }

// jobOf names the job a config belongs to: every sweep-service job is one
// (design point, benchmark) pair over a seed list.
func jobOf(cfg core.Config) string { return cfg.Name + "|" + cfg.Workload.Abbr }

// run is the traced runner.Options.Run: the traced driver in place of
// core.Run, with its span recorded.
func (st *sweepTrace) run(ctx context.Context, cfg core.Config) (core.Result, error) {
	start := time.Now()
	tr := &runTrace{cfg: runner.Key(cfg)}
	res, err := tracedRun(ctx, cfg, tr)
	end := time.Now()
	st.mu.Lock()
	st.runs = append(st.runs, tr)
	st.runSpans = append(st.runSpans, interval{jobOf(cfg), tr.cfg, start, end})
	st.mu.Unlock()
	return res, err
}

// runLanes is the traced runner.Options.RunLanes. The traced driver has
// no lane kernel, so the batch's seeds run one after another through it;
// lane results are bit-identical to solo runs, so the results are those
// core.RunLanes would return.
func (st *sweepTrace) runLanes(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
	start := time.Now()
	results := make([]core.Result, len(seeds))
	errs := make([]error, len(seeds))
	traces := make([]*runTrace, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		traces[i] = &runTrace{cfg: runner.Key(c)}
		results[i], errs[i] = tracedRun(ctx, c, traces[i])
	}
	end := time.Now()
	st.mu.Lock()
	st.runs = append(st.runs, traces...)
	st.runSpans = append(st.runSpans, interval{jobOf(cfg), traces[0].cfg, start, end})
	st.laneBatches++
	st.laneSeeds += len(seeds)
	st.mu.Unlock()
	return results, errs
}

// tracedFS wraps the filesystem seam under the service's result store and
// times every journal write and fsync. Each write carries one framed
// record, whose run key names the job it belongs to; the fsync that
// follows is charged to the same job.
type tracedFS struct {
	base iofault.FS
	st   *sweepTrace
}

func (fs tracedFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, st: fs.st}, nil
}

func (fs tracedFS) Rename(oldpath, newpath string) error { return fs.base.Rename(oldpath, newpath) }
func (fs tracedFS) Remove(name string) error             { return fs.base.Remove(name) }

type tracedFile struct {
	iofault.File
	st         *sweepTrace
	job        string
	writeStart time.Time
}

var keyField = []byte(`"key":"`)

// recordJob extracts the job of a framed journal record from its run key
// ("config|benchmark|seed|length").
func recordJob(line []byte) string {
	i := bytes.Index(line, keyField)
	if i < 0 {
		return ""
	}
	key := line[i+len(keyField):]
	if j := bytes.IndexByte(key, '"'); j >= 0 {
		key = key[:j]
	}
	parts := strings.SplitN(string(key), "|", 3)
	if len(parts) < 2 {
		return ""
	}
	return parts[0] + "|" + parts[1]
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	f.job, f.writeStart = recordJob(p), start
	if f.job == "" {
		return n, err // the journal header
	}
	f.st.mu.Lock()
	f.st.jWrite = append(f.st.jWrite, d)
	f.st.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	if f.job == "" {
		return err // header, seal or close: no record to charge
	}
	f.st.mu.Lock()
	f.st.jSync = append(f.st.jSync, end.Sub(start))
	f.st.journal = append(f.st.journal, interval{job: f.job, start: f.writeStart, end: end})
	f.st.mu.Unlock()
	f.job = ""
	return err
}

// union returns the length of the union of ivs clipped to [lo, hi].
func union(ivs []interval, lo, hi time.Time) time.Duration {
	type seg struct{ a, b time.Time }
	segs := make([]seg, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv.start, iv.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			segs = append(segs, seg{a, b})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a.Before(segs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, s := range segs {
		if i == 0 || s.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = s.a, s.b
			continue
		}
		if s.b.After(curB) {
			curB = s.b
		}
	}
	if len(segs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
