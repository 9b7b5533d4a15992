package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Kernel-length scales of the closed workloads. An LL run at scale 0.5
// takes about a quarter second and an HH run at 0.03 about the same on a
// 2-core Xeon host, so one sweep takes one to two seconds and a run of the
// benchmark repeats it often enough for a steady median.
const (
	llScale = 0.5
	hhScale = 0.03
)

// splitmix64 derives well-mixed seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simSeed is the simulation seed of the i-th run derived from the
// workload seed: nonzero and below 2^31 so it reads well in run keys.
func simSeed(seed uint64, i int) uint64 {
	return 1 + splitmix64(seed*1_000_003+uint64(i))%(1<<31-1)
}

func profilesOf(class string) []workload.Profile {
	var out []workload.Profile
	for _, p := range workload.Catalog() {
		if p.Class == class {
			out = append(out, p)
		}
	}
	return out
}

// closedConfigs returns the configs of one closed-workload sweep:
// closed-ll runs the 11 LL benchmarks of Table I on the baseline TB-DOR
// mesh; closed-hh runs the 9 HH benchmarks on TB-DOR and on the
// throughput-effective design. Each benchmark gets one seed.
func closedConfigs(name string, seed uint64) []core.Config {
	var cfgs []core.Config
	switch name {
	case "closed-ll":
		for i, p := range profilesOf("LL") {
			c := core.Baseline(p).ScaleWork(llScale)
			c.Seed = simSeed(seed, i)
			cfgs = append(cfgs, c)
		}
	case "closed-hh":
		for i, p := range profilesOf("HH") {
			for _, build := range []func(workload.Profile) core.Config{core.Baseline, core.ThroughputEffective} {
				c := build(p).ScaleWork(hhScale)
				c.Seed = simSeed(seed, i)
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// repStats is what one repetition of a workload measured. The closed
// workloads leave the restart fields zero.
type repStats struct {
	setup     time.Duration
	wall      time.Duration
	latencies []time.Duration // submit -> result, per fresh run or job
	instrs    uint64          // simulated scalar instructions

	restart  time.Duration   // service.New on the written store until /readyz is 200
	replay   time.Duration   // service.New on the written store
	hits     []time.Duration // resubmitted jobs served from the store
	replayed int             // records the restarted store replayed
	executed int             // runs the resubmission phase executed
}

// closedSweep submits one closed-workload sweep through a fresh runner
// pool, the way tesim and experiments submit, and checks every outcome
// against the reference simulations. A non-nil st runs the traced driver
// in place of core.Run and records the runner spans.
func closedSweep(ctx context.Context, name string, seed uint64, ref *references, t *tally, st *sweepTrace) (repStats, error) {
	t0 := time.Now()
	cfgs := closedConfigs(name, seed)
	var mu sync.Mutex
	done := make(map[string]time.Time, len(cfgs))
	opts := runner.Options{
		Jobs: jobs(),
		OnDone: func(o runner.Outcome) {
			now := time.Now()
			mu.Lock()
			done[o.Key] = now
			mu.Unlock()
		},
	}
	if st != nil {
		opts.Run, opts.RunLanes = st.run, st.runLanes
	}
	pool, err := runner.New(ctx, opts)
	if err != nil {
		return repStats{}, err
	}
	defer pool.Close()
	s := repStats{setup: time.Since(t0)}

	submit := time.Now()
	outs := pool.DoAllPlanned(ctx, cfgs)
	s.wall = time.Since(submit)

	mu.Lock()
	defer mu.Unlock()
	for i, out := range outs {
		if at, ok := done[out.Key]; ok {
			s.latencies = append(s.latencies, at.Sub(submit))
		}
		s.instrs += out.Result.ScalarInstrs
		t.run(out.Result.Status, ref.matches(cfgs[i], out.Result), out.Key)
	}
	if st != nil {
		st.wall = s.wall
		for _, out := range outs {
			st.retries += out.Attempts - 1
		}
		for _, iv := range st.runSpans {
			st.queueWait = append(st.queueWait, iv.start.Sub(submit))
			if at, ok := done[iv.key]; ok {
				st.overhead = append(st.overhead, at.Sub(iv.end))
			}
		}
		ref.checkTraced(st, t)
	}
	return s, nil
}

// reference is one simulation's output from core.NewSystem + Run.
type reference struct {
	result core.Result
	net    *noc.NetStats
	digest string
}

// references holds the core.Run output of every run a workload makes,
// computed once per process outside every timed window. Every untraced
// result must equal it; every traced run must equal it in Result and
// NetStats; at the default seed its digest must equal the recorded one.
type references struct {
	runs     map[string]reference // by run key
	recorded map[string]string    // recorded digests; nil away from the default seed
}

// computeReferences simulates cfgs with core.NewSystem + Run on jobs()
// workers.
func computeReferences(ctx context.Context, cfgs []core.Config) (map[string]reference, error) {
	out := make(map[string]reference, len(cfgs))
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, jobs())
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(cfg core.Config) {
			defer wg.Done()
			defer func() { <-sem }()
			sys, err := core.NewSystem(cfg)
			var res core.Result
			if err == nil {
				res, err = sys.Run(ctx)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("reference run %s: %w", runner.Key(cfg), err)
				}
				return
			}
			ns := sys.NetStats()
			out[runner.Key(cfg)] = reference{result: res, net: ns, digest: runDigest(res, ns)}
		}(cfg)
	}
	wg.Wait()
	return out, firstErr
}

// matches reports whether an untraced result equals the reference and,
// at the default seed, the reference equals the recorded digest.
func (r *references) matches(cfg core.Config, res core.Result) bool {
	ref, ok := r.runs[runner.Key(cfg)]
	return ok && reflect.DeepEqual(ref.result, res) && r.recordedOK(runner.Key(cfg), ref.digest)
}

func (r *references) recordedOK(key, d string) bool {
	if r.recorded == nil {
		return true
	}
	return r.recorded[key] == d
}

// checkTraced fails every traced run whose NetStats differ from core.Run's
// for the same config and seed. Its Result reaches the outcome check like
// any other, which has already counted the run, so a difference here adds
// a failure without a new attempt.
func (r *references) checkTraced(st *sweepTrace, t *tally) {
	for _, tr := range st.runs {
		ref, ok := r.runs[tr.cfg]
		if !ok || !reflect.DeepEqual(*ref.net, *tr.net) {
			t.fail("traced run differs from core.Run: " + tr.cfg)
		}
	}
}
