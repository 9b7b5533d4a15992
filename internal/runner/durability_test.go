package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/core"
)

// TestPersistFailureNotCached is the pool half of the daemon's durability
// contract: an outcome whose Persist hook fails is returned as a
// non-cached "io_error", and a later request for the same key re-executes
// the run; once Persist succeeds the outcome is cached like any other.
func TestPersistFailureNotCached(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var persisted atomic.Int64
	p := newPool(t, Options{Jobs: 1,
		Run: okRun,
		Persist: func(rec Record) error {
			if fail.Load() {
				return syscall.ENOSPC
			}
			persisted.Add(1)
			return nil
		}})
	cfg := testCfg(t, "durable")

	out := p.DoContext(context.Background(), cfg)
	if out.Result.Status != "io_error" {
		t.Fatalf("status under persist failure = %q, want io_error", out.Result.Status)
	}
	if !errors.Is(out.Err, syscall.ENOSPC) {
		t.Errorf("outcome Err = %v, want the persist ENOSPC", out.Err)
	}
	if out.Cached || out.Resumed {
		t.Errorf("io_error outcome flagged cached=%v resumed=%v", out.Cached, out.Resumed)
	}

	// The failed outcome must not have been cached: the next request
	// re-executes rather than serving the unpersisted result from memory.
	out = p.DoContext(context.Background(), cfg)
	if out.Cached {
		t.Fatal("unpersisted outcome was served from cache")
	}
	if p.Executed() != 2 {
		t.Errorf("Executed = %d after two requests under persist failure, want 2", p.Executed())
	}

	// Fault clears: re-execution persists, caches, and later calls hit.
	fail.Store(false)
	out = p.DoContext(context.Background(), cfg)
	if out.Result.Status != "ok" || out.Cached {
		t.Fatalf("post-heal outcome = status %q cached %v, want fresh ok", out.Result.Status, out.Cached)
	}
	if persisted.Load() != 1 {
		t.Errorf("persisted %d records, want 1", persisted.Load())
	}
	out = p.DoContext(context.Background(), cfg)
	if !out.Cached || out.Result.Status != "ok" {
		t.Errorf("persisted outcome not served from cache: %+v", out)
	}
}

// TestPersistSkipsTransients: canceled and timeout verdicts are not
// durable, so the Persist hook must never see them.
func TestPersistSkipsTransients(t *testing.T) {
	var persisted atomic.Int64
	p := newPool(t, Options{Jobs: 1,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "timeout"}, nil
		},
		Persist: func(Record) error { persisted.Add(1); return nil }})
	p.DoContext(context.Background(), testCfg(t, "slow"))
	if persisted.Load() != 0 {
		t.Errorf("Persist saw %d transient outcomes, want 0", persisted.Load())
	}
}
