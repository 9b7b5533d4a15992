package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

// memBound is a stall-dominated system: one core parks its only warp on a
// deep memory pipeline, so most cycles fall inside skippable windows.
func memBound() core.Config {
	prof := workload.Profile{
		Name: "MemStall", Abbr: "MSTL", Class: "HH",
		Warps: 1, InstrsPerWarp: 600,
		MemFraction: 1.0, WriteFraction: 0, LinesPerMemInstr: 1,
		ActiveThreads: 32, WorkingSetKB: 64,
		Sequential: 1.0, Reuse: 0,
	}
	cfg := core.Baseline(prof)
	cfg.Name = "MemBound"
	nc := noc.DefaultConfig()
	nc.Width, nc.Height = 2, 2
	nc.MCs = []noc.NodeID{1, 2, 3}
	nc.RouterStages = 1
	nc.HalfRouterStages = 1
	nc.FlitBytes = 64
	cfg.Noc = nc
	cfg.Mem.L2Latency = 128
	return cfg
}

func mustProfile(t *testing.T, abbr string) workload.Profile {
	t.Helper()
	p, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTracedDriverEqualsCoreRun pins the traced driver to core.Run: the
// same Result and NetStats on the TB-DOR mesh, the throughput-effective
// double network, the ring, and a memory-bound run where idle skip fires.
func TestTracedDriverEqualsCoreRun(t *testing.T) {
	cases := []struct {
		name     string
		cfg      core.Config
		wantSkip bool
	}{
		{"tb-dor", core.Baseline(mustProfile(t, "BIN")).ScaleWork(0.02), false},
		{"thr-eff-double", core.ThroughputEffective(mustProfile(t, "MUM")).ScaleWork(0.01), false},
		{"ring", core.Ring(mustProfile(t, "LIB")).ScaleWork(0.01), false},
		{"mem-bound-skip", memBound(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var tr runTrace
			got, err := tracedRun(context.Background(), tc.cfg, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Result differs:\n traced %+v\n core   %+v", got, want)
			}
			if !reflect.DeepEqual(*tr.net, *sys.NetStats()) {
				t.Errorf("NetStats differ:\n traced %+v\n core   %+v", *tr.net, *sys.NetStats())
			}
			if tc.wantSkip && tr.skipsTaken == 0 {
				t.Errorf("idle skip never fired in %d attempts", tr.skipAttempts)
			}
			if tr.calls[spanGPUTick] == 0 || tr.calls[spanNoCTick] == 0 || tr.calls[spanDRAMTick] == 0 {
				t.Errorf("a clock domain was never timed: %v", tr.calls)
			}
		})
	}
}
