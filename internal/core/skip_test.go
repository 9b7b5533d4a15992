package core

import (
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/workload"
)

// checkSkipEquivalence runs cfg with idle-horizon fast-forwarding enabled
// (the default) and disabled and fails unless the two runs are
// bit-identical. Degraded runs (cycle cap, watchdog verdicts) are compared
// like clean ones: same Status, same error kind and message (which carries
// the verdict's cycle), same Result and digest. Field-level comparison runs
// first so a divergence points at the counter that drifted, not just at a
// hash. It returns the skip-on run's error so callers can demand a clean
// run.
func checkSkipEquivalence(t *testing.T, cfg Config) error {
	t.Helper()

	off := cfg
	off.NoIdleSkip = true
	sysOff, err := NewSystem(off)
	if err != nil {
		t.Fatal(err)
	}
	resOff, errOff := sysOff.Run(nil)

	on := cfg
	on.NoIdleSkip = false
	sysOn, err := NewSystem(on)
	if err != nil {
		t.Fatal(err)
	}
	resOn, errOn := sysOn.Run(nil)

	if statusOf(errOn) != statusOf(errOff) || errText(errOn) != errText(errOff) {
		t.Errorf("verdict differs with skipping: skip %q, no-skip %q", errText(errOn), errText(errOff))
	}
	if resOn.Status != resOff.Status {
		t.Errorf("Status differs with skipping: skip %q, no-skip %q", resOn.Status, resOff.Status)
	}
	if resOn != resOff {
		t.Errorf("Result differs with skipping:\n skip:    %+v\n no-skip: %+v", resOn, resOff)
	}
	nsOn, nsOff := sysOn.NetStats(), sysOff.NetStats()
	if nsOn.Cycles != nsOff.Cycles {
		t.Errorf("net Cycles: skip %d, no-skip %d", nsOn.Cycles, nsOff.Cycles)
	}
	if nsOn.FlitHops != nsOff.FlitHops {
		t.Errorf("FlitHops: skip %d, no-skip %d", nsOn.FlitHops, nsOff.FlitHops)
	}
	for i := range nsOn.InjectedFlits {
		if nsOn.InjectedFlits[i] != nsOff.InjectedFlits[i] {
			t.Errorf("InjectedFlits[%d]: skip %d, no-skip %d", i, nsOn.InjectedFlits[i], nsOff.InjectedFlits[i])
		}
	}
	dOn := digestRun(resOn, nsOn)
	dOff := digestRun(resOff, nsOff)
	if dOn != dOff {
		t.Errorf("digest differs with skipping: %s vs %s", dOn, dOff)
	}
	return errOn
}

// errText renders a run error for comparison ("" for a clean run).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestIdleSkipEquivalence proves idle-horizon fast-forwarding is invisible:
// every golden configuration must produce the SAME digest with skipping
// enabled and disabled, at every shard count of the determinism matrix.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, shards := range goldenShardCounts {
			shards := shards
			t.Run(fmt.Sprintf("%s/shards-%d", gc.id, shards), func(t *testing.T) {
				if err := checkSkipEquivalence(t, gc.build().WithShards(shards)); err != nil {
					t.Fatalf("run degraded: %v", err)
				}
			})
		}
	}
}

// TestIdleSkipEquivalenceMemBound covers the stall-dominated regime the
// golden matrix barely enters: a single core parking its only warp on a
// deep (128-cycle) memory pipeline, so nearly every cycle sits inside a
// skippable window and the fast-forward machinery — not the edge-by-edge
// path — produces almost all of the run. This is the configuration
// BenchmarkIdleSkipClosedLoop times.
func TestIdleSkipEquivalenceMemBound(t *testing.T) {
	prof := workload.Profile{
		Name: "MemStall", Abbr: "MSTL", Class: "LH",
		Warps: 1, InstrsPerWarp: 600,
		MemFraction: 1.0, WriteFraction: 0, LinesPerMemInstr: 1,
		ActiveThreads: 32, WorkingSetKB: 64,
		Sequential: 1.0, Reuse: 0,
	}
	cfg := Baseline(prof)
	cfg.Name = "IdleSkip-MemBound"
	nc := noc.DefaultConfig()
	nc.Width, nc.Height = 2, 2
	nc.MCs = []noc.NodeID{1, 2, 3}
	nc.RouterStages = 1
	nc.HalfRouterStages = 1
	nc.FlitBytes = 64
	cfg.Noc = nc
	cfg.Mem.L2Latency = 128
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			if err := checkSkipEquivalence(t, cfg.WithShards(shards)); err != nil {
				t.Fatalf("run degraded: %v", err)
			}
		})
	}
}

// TestIdleSkipEquivalenceDegraded pins the cycle-cap edge and the watchdog
// clamp of the cycle loop: a run that ends in a verdict must end at the
// same cycle, with the same counters, whether idle windows are skipped or
// stepped. Lane 0 of a two-seed lane batch must match the solo run too.
func TestIdleSkipEquivalenceDegraded(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cycle-cap-200", cycleCapConfig(200)},
		{"cycle-cap-5000", cycleCapConfig(5000)},
		{"wedged", wedgedConfig()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := checkSkipEquivalence(t, tc.cfg); err == nil {
				t.Fatal("run completed; the case no longer exercises a verdict")
			}
			solo, soloErr := Run(nil, tc.cfg)
			results, errs := RunLanes(nil, tc.cfg, []uint64{tc.cfg.Seed, tc.cfg.Seed + 1})
			if results[0] != solo || errText(errs[0]) != errText(soloErr) {
				t.Errorf("lane 0 differs from the solo run:\n lane: %+v (%v)\n solo: %+v (%v)",
					results[0], errs[0], solo, soloErr)
			}
		})
	}
}
