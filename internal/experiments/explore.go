package experiments

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/stats"
)

// Explore runs the design-space exploration engine (internal/explore) on
// the suite's worker pool: the default multi-topology grid is driven
// through successive-halving rungs and scored — like the resilience sweep —
// on one light (LL) and one heavy (HH) benchmark from the suite's set, so
// the frontier reflects both latency- and bandwidth-bound behaviour without
// multiplying the grid by all 31 workloads. Seed replicas (Options.Seeds)
// ride the sweep planner as single lane batches; the suite's checkpoint
// journal makes the exploration resumable mid-rung.
func (s *Suite) Explore() (*Report, error) {
	ex, err := explore.New(s.pool, explore.Options{
		Benchmarks: s.resilienceBench(),
		Seeds:      s.opts.Seeds,
		Scale:      s.opts.Scale,
		NoIdleSkip: s.opts.NoIdleSkip,
		Progress:   s.opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	ctx := s.opts.Context
	f, err := ex.Run(ctx)
	if err != nil {
		return nil, err
	}
	s.frontier = f

	tb := stats.NewTable("Explore: throughput-effectiveness Pareto frontier",
		"candidate", "IPC (hmean)", "NoC mm^2", "chip mm^2", "IPC/mm^2", "runs", "dnf")
	for _, pt := range f.Points {
		tb.AddRow(pt.Candidate, pt.IPC, pt.NoCArea, pt.ChipArea,
			fmt.Sprintf("%.5f", pt.TE), pt.Runs, pt.DNF)
	}

	var summary []string
	summary = append(summary, fmt.Sprintf(
		"grid: %d valid candidates over %v; frontier: %d of %d final survivors",
		f.Grid, f.Benchmarks, len(f.Points), len(f.Survivors)))
	for _, rl := range f.Rungs {
		line := fmt.Sprintf("rung %d (budget %.2f, margin %.2f): %d entered, %d killed, %d dnf, %d promoted",
			rl.Index, rl.Budget, rl.Margin, rl.Entered, len(rl.Killed), len(rl.DNF), rl.Promoted)
		if len(rl.DNF) > 0 {
			line += fmt.Sprintf(" %v", rl.DNF)
		}
		summary = append(summary, line)
	}
	summary = append(summary, fmt.Sprintf(
		"successive halving killed %d of %d candidate(s) before full-length runs; simulated %d of ~%d exhaustive icnt cycles (%.1fx saved)",
		f.KilledEarly, f.Grid, f.SimulatedCycles, f.ExhaustiveCycles, f.CycleSavings()))
	summary = append(summary, fmt.Sprintf(
		"validation: paper combined design %s on frontier: %v", f.PaperPoint, f.PaperPointOnFrontier))

	return &Report{
		ID:      "explore",
		Title:   "Successive-halving design-space exploration (IPC vs chip mm^2)",
		Table:   tb,
		Summary: summary,
	}, nil
}

// Frontier returns the machine-readable result of the last Explore call
// (nil before any). The CLIs serialize it with its JSON method and feed its
// early-termination savings into the closing stats.Outcomes summary.
func (s *Suite) Frontier() *explore.Frontier { return s.frontier }
