package main

import (
	"fmt"

	"repro/internal/timing"
)

// splitJobs divides each fresh sweep-service request into its parts: the
// queue wait from the handler's start to the job's first run, the job's
// runs and journal appends, the runner's time from the last of those to
// the handler's end, and the rest, which is the service's own time.
func (st *sweepTrace) splitJobs() {
	children := map[string][]interval{}
	for _, iv := range st.runSpans {
		children[iv.job] = append(children[iv.job], iv)
	}
	for _, iv := range st.journal {
		children[iv.job] = append(children[iv.job], iv)
	}
	for _, req := range st.requests {
		h, ok := st.handlers[req.key]
		if !ok {
			continue
		}
		st.httpOverhead = append(st.httpOverhead, req.dur()-h.dur())
		kids := children[req.job]
		if len(kids) == 0 {
			st.serviceSelf += req.dur()
			continue
		}
		first, last := kids[0].start, kids[0].end
		for _, iv := range kids {
			if iv.start.Before(first) {
				first = iv.start
			}
			if iv.end.After(last) {
				last = iv.end
			}
		}
		wait := first.Sub(h.start)
		after := h.end.Sub(last)
		st.queueWait = append(st.queueWait, wait)
		st.overhead = append(st.overhead, after)
		if self := req.dur() - union(kids, req.start, req.end) - wait - after; self > 0 {
			st.serviceSelf += self
		}
	}
	for _, req := range st.hitRequests {
		if h, ok := st.handlers[req.key]; ok {
			st.httpOverhead = append(st.httpOverhead, req.dur()-h.dur())
		}
		st.serviceSelf += req.dur() // a store hit runs nothing
	}
}

// layerSelf returns each module's self time in seconds, summed over the
// traced sweeps: the leaf spans for the cycle-level modules; system
// assembly plus the cycle loop's own time for core; the time from each
// run to its delivered result plus the journal for runner; and each
// request's time outside its job's queue wait, runs, journal and runner
// time for service.
func layerSelf(sweeps []*sweepTrace) map[string]float64 {
	self := map[string]float64{}
	for _, st := range sweeps {
		for _, tr := range st.runs {
			for sp := span(0); sp < spanLoop; sp++ {
				self[spanLayer[sp]] += float64(tr.ns[sp]) / 1e9
			}
			self["core"] += float64(tr.loopSelf()) / 1e9
		}
		for _, d := range st.overhead {
			self["runner"] += d.Seconds()
		}
		for _, iv := range st.journal {
			self["runner"] += iv.dur().Seconds()
		}
		self["service"] += st.serviceSelf.Seconds()
	}
	return self
}

// perLayer computes the per-layer metrics from the traced sweeps. Times
// are per sweep; ratios and means are over every traced run.
func perLayer(sweeps []*sweepTrace, overhead float64, t *tally) map[string]metric {
	n := float64(len(sweeps))
	var ns [numSpans]float64
	var calls [numSpans]float64
	var tickedCoreSlots, coreSlots, instrs, issueStalls, memStallFull, flitHops float64
	var tries, refused, attempts, taken float64
	var skipped, ticked [timing.NumDomains]float64
	var l1, l2, netLat, mcStall, dramEff, rowLoc, dramQ, loopSelf float64
	var runs float64
	var queueWait, runnerOver, jWrite, jSync, httpOver []float64
	var replay, replayed []float64
	var laneBatches, laneSeeds, shed, storeHits, retries float64
	for _, st := range sweeps {
		for _, tr := range st.runs {
			runs++
			for sp := range ns {
				ns[sp] += float64(tr.ns[sp])
				calls[sp] += float64(tr.calls[sp])
			}
			tickedCoreSlots += float64(tr.calls[spanGPUTick] * tr.cores)
			coreSlots += float64((tr.calls[spanGPUTick] + tr.skipped[timing.DomainCore]) * tr.cores)
			instrs += float64(tr.result.ScalarInstrs)
			issueStalls += float64(tr.issueStalls)
			memStallFull += float64(tr.memStallFull)
			flitHops += float64(tr.net.FlitHops)
			tries += float64(tr.injectTries)
			refused += float64(tr.injectRefused)
			attempts += float64(tr.skipAttempts)
			taken += float64(tr.skipsTaken)
			ticked[timing.DomainCore] += float64(tr.calls[spanGPUTick])
			ticked[timing.DomainInterconnect] += float64(tr.calls[spanNoCTick])
			ticked[timing.DomainDRAM] += float64(tr.calls[spanDRAMTick])
			for d := range skipped {
				skipped[d] += float64(tr.skipped[d])
			}
			l1 += tr.result.L1HitRate
			l2 += tr.result.L2HitRate
			netLat += tr.result.AvgNetLatency
			mcStall += tr.result.MCStallFraction
			dramEff += tr.result.DRAMEfficiency
			rowLoc += tr.rowLocality
			dramQ += tr.dramQueue
			loopSelf += float64(tr.loopSelf())
		}
		queueWait = append(queueWait, millis(st.queueWait)...)
		runnerOver = append(runnerOver, millis(st.overhead)...)
		httpOver = append(httpOver, millis(st.httpOverhead)...)
		jWrite = append(jWrite, millis(st.jWrite)...)
		jSync = append(jSync, millis(st.jSync)...)
		laneBatches += float64(st.laneBatches)
		laneSeeds += float64(st.laneSeeds)
		shed += float64(st.shed)
		storeHits += float64(st.storeHits)
		retries += float64(st.retries)
		if st.replay > 0 {
			replay = append(replay, st.replay.Seconds())
			replayed = append(replayed, float64(st.replayed))
		}
	}
	perSweep := func(sp span) float64 { return ns[sp] / 1e9 / n }
	totalCycles := func(d timing.Domain) float64 { return ticked[d] + skipped[d] }
	m := map[string]metric{
		"gpu.tick_s":                    {perSweep(spanGPUTick), "s"},
		"gpu.ns_per_core_cycle":         {ratio(ns[spanGPUTick], tickedCoreSlots), "ns"},
		"gpu.horizon_s":                 {perSweep(spanGPUHorizon), "s"},
		"gpu.deliver_s":                 {perSweep(spanGPUDeliver), "s"},
		"gpu.issue_stall_frac":          {ratio(issueStalls, coreSlots), "ratio"},
		"gpu.mem_stall_full_per_kinstr": {ratio(memStallFull, instrs/1000), "count"},
		"gpu.l1_hit_rate":               {ratio(l1, runs), "ratio"},
		"noc.tick_s":                    {perSweep(spanNoCTick), "s"},
		"noc.ns_per_flit_hop":           {ratio(ns[spanNoCTick], flitHops), "ns"},
		"noc.inject_s":                  {perSweep(spanNoCInject), "s"},
		"noc.inject_refused_frac":       {ratio(refused, tries), "ratio"},
		"noc.deliver_s":                 {perSweep(spanNoCDeliver), "s"},
		"noc.horizon_s":                 {perSweep(spanNoCHorizon), "s"},
		"noc.flit_hops":                 {flitHops / n, "count"},
		"noc.net_latency_cycles":        {ratio(netLat, runs), "cycles"},
		"mem.tick_icnt_s":               {perSweep(spanMemTickIcnt), "s"},
		"mem.accept_s":                  {perSweep(spanMemAccept), "s"},
		"mem.horizon_s":                 {perSweep(spanMemHorizon), "s"},
		"mem.l2_hit_rate":               {ratio(l2, runs), "ratio"},
		"mem.stall_frac":                {ratio(mcStall, runs), "ratio"},
		"dram.tick_s":                   {perSweep(spanDRAMTick), "s"},
		"dram.horizon_s":                {perSweep(spanDRAMHorizon), "s"},
		"dram.efficiency":               {ratio(dramEff, runs), "ratio"},
		"dram.row_locality":             {ratio(rowLoc, runs), "ratio"},
		"dram.queue_occupancy":          {ratio(dramQ, runs), "requests"},
		"timing.step_s":                 {perSweep(spanStep), "s"},
		"timing.skip_s":                 {perSweep(spanSkip), "s"},
		"timing.skip_attempts":          {attempts / n, "count"},
		"timing.skip_taken_frac":        {ratio(taken, attempts), "ratio"},
		"timing.core_skipped_frac":      {ratio(skipped[timing.DomainCore], totalCycles(timing.DomainCore)), "ratio"},
		"timing.icnt_skipped_frac":      {ratio(skipped[timing.DomainInterconnect], totalCycles(timing.DomainInterconnect)), "ratio"},
		"timing.dram_skipped_frac":      {ratio(skipped[timing.DomainDRAM], totalCycles(timing.DomainDRAM)), "ratio"},
		"core.new_system_ms":            {ratio(ns[spanNewSystem]/1e6, calls[spanNewSystem]), "ms"},
		"core.loop_self_s":              {loopSelf / 1e9 / n, "s"},
		"runner.queue_wait_ms":          {mean(queueWait), "ms"},
		"runner.overhead_ms":            {mean(runnerOver), "ms"},
		"runner.lane_batches":           {laneBatches / n, "count"},
		"runner.lane_width_mean":        {ratio(laneSeeds, laneBatches), "count"},
		"runner.store_hits":             {storeHits / n, "count"},
		"runner.retries":                {retries / n, "count"},
		"runner.journal_write_ms":       {mean(jWrite), "ms"},
		"runner.journal_sync_ms":        {mean(jSync), "ms"},
		"service.http_overhead_ms":      {mean(httpOver), "ms"},
		"service.shed":                  {shed / n, "count"},
		"service.replay_s":              {median(replay), "s"},
		"service.replayed_records":      {median(replayed), "count"},
		"fail_frac":                     {t.failFrac(), "ratio"},
		"trace.overhead_s":              {overhead, "s"},
	}
	self := layerSelf(sweeps)
	var total float64
	for _, l := range layers {
		total += self[l]
	}
	fmt.Print("# layer self-time shares:")
	for _, l := range layers {
		m[l+".self_share"] = metric{ratio(self[l], total), "ratio"}
		fmt.Printf(" %s %.3f", l, ratio(self[l], total))
	}
	fmt.Println()
	return m
}
