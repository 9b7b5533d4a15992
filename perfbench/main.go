// Command perfbench is the repository benchmark. It runs one workload from
// a single process for a fixed time, checks every simulated result, and
// prints every metric by name with its unit; the last line of its output
// is one JSON object. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload closed-ll --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"closed-ll", "closed-hh", "sweep-service"}

// jobs is the runner pool size and the client count: one per CPU.
func jobs() int { return runtime.NumCPU() }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; simulation seeds and the sweep's job order and seed lists derive from it")
	secs := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced runs; 0: end-to-end metrics from untraced runs")
	writeRef := flag.String("write-reference", "", "record the workload's digests at the default seed into this file and exit")
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known || *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (one of "+strings.Join(workloadNames, ", ")+"), --seconds >= 1 and --trace 0|1")
		return 2
	}
	if *writeRef != "" && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: reference digests are recorded at the default seed %d\n", defaultSeed)
		return 2
	}
	if err := bench(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1, *writeRef); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workloadRunner is one workload's repetition, untraced (st == nil) or
// traced.
type workloadRunner interface {
	rep(t *tally, st *sweepTrace) (repStats, error)
	digests() map[string]string
}

type closedRunner struct {
	name string
	seed uint64
	ref  *references
}

func (c *closedRunner) rep(t *tally, st *sweepTrace) (repStats, error) {
	return closedSweep(context.Background(), c.name, c.seed, c.ref, t, st)
}

func (c *closedRunner) digests() map[string]string {
	out := map[string]string{}
	for k, r := range c.ref.runs {
		out[k] = r.digest
	}
	return out
}

func (b *serviceBench) digests() map[string]string {
	out := map[string]string{}
	for id, doc := range b.docs {
		out[id] = digest(string(doc))
	}
	return out
}

func bench(name string, seed uint64, window time.Duration, traced bool, writeRef string) error {
	ctx := context.Background()
	var recorded map[string]string
	if seed == defaultSeed && writeRef == "" {
		table, err := loadReference()
		if err != nil {
			return err
		}
		if recorded = table[name]; recorded == nil {
			return fmt.Errorf("no reference digests recorded for %s", name)
		}
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return fmt.Errorf("temporary directory (run from the checkout root): %w", err)
	}
	defer os.RemoveAll(tmp)

	var w workloadRunner
	if name == "sweep-service" {
		sb, err := newServiceBench(ctx, seed, recorded, tmp)
		if err != nil {
			return err
		}
		defer sb.client.CloseIdleConnections()
		w = sb
	} else {
		cfgs := closedConfigs(name, seed)
		runs, err := computeReferences(ctx, cfgs)
		if err != nil {
			return err
		}
		w = &closedRunner{name: name, seed: seed, ref: &references{runs: runs, recorded: recorded}}
	}

	t := &tally{}
	if writeRef != "" {
		if _, err := w.rep(t, nil); err != nil {
			return err
		}
		if t.failed > 0 {
			return fmt.Errorf("not recording: %v", t.reasonList())
		}
		return writeReference(writeRef, name, w.digests())
	}

	// Untraced repetitions: for the whole window, or a third of it ahead
	// of the traced ones.
	untracedWindow := window
	if traced {
		untracedWindow = window / 3
	}
	var plain []repStats
	for start := time.Now(); len(plain) < 1 || time.Since(start) < untracedWindow; {
		s, err := w.rep(t, nil)
		if err != nil {
			return err
		}
		plain = append(plain, s)
	}
	rssMB := maxRSSMB()

	// Traced repetitions: the rest of the window, or one to measure the
	// tracing overhead.
	var sweeps []*sweepTrace
	var tracedWall []float64
	for start := time.Now(); len(sweeps) < 1 || (traced && time.Since(start) < window-untracedWindow); {
		st := newSweepTrace()
		if _, err := w.rep(t, st); err != nil {
			return err
		}
		sweeps = append(sweeps, st)
		tracedWall = append(tracedWall, st.wall.Seconds())
	}

	var walls []float64
	for _, s := range plain {
		walls = append(walls, s.wall.Seconds())
	}
	overhead := median(tracedWall) - median(walls)

	fmt.Printf("# workload %s seed %d: %d untraced and %d traced repetitions\n", name, seed, len(plain), len(sweeps))
	fmt.Printf("# host %s\n", fingerprint())
	fmt.Printf("# untraced sweep wall: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f s\n",
		quantile(walls, 0), quantile(walls, 0.25), median(walls), quantile(walls, 0.75), quantile(walls, 1))
	fmt.Printf("# tracing overhead %.4f s per sweep (traced wall %.4f s - untraced wall %.4f s)\n",
		overhead, median(tracedWall), median(walls))
	fmt.Printf("# runs attempted %d, failed %d, fail_frac %.4f\n", t.attempted, t.failed, t.failFrac())
	for _, r := range t.reasonList() {
		fmt.Printf("# failure: %s\n", r)
	}

	latency := latencyMetrics(plain)
	var metrics map[string]metric
	if traced {
		metrics = perLayer(sweeps, overhead, t)
		for n, m := range latency {
			metrics[n] = m
		}
	} else {
		metrics = endToEnd(plain, rssMB)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the end-to-end metrics from the untraced repetitions.
func endToEnd(reps []repStats, rssMB float64) map[string]metric {
	var setup, wall, rate []float64
	for _, s := range reps {
		setup = append(setup, s.setup.Seconds())
		wall = append(wall, s.wall.Seconds())
		rate = append(rate, float64(s.instrs)/1e6/s.wall.Seconds())
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"wall_s":           {median(wall), "s"},
		"sim_minstr_per_s": {median(rate), "Minstr/s"},
		"max_rss_mb":       {rssMB, "MB"},
	}
}

// latencyMetrics computes the job and restart latencies from the untraced
// repetitions. They go out with the per-layer metrics (see README.md), but
// like the end-to-end metrics they are measured with tracing off.
func latencyMetrics(reps []repStats) map[string]metric {
	var lat, hits, restart []float64
	for _, s := range reps {
		lat = append(lat, millis(s.latencies)...)
		hits = append(hits, millis(s.hits)...)
		if s.restart > 0 {
			restart = append(restart, s.restart.Seconds())
		}
	}
	if p, v, n, ok := tailPercentile(lat); ok {
		fmt.Printf("# job latency: p50 %.3f ms, p%g %.3f ms over %d jobs\n", median(lat), p, v, n)
	}
	if len(hits) > 0 {
		fmt.Printf("# store hits: p50 %.3f ms over %d jobs; restart %.4f s (median of %d)\n",
			median(hits), len(hits), median(restart), len(restart))
	}
	return map[string]metric{
		"job_p50_ms": {quantile(lat, 0.5), "ms"},
		"job_p90_ms": {quantile(lat, 0.9), "ms"},
		"restart_s":  {median(restart), "s"},
		"hit_p50_ms": {median(hits), "ms"},
	}
}

// maxRSSMB is the process's peak resident memory so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// fingerprint describes the host: CPU count, GOMAXPROCS, CPU model, Go
// version and the source revision.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), revision())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// revision is the VCS revision stamped into the binary, or, when the
// source was not built from a repository, a digest of the Go sources and
// module files under the working directory.
func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "source-" + hex.EncodeToString(h.Sum(nil))[:16]
}
