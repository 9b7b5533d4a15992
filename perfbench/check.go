package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/noc"
)

// tally counts attempted and failed runs. A run fails on a non-"ok"
// status, on a result that fails the output check, and on a 429 response;
// fail_frac is failed / attempted.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int // failure reason -> count, for the report
}

// run records one attempted run with its status and whether its output
// passed the check.
func (t *tally) run(status string, outputOK bool, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case status != "ok" && status != "":
		t.failLocked("status " + status + ": " + what)
	case !outputOK:
		t.failLocked("output check: " + what)
	}
}

// refused records a submission the service shed with 429; the job's runs
// were attempted and none of them ran.
func (t *tally) refused(runs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += runs
	for i := 0; i < runs; i++ {
		t.failLocked("429 response")
	}
}

// fail records a failed check on runs that were already counted.
func (t *tally) fail(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(reason)
}

func (t *tally) failLocked(reason string) {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

func (t *tally) failFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// reasonList returns the failure reasons with their counts, sorted.
func (t *tally) reasonList() []string {
	out := make([]string, 0, len(t.reasons))
	for r, n := range t.reasons {
		out = append(out, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(out)
	return out
}

// digest is the hex SHA-256 of the values' %+v rendering, which covers
// unexported fields (the running sums inside NetStats) and prints floats
// exactly.
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// runDigest identifies one simulation's full output.
func runDigest(res core.Result, ns *noc.NetStats) string { return digest(res, *ns) }

// defaultSeed is the workload seed the reference digests were recorded at.
const defaultSeed = 1

// referenceFile holds, per workload, the digest of every run (closed
// workloads: result and network statistics, keyed by run key) or result
// document (sweep-service: keyed by job ID) at the default seed.
//
//go:embed reference.json
var referenceJSON []byte

type referenceTable map[string]map[string]string

func loadReference() (referenceTable, error) {
	var t referenceTable
	if err := json.Unmarshal(referenceJSON, &t); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return t, nil
}

// writeReference records digests for one workload into the reference
// file at path, keeping the other workloads' entries.
func writeReference(path, workload string, digests map[string]string) error {
	t := referenceTable{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	t[workload] = digests
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
