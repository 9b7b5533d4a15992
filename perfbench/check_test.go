package main

import "testing"

// TestFailFrac checks that a non-"ok" status, a result that fails the
// output check and a 429 response each count as a failed run.
func TestFailFrac(t *testing.T) {
	var tl tally
	tl.run("ok", true, "clean")
	tl.run("", true, "clean, status unset")
	tl.run("deadlock", true, "hung")
	tl.run("ok", false, "digest mismatch")
	tl.refused(2) // one shed job of two runs
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	if got := tl.failFrac(); got != 4.0/6 {
		t.Errorf("fail_frac = %g, want %g", got, 4.0/6)
	}
	if len(tl.reasonList()) != 3 {
		t.Errorf("reasons = %v, want status, output check and 429", tl.reasonList())
	}
}

// TestRecordJob checks that a journal record names its job by the
// (design point, benchmark) part of its run key.
func TestRecordJob(t *testing.T) {
	line := []byte(`*0badf00d 57 {"key":"Thr.Eff.|MUM|s12|i80","attempts":1,"result":{}}` + "\n")
	if got := recordJob(line); got != "Thr.Eff.|MUM" {
		t.Errorf("recordJob = %q", got)
	}
	if got := recordJob([]byte(`{"kind":"journal-header","version":2}`)); got != "" {
		t.Errorf("header names job %q", got)
	}
}
