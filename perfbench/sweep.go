package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/service"
	"repro/internal/xrand"
)

// The sweep-service workload drives an in-process tesimd: service.New on
// an on-disk store, served over loopback HTTP, with a closed loop of
// jobs() clients that each submit their next job when the last returns.
// The sweep crosses five design points with two LL and two HH benchmarks;
// each job is one (design point, benchmark) pair over two seeds, which the
// service's lanes coalesce into one lane batch. Runs are short, so
// system assembly, runner queueing, the store's append+fsync and HTTP
// handling are a visible share of the host time.
var (
	sweepDesignPoints = []string{"TB-DOR", "CP-CR", "Thr.Eff.", "Ring", "BaseJump"}
	sweepBenchmarks   = []struct {
		abbr  string
		scale float64
	}{{"BIN", 0.05}, {"HSP", 0.05}, {"LIB", 0.01}, {"STC", 0.01}}
)

const (
	sweepLanes    = 2
	seedsPerJob   = 2
	jobHeader     = "X-Perfbench-Job" // names a request's job for the handler span
	serverTimeout = 30 * time.Second
)

// sweepSpecs returns the canonical job list: its order and every job's
// seed list come from the workload seed.
func sweepSpecs(seed uint64) ([]service.Spec, error) {
	var specs []service.Spec
	k := 0
	for _, dp := range sweepDesignPoints {
		for _, b := range sweepBenchmarks {
			seeds := make([]uint64, seedsPerJob)
			for i := range seeds {
				seeds[i] = simSeed(seed, k)
				k++
			}
			spec, err := service.Spec{Configs: []string{dp}, Benchmarks: []string{b.abbr}, Seeds: seeds, Scale: b.scale}.
				Canonical(service.DefaultMaxRunsPerJob)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	r := xrand.New(seed)
	for i := len(specs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
	return specs, nil
}

// specJob names a job the way jobOf names its configs.
func specJob(spec service.Spec) string { return spec.Configs[0] + "|" + spec.Benchmarks[0] }

// serviceBench is the sweep-service workload's state across repetitions.
type serviceBench struct {
	specs  []service.Spec
	ref    *references
	tmp    string            // parent of every repetition's store
	docs   map[string][]byte // result document per job ID, from the first repetition
	client *http.Client
}

func newServiceBench(ctx context.Context, seed uint64, recorded map[string]string, tmp string) (*serviceBench, error) {
	specs, err := sweepSpecs(seed)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, spec := range specs {
		c, err := spec.BuildConfigs()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, c...)
	}
	runs, err := computeReferences(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	return &serviceBench{
		specs:  specs,
		ref:    &references{runs: runs, recorded: recorded},
		tmp:    tmp,
		docs:   map[string][]byte{},
		client: newClient(),
	}, nil
}

// newClient allows at most jobs() connections to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     jobs(),
		MaxIdleConnsPerHost: jobs(),
		DisableCompression:  true,
	}}
}

// liveServer is one service instance served over loopback HTTP.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

// startServer builds a service on storePath and serves it; newDur is the
// time service.New took (the store replay on a restart).
func startServer(storePath string, st *sweepTrace) (ls *liveServer, newDur time.Duration, err error) {
	opts := service.Options{StorePath: storePath, Jobs: jobs(), Lanes: sweepLanes}
	if st != nil {
		opts.FS = tracedFS{base: iofault.OS, st: st}
		opts.Run, opts.RunLanes = st.run, st.runLanes
	}
	t0 := time.Now()
	srv, err := service.New(opts)
	newDur = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	h := srv.Handler()
	if st != nil {
		h = st.handler(h)
	}
	ls = &liveServer{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, newDur, nil
}

// waitReady polls /readyz until it answers 200.
func (ls *liveServer) waitReady(client *http.Client) error {
	deadline := time.Now().Add(serverTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(ls.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("service did not become ready")
}

// stop shuts the HTTP server down, waits for it to stop serving, and
// closes the service (its pool and store).
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), serverTimeout)
	defer cancel()
	herr := ls.hs.Shutdown(ctx)
	if err := <-ls.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	if err := ls.srv.Close(); err != nil {
		return err
	}
	return herr
}

// handler wraps the service's API to record each submission's handler
// span, keyed by the job header.
func (st *sweepTrace) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if job := r.Header.Get(jobHeader); job != "" {
			end := time.Now()
			st.mu.Lock()
			st.handlers[job] = interval{job: job, start: start, end: end}
			st.mu.Unlock()
		}
	})
}

// jobReply is one submission's outcome as the client saw it.
type jobReply struct {
	rtt    time.Duration
	code   int
	status string   // job status from the job document
	runs   []string // run statuses
	extra  int      // attempts beyond one per run
	doc    []byte   // the result document
}

type jobDoc struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Runs   []struct {
		Status   string `json:"status"`
		Attempts int    `json:"attempts"`
	} `json:"runs"`
}

// submit posts one job with wait=true, times it to the response, then
// fetches its result document (outside the timed interval).
func (b *serviceBench) submit(url string, spec service.Spec, tag string) (jobReply, time.Time, error) {
	body, err := json.Marshal(service.Request{Spec: spec, Wait: true})
	if err != nil {
		return jobReply{}, time.Time{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(jobHeader, tag+specJob(spec))
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return jobReply{}, start, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := jobReply{rtt: time.Since(start), code: resp.StatusCode}
	if err != nil || resp.StatusCode != http.StatusOK {
		return rep, start, err
	}
	var doc jobDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return rep, start, fmt.Errorf("job document: %w", err)
	}
	rep.status = doc.Status
	for _, r := range doc.Runs {
		rep.runs = append(rep.runs, r.Status)
		if r.Attempts > 1 {
			rep.extra += r.Attempts - 1
		}
	}
	res, err := b.client.Get(url + "/v1/runs/" + doc.ID + "/result")
	if err != nil {
		return rep, start, err
	}
	rep.doc, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err == nil && res.StatusCode != http.StatusOK {
		err = fmt.Errorf("result document: HTTP %d", res.StatusCode)
	}
	return rep, start, err
}

// submitAll runs the closed loop: jobs() clients, each sending its next
// job when the last one returns.
func (b *serviceBench) submitAll(url, tag string, st *sweepTrace, hits bool) ([]jobReply, error) {
	replies := make([]jobReply, len(b.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for c := 0; c < jobs(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.specs) {
					return
				}
				rep, start, err := b.submit(url, b.specs[i], tag)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				replies[i] = rep
				if st != nil {
					iv := interval{job: specJob(b.specs[i]), key: tag + specJob(b.specs[i]), start: start, end: start.Add(rep.rtt)}
					st.mu.Lock()
					if hits {
						st.hitRequests = append(st.hitRequests, iv)
					} else {
						st.requests = append(st.requests, iv)
					}
					st.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return replies, firstErr
}

// rep runs one repetition: a fresh store and server, the sweep, a restart
// on the written store, and the resubmission of every job.
func (b *serviceBench) rep(t *tally, st *sweepTrace) (repStats, error) {
	var s repStats
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "results.jsonl")
	ls, _, err := startServer(store, st)
	if err != nil {
		return s, err
	}
	if err := ls.waitReady(b.client); err != nil {
		ls.stop()
		return s, err
	}
	s.setup = time.Since(t0)

	submit := time.Now()
	fresh, err := b.submitAll(ls.url, "fresh/", st, false)
	s.wall = time.Since(submit)
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return s, err
	}
	for i, rep := range fresh {
		s.latencies = append(s.latencies, rep.rtt)
		s.instrs += b.checkFresh(b.specs[i], rep, t)
	}

	t1 := time.Now()
	ls, s.replay, err = startServer(store, st)
	if err != nil {
		return s, err
	}
	err = ls.waitReady(b.client)
	s.restart = time.Since(t1)
	var hits []jobReply
	if err == nil {
		hits, err = b.submitAll(ls.url, "hit/", st, true)
	}
	if err == nil {
		s.replayed, s.executed, err = statusz(b.client, ls.url)
	}
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return s, err
	}
	for i, rep := range hits {
		s.hits = append(s.hits, rep.rtt)
		b.checkHit(b.specs[i], rep, fresh[i].doc, t)
	}
	if s.executed != 0 {
		t.fail(fmt.Sprintf("resubmission executed %d runs", s.executed))
	}
	if st != nil {
		st.wall = s.wall
		st.replay, st.replayed = s.replay, s.replayed
		for _, rep := range append(fresh, hits...) {
			if rep.code == http.StatusTooManyRequests {
				st.shed++
			}
			st.retries += rep.extra
		}
		for _, rep := range hits {
			st.storeHits += len(rep.runs)
		}
		st.splitJobs()
		b.ref.checkTraced(st, t)
	}
	return s, nil
}

// statusz reads how many records the store holds and how many runs the
// pool executed.
func statusz(client *http.Client, url string) (records, executed int, err error) {
	resp, err := client.Get(url + "/statusz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		PoolExecuted int `json:"pool_executed"`
		Store        struct {
			Results int `json:"results"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("statusz: %w", err)
	}
	return doc.Store.Results, doc.PoolExecuted, nil
}

// checkFresh counts a fresh job's runs: each must be "ok", equal its solo
// core.Run reference (so every lane-batched seed group equals its solo
// runs), and the document must equal the first repetition's byte for
// byte and, at the default seed, the recorded digest. It returns the
// simulated instructions of the job.
func (b *serviceBench) checkFresh(spec service.Spec, rep jobReply, t *tally) uint64 {
	n := len(spec.SeedList())
	if rep.code == http.StatusTooManyRequests {
		t.refused(n)
		return 0
	}
	var doc service.ResultDoc
	docOK := rep.code == http.StatusOK && rep.status == service.StatusDone &&
		json.Unmarshal(rep.doc, &doc) == nil && len(doc.Runs) == n
	if docOK {
		if first, ok := b.docs[doc.ID]; ok {
			docOK = bytes.Equal(first, rep.doc)
		} else {
			b.docs[doc.ID] = rep.doc
		}
		docOK = docOK && b.ref.recordedOK(doc.ID, digest(string(rep.doc)))
	}
	var instrs uint64
	for i := 0; i < n; i++ {
		status, ok := "error", false
		if docOK {
			run := doc.Runs[i]
			status = run.Result.Status
			ref, found := b.ref.runs[run.Key]
			ok = found && reflect.DeepEqual(ref.result, run.Result)
			instrs += run.Result.ScalarInstrs
		}
		t.run(status, ok, specJob(spec))
	}
	return instrs
}

// checkHit counts a resubmitted job's runs: its document must be
// byte-identical to the fresh one.
func (b *serviceBench) checkHit(spec service.Spec, rep jobReply, fresh []byte, t *tally) {
	n := len(spec.SeedList())
	if rep.code == http.StatusTooManyRequests {
		t.refused(n)
		return
	}
	ok := rep.code == http.StatusOK && rep.status == service.StatusDone && bytes.Equal(rep.doc, fresh)
	for i := 0; i < n; i++ {
		status := "missing"
		if i < len(rep.runs) {
			status = rep.runs[i]
		}
		t.run(status, ok, "store hit "+specJob(spec))
	}
}
