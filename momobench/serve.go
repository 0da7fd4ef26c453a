package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/serve"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// The serve_mix traffic: a closed loop of mixClients clients against one
// in-process server with one worker and the result cache on. Each client
// sends jobsPerClientPerSecond·seconds requests; half of them repeat, byte
// for byte, a request the same client already saw finish.
const (
	mixClients             = 2
	jobsPerClientPerSecond = 8
	// pollInterval is the status poll period of a client waiting for a
	// miss: a small fraction of a miss's duration, so polling does not
	// quantise the latency it measures.
	pollInterval = 2 * time.Millisecond
	// probedJobs is how many misses of a traced loop get layer probes.
	probedJobs = 32
	// speedEvery is the period of the speed-reference samples taken
	// while the loop runs.
	speedEvery = time.Second
)

// mixSpecs are the specifications fresh requests draw from, in equal
// shares, and mixGA the explicit small GA budget every job carries.
var (
	mixSpecs = []string{"mul1", "mul2", "mul6", "mul9", "mul11", "mul12"}
	mixGA    = serve.GAParams{PopSize: 32, MaxGenerations: 30, Stagnation: 30}
)

// mixEntry is one request of a client's sequence. A repeat carries the
// index (in the same client's sequence) of the fresh request it repeats.
type mixEntry struct {
	Fresh  bool
	Repeat int
	Req    serve.JobRequest
}

// freshSeed is the GA seed of client c's k-th fresh request: distinct for
// every (client, k) pair, so fresh requests never collide in the cache.
func freshSeed(seed int64, c, k int) int64 {
	return seed*1_000_000 + int64(k*mixClients+c)
}

// genMix builds every client's request sequence from the workload seed.
// Each sequence starts fresh and holds perClient/2 repeats; a third of
// each client's fresh requests (rounded down) set dvs; specifications
// cycle through mixSpecs in a seeded order.
func genMix(seed int64, perClient int) [][]mixEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]mixEntry, mixClients)
	for c := range out {
		nFresh := perClient - perClient/2
		kinds := make([]bool, perClient) // true = fresh
		for i := 0; i < nFresh; i++ {
			kinds[i] = true
		}
		rng.Shuffle(perClient-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })
		dvs := make([]bool, nFresh)
		for i := 0; i < nFresh/3; i++ {
			dvs[i] = true
		}
		rng.Shuffle(nFresh, func(i, j int) { dvs[i], dvs[j] = dvs[j], dvs[i] })
		specs := rng.Perm(len(mixSpecs))

		seq := make([]mixEntry, perClient)
		var fresh []int
		for i, isFresh := range kinds {
			if isFresh {
				k := len(fresh)
				seq[i] = mixEntry{Fresh: true, Req: serve.JobRequest{
					SpecName: mixSpecs[specs[k%len(specs)]],
					DVS:      dvs[k],
					Seed:     freshSeed(seed, c, k),
					GA:       mixGA,
				}}
				fresh = append(fresh, i)
				continue
			}
			of := fresh[rng.Intn(len(fresh))]
			seq[i] = mixEntry{Repeat: of, Req: seq[of].Req}
		}
		out[c] = seq
	}
	return out
}

// server is one in-process job service listening on a loopback port.
type server struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	base      string
	reg       *obs.Registry
	lifecycle *obs.CollectSink
}

// startServer opens a server over dir with one worker and the result cache
// on; with lifecycle set it also collects the job-lifecycle stream.
func startServer(dir, specDir string, lifecycle bool) (*server, error) {
	s := &server{reg: obs.NewRegistry()}
	cfg := serve.Config{
		Workers:  1,
		DataDir:  filepath.Join(dir, "data"),
		CacheDir: filepath.Join(dir, "cache"),
		SpecDir:  specDir,
		Registry: s.reg,
	}
	if lifecycle {
		s.lifecycle = &obs.CollectSink{}
		cfg.Lifecycle = obs.NewRun(nil, s.lifecycle)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start(context.Background())
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// stop shuts the HTTP listener and the worker pool down and waits for
// both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.srv.Shutdown(ctx))
}

// newClient returns a job-API client with its own connection pool that
// counts every retry it makes.
func newClient(base string, retries *atomic.Int64) *serve.Client {
	return &serve.Client{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		Logf:       func(string, ...any) { retries.Add(1) },
	}
}

// jobResult is what a client observed of one job.
type jobResult struct {
	entry   mixEntry
	index   int
	id      string
	err     error
	status  *serve.StatusView
	result  serve.ResultView
	submit  time.Duration // POST round trip
	latency time.Duration // submit until seen terminal
	seen    time.Time
}

// runMix drives the closed loop: each client sends its next request only
// after the previous one was seen terminal and its result fetched.
func runMix(base string, mix [][]mixEntry, tr *tracer, retries *atomic.Int64) ([][]jobResult, time.Duration) {
	out := make([][]jobResult, len(mix))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range mix {
		out[c] = make([]jobResult, len(mix[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base, retries)
			defer cl.HTTPClient.CloseIdleConnections()
			for i, e := range mix[c] {
				out[c][i] = runJob(cl, c, i, e, tr)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// runMixSampled runs the loop like runMix and, while it runs, takes a
// speed-reference sample every speedEvery.
func runMixSampled(base string, mix [][]mixEntry, retries *atomic.Int64, sp *speedRef) ([][]jobResult, time.Duration, error) {
	var res [][]jobResult
	var wall time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, wall = runMix(base, mix, nil, retries)
	}()
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	var err error
	for {
		select {
		case <-done:
			return res, wall, err
		case <-tick.C:
			if err == nil {
				err = sp.sample(1)
			}
		}
	}
}

// runJob submits one request, waits until it is terminal and fetches its
// result document, recording spans under the job's ID when tracing.
func runJob(cl *serve.Client, c, i int, e mixEntry, tr *tracer) jobResult {
	ctx := context.Background()
	r := jobResult{entry: e, index: i}
	// Spans join the job's server-side ID once the submission returns it.
	trace := fmt.Sprintf("client%d-%d", c, i)
	root := tr.begin(trace, 0, "job")
	defer tr.end(root)
	start := time.Now()
	id := tr.begin(trace, root, "serve.Submit")
	view, err := cl.Submit(ctx, e.Req)
	r.submit = time.Since(start)
	tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	r.id = view.ID
	r.status = &view.StatusView
	trace = view.ID
	tr.retrace(trace, root, id)
	if !view.State.Terminal() {
		id = tr.begin(trace, root, "serve.WaitTerminal")
		r.status, err = cl.WaitTerminal(ctx, view.ID, pollInterval)
		tr.end(id)
		if err != nil {
			r.err = err
			return r
		}
	}
	r.seen = time.Now()
	r.latency = r.seen.Sub(start)
	id = tr.begin(trace, root, "serve.Result")
	doc, err := cl.Result(ctx, view.ID)
	tr.end(id)
	if err == nil {
		err = json.Unmarshal(doc, &r.result)
	}
	r.err = err
	return r
}

// checkMix verifies every job: done, certified, a miss when fresh and a
// cache hit carrying its miss's exact p̄ when a repeat. It returns the
// fingerprint records of the misses.
func (b *harness) checkMix(res [][]jobResult) []record {
	var recs []record
	for c := range res {
		for _, r := range res[c] {
			what := fmt.Sprintf("client %d job %d (%s seed %d dvs=%v)", c, r.index, r.entry.Req.SpecName, r.entry.Req.Seed, r.entry.Req.DVS)
			if !b.rep.check(r.err == nil, "%s: %v", what, r.err) {
				continue
			}
			cert := r.result.Certification
			ok := r.status.State == serve.StateDone && r.result.State == serve.StateDone &&
				cert != nil && cert.Certified && !r.result.Partial
			if !b.rep.check(ok, "%s: state %s, certification %+v", what, r.status.State, cert) {
				continue
			}
			if r.entry.Fresh {
				if b.rep.check(!r.status.Cached, "%s: fresh request answered from the cache", what) {
					recs = append(recs, newRecord(r.entry.Req.SpecName, r.entry.Req.Seed, r.entry.Req.DVS,
						float64(r.result.AvgPower), r.result.Feasible, r.result.Evaluations, r.result.Generations))
				}
				continue
			}
			orig := res[c][r.entry.Repeat].result.AvgPower
			b.rep.check(r.status.Cached && math.Float64bits(float64(r.result.AvgPower)) == math.Float64bits(float64(orig)),
				"%s: repeat of job %d: cached=%v p̄ %v, miss had %v", what, r.entry.Repeat, r.status.Cached, r.result.AvgPower, orig)
		}
	}
	return recs
}

// parseTime reads a StatusView timestamp; the zero time when absent.
func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveSetup opens a fresh server under dir and warms it with one miss
// and its repeat. The warm-up seed is fixed and negative, so it never
// collides with a fresh request's seed.
func (b *harness) serveSetup(dir string, lifecycle bool) (*server, error) {
	s, err := startServer(dir, filepath.Join(b.root, "specs"), lifecycle)
	if err != nil {
		return nil, err
	}
	var retries atomic.Int64
	warm := [][]mixEntry{{{Fresh: true, Req: serve.JobRequest{SpecName: mixSpecs[0], Seed: -warmSeed, GA: mixGA}}}}
	warm[0] = append(warm[0], mixEntry{Repeat: 0, Req: warm[0][0].Req})
	res, _ := runMix(s.base, warm, nil, &retries)
	b.checkMix(res)
	return s, nil
}

// serveMix runs the served job mix.
func (b *harness) serveMix() error {
	runDir, err := os.MkdirTemp(b.buildDir, "serve_mix-")
	if err != nil {
		return err
	}
	defer func() {
		// Deleting the run's thousands of job files queues discards and
		// journal work; syncing settles it here rather than in the next
		// run's fsyncs.
		os.RemoveAll(runDir)
		syscall.Sync()
	}()

	// Set-up: read the specifications, then open and warm a server,
	// several times; the last server stays up for the measured loop.
	var setupS, readMs []float64
	var s *server
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		_, specMs, err := b.readSpecs(mixSpecs)
		if err != nil {
			return err
		}
		if err := b.checkFigure2(); err != nil {
			return err
		}
		next, err := b.serveSetup(filepath.Join(runDir, fmt.Sprintf("setup%d", r)), false)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		readMs = append(readMs, specMs...)
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		s = next
	}
	b.rep.set("setup_s", median(setupS), len(setupS), "median")
	b.rep.set("specio.read_ms", median(readMs), len(readMs), "median")

	// A traced run makes the loop twice, untraced and traced, so each loop
	// sends half as many requests.
	perClient := jobsPerClientPerSecond * int(b.seconds/time.Second)
	if b.traced {
		perClient /= 2
	}
	mix := genMix(b.seed, perClient)
	resetPeakRSS()
	var sp *speedRef
	if !b.traced {
		if sp, err = startSpeedRef(); err != nil {
			return err
		}
		defer sp.stop()
	}
	// The first sample waits for the helper to build its table, so that
	// the build does not overlap the loop.
	if err := sp.sample(1); err != nil {
		return err
	}
	var retries atomic.Int64
	startCPU := cpuTime()
	res, wall, err := runMixSampled(s.base, mix, &retries, sp)
	cpu := cpuTime() - startCPU
	if err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	b.mixFailures(s, &retries)
	recs := b.checkMix(res)
	miss, hit := split(res)
	evals, gens := 0, 0
	for _, r := range recs {
		evals += r.Evaluations
		gens += r.Generations
	}
	b.fingerprint(recs, evals, gens, len(hit), len(miss))
	jobs := len(miss) + len(hit)
	b.rep.set("sweep_s", wall.Seconds(), jobs, "wall of the request sequence")
	b.rep.set("jobs_per_s", float64(jobs)/wall.Seconds(), jobs,
		fmt.Sprintf("per wall second, hits=%d misses=%d", len(hit), len(miss)))

	if !b.traced {
		v, note := sp.scaledCPU(cpu, "the request sequence, server and clients")
		b.rep.set("cpu_s", v, jobs, note)
		b.mixEndToEnd(res, recs)
		return nil
	}

	// Traced run: the same sequence again on a fresh server with the
	// lifecycle stream on and client spans recorded.
	tr := &tracer{}
	ts, err := startServer(filepath.Join(runDir, "traced"), filepath.Join(b.root, "specs"), true)
	if err != nil {
		return err
	}
	tres, twall := runMix(ts.base, mix, tr, &retries)
	if err := ts.stop(); err != nil {
		return err
	}
	rejected, retried := b.mixFailures(ts, &retries)
	b.rep.set("serve.rejected", float64(rejected), len(mix)*perClient, "submissions")
	b.rep.set("serve.retries", float64(retried), len(mix)*perClient, "client retries")
	trecs := b.checkMix(tres)
	b.rep.check(len(trecs) == len(recs), "traced loop made %d misses, untraced %d", len(trecs), len(recs))
	for i := range trecs {
		if i < len(recs) {
			b.rep.check(trecs[i] == recs[i], "traced miss %d differs: %+v vs %+v", i, trecs[i], recs[i])
		}
	}
	b.rep.set("obs.trace_overhead_pct", 100*(twall.Seconds()-wall.Seconds())/wall.Seconds(), 2, "traced vs untraced loop")
	b.rep.set("synth.evaluations", float64(evals), len(recs), "over misses")
	b.rep.set("ga.generations", float64(gens), len(recs), "over misses")
	if err := b.mixLayers(ts, tres, tr, runDir); err != nil {
		return err
	}
	return b.writeTrace(tr, ts.lifecycle.Events())
}

// mixFailures counts server-side rejections and client retries as failed
// operations and returns both counts.
func (b *harness) mixFailures(s *server, retries *atomic.Int64) (rejected, retried int) {
	rejected = int(s.reg.Counter("serve.jobs_rejected").Value() + s.reg.Counter("serve.jobs_shed").Value())
	retried = int(retries.Swap(0))
	b.rep.fail(rejected, "server rejected %d submissions", rejected)
	b.rep.fail(retried, "clients retried %d requests", retried)
	return rejected, retried
}

// split separates the miss and hit latencies of a loop.
func split(res [][]jobResult) (miss, hit []float64) {
	for c := range res {
		for _, r := range res[c] {
			if r.err != nil || r.status == nil {
				continue
			}
			if r.status.Cached {
				hit = append(hit, ms(r.latency))
			} else {
				miss = append(miss, ms(r.latency))
			}
		}
	}
	return miss, hit
}

func (b *harness) mixEndToEnd(res [][]jobResult, recs []record) {
	miss, hit := split(res)
	var powers []float64
	for _, r := range recs {
		powers = append(powers, r.pw*1e3)
	}
	b.rep.set("mean_power_mw", mean(powers), len(powers), "mean final p̄ over misses")
	b.latencies(miss, hit)
}

// latencies sets the client-observed latency percentiles of a loop.
func (b *harness) latencies(miss, hit []float64) {
	b.rep.setPctl("miss_p50_ms", percentile(miss, 50))
	b.rep.setPctl("miss_p90_ms", percentile(miss, 90))
	b.rep.setPctl("hit_p50_ms", percentile(hit, 50))
}

// mixLayers derives the serve, runctl, cas, specio and probe metrics of a
// traced loop.
func (b *harness) mixLayers(s *server, res [][]jobResult, tr *tracer, runDir string) error {
	miss, hit := split(res)
	b.latencies(miss, hit)
	var submit, queue, run, reveal []float64
	for c := range res {
		for _, r := range res[c] {
			if r.err != nil {
				continue
			}
			submit = append(submit, ms(r.submit))
			if r.status.Cached {
				continue
			}
			created, started, finished := parseTime(r.status.Created), parseTime(r.status.Started), parseTime(r.status.Finished)
			queue = append(queue, ms(started.Sub(created)))
			run = append(run, ms(finished.Sub(started)))
			reveal = append(reveal, ms(r.seen.Sub(finished)))
		}
	}
	b.rep.set("serve.submit_ms", median(submit), len(submit), "median")
	b.rep.set("serve.queue_wait_ms", median(queue), len(queue), "median")
	b.rep.set("serve.run_ms", median(run), len(run), "median")
	b.rep.set("serve.reveal_ms", median(reveal), len(reveal), "median")

	var ckpt []float64
	for _, ev := range s.lifecycle.Events() {
		if ev.Job != nil && ev.Job.Event == obs.JobCheckpoint {
			ckpt = append(ckpt, float64(ev.Job.DwellNs)/1e6)
		}
	}
	b.rep.set("runctl.checkpoint_ms", median(ckpt), len(ckpt), "median runctl.Save")
	b.rep.set("runctl.checkpoints_per_job", float64(len(ckpt))/float64(len(miss)), len(miss), "per miss")
	hits := s.reg.Counter("serve.cache_hits").Value()
	lookups := hits + s.reg.Counter("serve.cache_misses").Value()
	b.rep.set("cas.hit_share", float64(hits)/float64(lookups), int(lookups), "server cache hits per lookup")

	// The cache and canonical-form layers, called directly on the misses'
	// own specifications and result documents.
	store, err := cas.Open(filepath.Join(runDir, "probe-cache"), 0, cas.Metrics{})
	if err != nil {
		return err
	}
	systems := map[string]*model.System{}
	var canonUs, putMs, getUs []float64
	pr := newProber(tr, b.rep, b.seed)
	probed := 0
	for c := range res {
		for _, r := range res[c] {
			if r.err != nil || r.status.Cached {
				continue
			}
			sys := systems[r.entry.Req.SpecName]
			if sys == nil {
				loaded, _, err := b.readSpecs([]string{r.entry.Req.SpecName})
				if err != nil {
					return err
				}
				sys = loaded[0]
				systems[r.entry.Req.SpecName] = sys
			}
			trace := r.id
			id := tr.begin(trace, 0, "specio.Canonical+cas.Key")
			start := time.Now()
			canon, err := specio.Canonical(sys)
			if err != nil {
				return err
			}
			req := r.entry.Req
			opts := synth.Options{UseDVS: req.DVS, Seed: req.Seed, Certify: true, GA: ga.Config{
				PopSize: req.GA.PopSize, MaxGenerations: req.GA.MaxGenerations, Stagnation: req.GA.Stagnation}}
			key := cas.Key(canon, synth.CanonicalOptions(opts), []byte(synth.EngineVersion))
			canonUs = append(canonUs, float64(time.Since(start))/float64(time.Microsecond))
			tr.end(id)
			doc, err := json.Marshal(&r.result)
			if err != nil {
				return err
			}
			id = tr.begin(trace, 0, "cas.Put")
			start = time.Now()
			err = store.Put(&cas.Entry{Key: key, System: sys.App.Name,
				Provenance: cas.Provenance{EngineVersion: synth.EngineVersion, Certified: true}, Result: doc})
			putMs = append(putMs, ms(time.Since(start)))
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin(trace, 0, "cas.Get")
			start = time.Now()
			_, ok := store.Get(key)
			getUs = append(getUs, float64(time.Since(start))/float64(time.Microsecond))
			tr.end(id)
			b.rep.check(ok, "%s: cache entry not found after put", trace)

			if probed == probedJobs {
				continue
			}
			probed++
			mapping, err := mappingOf(sys, &r.result)
			if err != nil {
				return fmt.Errorf("%s: %w", trace, err)
			}
			if err := pr.probe(trace, 0, sys, mapping, r.entry.Req.DVS); err != nil {
				return err
			}
		}
	}
	b.rep.set("specio.canonical_us", median(canonUs), len(canonUs), "median")
	b.rep.set("cas.put_ms", median(putMs), len(putMs), "median")
	b.rep.set("cas.get_us", median(getUs), len(getUs), "median")
	pr.report()
	return nil
}

// mappingOf rebuilds the task mapping of a result document.
func mappingOf(sys *model.System, v *serve.ResultView) (model.Mapping, error) {
	pes := map[string]model.PEID{}
	for i, pe := range sys.Arch.PEs {
		pes[pe.Name] = model.PEID(i)
	}
	m := model.NewMapping(sys.App)
	if len(v.Mapping) != len(sys.App.Modes) {
		return nil, fmt.Errorf("result maps %d modes, specification has %d", len(v.Mapping), len(sys.App.Modes))
	}
	for mi, mode := range sys.App.Modes {
		mv := v.Mapping[mi]
		for ti, task := range mode.Graph.Tasks {
			pe, ok := pes[mv.Tasks[task.Name]]
			if !ok {
				return nil, fmt.Errorf("mode %s task %s: unknown PE %q", mode.Name, task.Name, mv.Tasks[task.Name])
			}
			m[mi][ti] = pe
		}
	}
	return m, nil
}
