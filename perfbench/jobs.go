package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/telemetry"
)

// jobsBench runs one jobs-* workload against freshly started daemons.
type jobsBench struct {
	r        *runner
	ref      *reference
	classes  map[string]string
	tr       *tracer
	nworkers int
	paper    []byte // examples/flows/paper.psa, when the mix uses it
	rng      *rand.Rand
	nextIdx  int          // numbers (and salts) the run's jobs
	openSeen map[spec]int // open-loop jobs planned so far, per spec
}

func runJobs(r *runner) error {
	wl := r.wl
	jb := &jobsBench{r: r, rng: rand.New(rand.NewSource(r.seed)), classes: taskClasses(), openSeen: map[spec]int{}}
	// The generator's thread and connection cap: one worker, and one
	// connection, per CPU, on no more OS threads running Go code.
	jb.nworkers = runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > jb.nworkers {
		return fmt.Errorf("generator self-check: GOMAXPROCS=%d exceeds nproc=%d", p, jb.nworkers)
	}
	if wl.SubmitNodes < 1 || wl.SubmitNodes > jb.nworkers || wl.SubmitNodes > wl.Nodes {
		return fmt.Errorf("workload %s: submit_nodes %d must be 1..min(nodes, nproc=%d)", r.name, wl.SubmitNodes, jb.nworkers)
	}
	if wl.SpecCopies < 1 || wl.PaperFlowPerBlock < 0 || wl.PaperFlowPerBlock > wl.SpecCopies*len(allSpecs()) ||
		wl.OpenRate <= 0 || wl.OpenShare <= 0 || wl.OpenShare >= 1 ||
		wl.Outstanding < 1 || wl.SaturationSizing <= 0 || wl.PollMS < 1 {
		return fmt.Errorf("workload %s: settings out of range in workloads.json", r.name)
	}
	if r.trace {
		jb.tr = newTracer()
	}
	if wl.PaperFlowPerBlock > 0 {
		src, err := os.ReadFile(filepath.Join(r.root, "examples", "flows", "paper.psa"))
		if err != nil {
			return err
		}
		jb.paper = src
	}
	// The in-process reference every job result is checked against. It is
	// the checker's work, not the daemon's, so it is not part of setup_s.
	ref, bad, err := buildReference(r.exp)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		r.problem(bad...)
	}
	jb.ref = ref

	runDir, err := os.MkdirTemp(filepath.Join(r.root, ".bench_build"), "run-"+r.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	// Set-up, repeated: start the nodes, wait for /healthz, register the
	// paper flow, and run the warm-up pass (each spec once). The last
	// repetition's daemons are the ones measured.
	var ds []*daemon
	defer func() { stopDaemons(ds) }()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		stopDaemons(ds)
		ds = nil
		start := time.Now()
		ds, err = startDaemons(r, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return err
		}
		if err := jb.warmUp(ds); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	var bases []string
	for _, d := range ds[:wl.SubmitNodes] {
		bases = append(bases, d.url())
	}
	poll := time.Duration(wl.PollMS) * time.Millisecond
	g := newGenerator(jb.nworkers, bases, poll, r.seed, jb.tr)
	// The measurement alternates an open-loop and a closed-loop phase, so
	// a slow spell of the host falls on both rather than on one.
	secs := r.seconds.Seconds() / rounds
	blockSize := wl.SpecCopies * len(allSpecs())
	open := make([][]*jobRun, rounds)
	sat := make([][]*jobRun, rounds)
	for k := range open {
		open[k] = jb.plan(roundTo(wl.OpenRate*secs*wl.OpenShare, blockSize), true)
		sat[k] = jb.plan(roundTo(wl.SaturationSizing*secs*(1-wl.OpenShare), blockSize), false)
		if len(sat[k]) <= 2*wl.Outstanding {
			return fmt.Errorf("workload %s: %d closed-loop jobs per round are too few for %d outstanding", r.name, len(sat[k]), wl.Outstanding)
		}
	}

	m0, err := g.scrape(ds)
	if err != nil {
		return err
	}
	for k := range open {
		dur := time.Duration(float64(len(open[k])) / wl.OpenRate * float64(time.Second))
		g.run(open[k], phaseCfg{open: true, rate: wl.OpenRate, limit: time.Now().Add(dur + 20*time.Second)})
		g.run(sat[k], phaseCfg{outstanding: wl.Outstanding, limit: time.Now().Add(20 * time.Second)})
	}
	m1, err := g.scrape(ds)
	if err != nil {
		return err
	}
	g.close()
	rss := 0.0
	for _, d := range ds {
		v, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		rss += v
	}
	stopDaemons(ds)
	ds = nil

	if peak := g.maxLive.Load(); peak > int64(jb.nworkers) {
		return fmt.Errorf("generator self-check: %d connections open at once, cap is nproc=%d", peak, jb.nworkers)
	}
	var all []*jobRun
	for k := range open {
		all = append(append(all, open[k]...), sat[k]...)
	}
	for _, j := range all {
		jb.check(j)
	}
	jb.report(open, sat, all, m0, m1, rss, g)
	if jb.tr == nil {
		return nil
	}
	return r.writeTrace(jb.tr, jb.traceExtra(all, m0, m1))
}

// rounds is how many times the open-loop and closed-loop phases
// alternate; --seconds is shared out evenly among the rounds.
const rounds = 3

func roundTo(x float64, block int) int {
	n := int(math.Round(x/float64(block))) * block
	if n < block {
		n = block
	}
	return n
}

// plan draws n jobs in blocks, each block every spec SpecCopies times in
// a seeded order, so every seed submits the same mix. In each block,
// PaperFlowPerBlock seeded positions reference the registered paper flow.
// Traced runs trace every other open-loop job of each spec, so traced and
// untraced jobs have the same mix of specs (at 22 s, in every round too).
// With two copies of a spec per block, the traced copy alternates between
// the first and the second from block to block, so the position of a job
// in its block does not favour either side.
func (jb *jobsBench) plan(n int, openLoop bool) []*jobRun {
	wl := jb.r.wl
	var specs []spec
	for c := 0; c < wl.SpecCopies; c++ {
		specs = append(specs, allSpecs()...)
	}
	var out []*jobRun
	for len(out) < n {
		jb.rng.Shuffle(len(specs), func(i, k int) { specs[i], specs[k] = specs[k], specs[i] })
		paper := map[int]bool{}
		for _, p := range jb.rng.Perm(len(specs))[:wl.PaperFlowPerBlock] {
			paper[p] = true
		}
		for i, s := range specs {
			if len(out) == n {
				break
			}
			// Open-loop jobs alternate between the workers (and so between
			// the submit nodes); the closed loop reassigns them.
			j := &jobRun{idx: jb.nextIdx, spec: s, salted: wl.Salted, worker: len(out) % jb.nworkers}
			jb.nextIdx++
			if paper[i] {
				j.flow = "paper"
			}
			if wl.Salted {
				src := mustBench(s.bench).Source
				j.source = src + fmt.Sprintf("\nint psabench_salt_%d_%d(int x) { return x + %d; }\n", uint64(jb.r.seed), j.idx, j.idx)
			}
			if openLoop {
				k := jb.openSeen[s]
				if jb.tr != nil && (k/wl.SpecCopies+k%wl.SpecCopies)%2 == 1 {
					j.traced = true
					j.group = jb.tr.newID()
				}
				jb.openSeen[s]++
			}
			out = append(out, j)
		}
	}
	return out
}

func mustBench(name string) *bench.Benchmark {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err) // names come from bench.All
	}
	return b
}

// warmUp registers the paper flow on every node (when the mix uses it)
// and runs each of the ten bundled specs once, all outstanding at once.
func (jb *jobsBench) warmUp(ds []*daemon) error {
	if jb.paper != nil {
		hc := &http.Client{Timeout: 30 * time.Second}
		for _, d := range ds {
			req, err := http.NewRequest(http.MethodPut, d.url()+"/v1/flows/paper", bytes.NewReader(jb.paper))
			if err != nil {
				return err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return fmt.Errorf("PUT paper flow: %w", err)
			}
			resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				return fmt.Errorf("PUT paper flow on %s: status %d", d.id, resp.StatusCode)
			}
		}
		hc.CloseIdleConnections()
	}
	var bases []string
	for _, d := range ds[:jb.r.wl.SubmitNodes] {
		bases = append(bases, d.url())
	}
	g := newGenerator(jb.nworkers, bases, time.Duration(jb.r.wl.PollMS)*time.Millisecond, jb.r.seed, nil)
	defer g.close()
	var jobs []*jobRun
	for i, s := range allSpecs() {
		jobs = append(jobs, &jobRun{idx: -1 - i, spec: s})
	}
	g.run(jobs, phaseCfg{outstanding: len(jobs), limit: time.Now().Add(60 * time.Second)})
	for _, j := range jobs {
		jb.check(j)
	}
	return nil
}

// check counts the job as attempted, and as failed when it did not finish
// or its output differs from the expected file or the reference.
func (jb *jobsBench) check(j *jobRun) {
	r := jb.r
	r.attempted++
	if j.failed != "" {
		r.failed++
		if r.failed <= 3 {
			r.info("failed_job", 0, "", fmt.Sprintf("%s: %s", j.spec, j.failed))
		}
		return
	}
	salt := 0
	if j.salted {
		salt = r.exp.SaltHelperLOC
	}
	bad := jb.ref.checkDesigns(j.spec, j.res.Designs, j.res.AutoTarget, salt)
	if want := r.exp.Benchmarks[j.spec.bench].AutoTarget; j.res.AutoTarget != want {
		bad = append(bad, fmt.Sprintf("job %s %s: auto target %q, want %q", j.id, j.spec, j.res.AutoTarget, want))
	}
	if len(bad) > 0 {
		r.failed++
		r.problem(bad...)
	}
}

// resultMS is a job's result latency: from its scheduled send time to
// the moment the client held its result body. A job that failed counts
// as missing every limit: it is given the longest latency any job of the
// phase could have had, the phase's whole span.
func resultMS(jobs []*jobRun) []float64 {
	var first, last time.Time
	for _, j := range jobs {
		if first.IsZero() || j.due.Before(first) {
			first = j.due
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	var out []float64
	for _, j := range jobs {
		if j.failed != "" {
			out = append(out, ms(last.Sub(first)))
		} else {
			out = append(out, ms(j.done.Sub(j.due)))
		}
	}
	return out
}

func (jb *jobsBench) report(open, sat [][]*jobRun, all []*jobRun, m0, m1 map[string]float64, rss float64, g *generator) {
	r, wl := jb.r, jb.r.wl
	var lat, late, tracedLat, plainLat []float64
	var openJobs []*jobRun
	satJobs, satTime := 0, time.Duration(0)
	for k := range open {
		l := resultMS(open[k])
		satJobs += len(sat[k])
		satTime += makespan(sat[k])
		for i, j := range open[k] {
			if j.traced {
				tracedLat = append(tracedLat, l[i])
			} else {
				plainLat = append(plainLat, l[i])
			}
			if !j.sent.IsZero() {
				late = append(late, ms(j.sent.Sub(j.due)))
			}
		}
		lat = append(lat, l...)
		openJobs = append(openJobs, open[k]...)
	}
	// Every open-loop phase is whole blocks, so each spec appears equally
	// often and the geometric mean over all open-loop jobs weighs the ten
	// specs alike, as fig5-cold's does, while using every sample. The
	// percentiles and the throughput pool the rounds too, which on a few
	// dozen long jobs per round is steadier than a median over rounds.
	r.e2e["flow_ms_geomean"] = geomean(lat)
	r.e2e["result_ms_p50"] = median(lat)
	r.e2e["result_ms_p95"] = quantile(lat, 0.95)
	r.e2e["flows_per_s"] = float64(satJobs) / satTime.Seconds()
	r.e2e["peak_rss_mb"] = rss
	r.info("rounds", rounds, "count", fmt.Sprintf("each %d open-loop jobs at %.1f jobs/s, then %d closed-loop jobs with %d outstanding",
		len(open[0]), wl.OpenRate, len(sat[0]), wl.Outstanding))
	r.info("gen.late_ms_p95", quantile(late, 0.95), "ms", "how late the open-loop generator sent jobs")
	r.info("gen.threads", float64(jb.nworkers), "count", fmt.Sprintf("cap nproc=%d", runtime.NumCPU()))
	r.info("gen.conns", float64(g.maxLive.Load()), "count", fmt.Sprintf("most open at once; cap nproc=%d; %d dials", runtime.NumCPU(), g.dials.Load()))
	r.info("gen.poll_ms", float64(wl.PollMS), "ms", "status poll interval")
	r.info("result_409", float64(g.early409.Load()), "count", "result GETs answered 409 after the status read done")
	r.info("batch_groups", m1["batch_groups"]-m0["batch_groups"], "count", fmt.Sprintf("%.0f jobs batched", m1["batch_jobs"]-m0["batch_jobs"]))
	if !r.trace {
		return
	}

	l := r.layer
	var submit, status, get, wait, run []float64
	for _, j := range openJobs {
		if j.res != nil {
			wait = append(wait, j.res.QueueWaitMS)
			run = append(run, j.res.RunMS)
		}
	}
	taskMS := map[string]float64{}
	counters := map[string]float64{}
	done, refMisses := 0.0, 0.0
	for _, j := range all {
		if j.traced {
			if j.submitMS > 0 {
				submit = append(submit, j.submitMS)
			}
			status = append(status, j.statusMS...)
			if j.resultMS > 0 {
				get = append(get, j.resultMS)
			}
		}
		refMisses += float64(jb.ref.misses[j.spec])
		if j.res == nil {
			continue
		}
		done++
		for _, st := range j.res.Telemetry.Stats {
			if c, ok := jb.classes[st.Name]; ok && st.Kind == telemetry.KindTask {
				taskMS[c] += st.Millis
			}
		}
		for _, c := range []string{interp.CounterCompileNanos, telemetry.CounterInterpRuns,
			telemetry.CounterDesignsForked, telemetry.CounterHLSPartialCompiles} {
			counters[c] += float64(j.res.Telemetry.Counters[c])
		}
	}
	n := float64(len(all))
	d := func(k string) float64 { return m1[k] - m0[k] }
	l["service.submit_ms_p50"] = median(submit)
	l["service.submit_ms_p95"] = quantile(submit, 0.95)
	l["service.status_ms_p50"] = median(status)
	l["service.result_get_ms_p50"] = median(get)
	l["service.queue_wait_ms_p50"] = median(wait)
	l["service.queue_wait_ms_p95"] = quantile(wait, 0.95)
	l["service.run_ms_p50"] = median(run)
	l["service.run_ms_p95"] = quantile(run, 0.95)
	l["service.batch_jobs_per_group"] = 1 // no batch formed: every job ran alone
	if d("batch_groups") > 0 {
		l["service.batch_jobs_per_group"] = d("batch_jobs") / d("batch_groups")
	}
	l["store.fsyncs_per_append"] = d("store_fsyncs") / d("store_appends")
	l["store.appends_per_job"] = d("store_appends") / n
	l["flowlang.compiles_per_job"] = d("flow_compiles") / n
	l["interp.lowerings_per_job"] = d("lowerings") / n
	l["interp.lower_ms"] = counters[interp.CounterCompileNanos] / 1e6 / done
	l["interp.runs"] = counters[telemetry.CounterInterpRuns] / done
	l["core.runcache_misses"] = d("runcache_misses") / n
	l["core.runcache_hit_pct"] = pct(d("runcache_hits"), d("runcache_hits")+d("runcache_misses"))
	l["core.cross_flow_hits"] = (refMisses - d("runcache_misses")) / n
	l["core.designs_forked"] = counters[telemetry.CounterDesignsForked] / done
	l["hls.partial_compiles"] = counters[telemetry.CounterHLSPartialCompiles] / done
	for _, k := range taskMetrics {
		l[k] = taskMS[k] / done
	}
	if wl.Nodes > 1 {
		l["cluster.forwarded_pct"] = pct(d("forwarded"), n)
		l["cluster.proxied_per_job"] = d("proxied") / n
		l["cluster.peer_hit_pct"] = pct(d("peer_hits"), d("runcache_hits")+d("runcache_misses"))
		l["cluster.local_fallbacks"] = d("fallbacks")
	}
	l["gen.late_ms_p95"] = quantile(late, 0.95)
	l["gen.conns"] = float64(g.maxLive.Load())
	// Each spec has as many traced as untraced jobs, so the ratio of
	// geometric means compares like with like.
	l["trace_overhead_pct"] = 100 * (geomean(tracedLat)/geomean(plainLat) - 1)
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Service struct {
		RunCacheHits int64 `json:"runcache_hits"`
		RunCacheMiss int64 `json:"runcache_misses"`
		BatchGroups  int64 `json:"batch_groups"`
		BatchJobs    int64 `json:"batch_jobs"`
		Store        *struct {
			Appends int64 `json:"appends"`
			Fsyncs  int64 `json:"fsyncs"`
		} `json:"store"`
		Cluster *struct {
			PeerHits       int64 `json:"runcache_peer_hits"`
			Forwarded      int64 `json:"jobs_forwarded"`
			Proxied        int64 `json:"requests_proxied"`
			LocalFallbacks int64 `json:"forward_local_fallbacks"`
		} `json:"cluster"`
	} `json:"service"`
	Telemetry struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"telemetry"`
}

// scrape sums the /metrics counters the benchmark uses over all nodes.
// It runs between phases, with the generator's idle connections closed
// first and keep-alives off, so the connection cap still holds.
func (g *generator) scrape(ds []*daemon) (map[string]float64, error) {
	g.close()
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DialContext: g.dial, DisableKeepAlives: true}}
	out := map[string]float64{}
	for _, d := range ds {
		resp, err := hc.Get(d.url() + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.id, err)
		}
		var m metricsDoc
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.id, err)
		}
		s := m.Service
		out["runcache_hits"] += float64(s.RunCacheHits)
		out["runcache_misses"] += float64(s.RunCacheMiss)
		out["batch_groups"] += float64(s.BatchGroups)
		out["batch_jobs"] += float64(s.BatchJobs)
		if s.Store != nil {
			out["store_appends"] += float64(s.Store.Appends)
			out["store_fsyncs"] += float64(s.Store.Fsyncs)
		}
		if c := s.Cluster; c != nil {
			out["peer_hits"] += float64(c.PeerHits)
			out["forwarded"] += float64(c.Forwarded)
			out["proxied"] += float64(c.Proxied)
			out["fallbacks"] += float64(c.LocalFallbacks)
		}
		out["lowerings"] += float64(m.Telemetry.Counters[interp.CounterBCLowerings])
		out["flow_compiles"] += float64(m.Telemetry.Counters[telemetry.CounterFlowCompiles])
	}
	return out, nil
}

// traceExtra is what the traced pass stores beside the spans: each
// traced job's identity, timings and telemetry aggregates, and the
// /metrics deltas of both phases.
func (jb *jobsBench) traceExtra(all []*jobRun, m0, m1 map[string]float64) any {
	type jobRec struct {
		Group       int              `json:"group"`
		ID          string           `json:"id"`
		Spec        string           `json:"spec"`
		Flow        string           `json:"flow,omitempty"`
		Failed      string           `json:"failed,omitempty"`
		QueueWaitMS float64          `json:"queue_wait_ms"`
		RunMS       float64          `json:"run_ms"`
		Stats       []telemetry.Stat `json:"stats,omitempty"`
		Counters    map[string]int64 `json:"counters,omitempty"`
	}
	var jobs []jobRec
	for _, j := range all {
		if !j.traced {
			continue
		}
		rec := jobRec{Group: j.group, ID: j.id, Spec: j.spec.String(), Flow: j.flow, Failed: j.failed}
		if j.res != nil {
			rec.QueueWaitMS, rec.RunMS = j.res.QueueWaitMS, j.res.RunMS
			rec.Stats, rec.Counters = j.res.Telemetry.Stats, j.res.Telemetry.Counters
		}
		jobs = append(jobs, rec)
	}
	delta := map[string]float64{}
	for k, v := range m1 {
		delta[k] = v - m0[k]
	}
	return map[string]any{"jobs": jobs, "metrics_delta": delta}
}
