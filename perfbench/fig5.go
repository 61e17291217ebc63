package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/interp"
	"psaflow/internal/tasks"
	"psaflow/internal/telemetry"
)

// taskClasses maps every task of the built-in PSA-flow (both modes) to
// the per-layer metric its busy time is reported under: DSE tasks under
// tasks.dse_ms, the other dynamic tasks (the analyses that execute the
// program) under tasks.dynamic_ms, and the rest by their Fig. 4 class.
func taskClasses() map[string]string {
	out := map[string]string{}
	var walk func(f *core.Flow)
	walk = func(f *core.Flow) {
		for _, n := range f.Nodes {
			switch n := n.(type) {
			case core.Step:
				out[n.Task.Name()] = taskClass(n.Task)
			case core.Branch:
				for _, p := range n.Paths {
					walk(p.Flow)
				}
			}
		}
	}
	for _, m := range fig5Modes {
		walk(tasks.BuildPSAFlowWithOptions(flowOptions(m)))
	}
	return out
}

var taskMetrics = []string{"tasks.analysis_ms", "tasks.transform_ms", "tasks.codegen_ms", "tasks.dse_ms", "tasks.dynamic_ms"}

func taskClass(t core.Task) string {
	switch {
	case t.Kind() == core.Optimisation:
		return "tasks.dse_ms"
	case t.Dynamic():
		return "tasks.dynamic_ms"
	case t.Kind() == core.Analysis:
		return "tasks.analysis_ms"
	case t.Kind() == core.Transform:
		return "tasks.transform_ms"
	default:
		return "tasks.codegen_ms"
	}
}

// addTaskTime adds a flow report's task busy time into acc by class.
// Task spans of parallel branch paths overlap, so this is busy time, not
// wall time.
func addTaskTime(acc map[string]float64, classes map[string]string, rep *telemetry.Report) {
	if rep == nil {
		return
	}
	for _, st := range rep.Stats {
		if st.Kind == telemetry.KindTask {
			if c, ok := classes[st.Name]; ok {
				acc[c] += st.Millis
			}
		}
	}
}

// flowSample is one timed flow of a sweep.
type flowSample struct {
	spec spec
	ms   float64
}

// sweepStats is what one sweep measured; the per-layer fields are filled
// on traced sweeps (and the allocation fields on untraced sweeps of a
// traced run).
type sweepStats struct {
	seconds float64
	flows   []flowSample

	parseMS, runMS     float64
	lowerNS, runs, ops int64
	hits, misses       int64
	forked, partials   int64
	crossHits          int64
	taskMS             map[string]float64
	mallocs, allocB    uint64
}

// fig5Bench runs the fig5-cold workload.
type fig5Bench struct {
	r       *runner
	ref     *reference
	classes map[string]string
	order   *rand.Rand
	tr      *tracer
}

func runFig5(r *runner) error {
	fb := &fig5Bench{r: r, order: rand.New(rand.NewSource(r.seed))}
	if r.trace {
		fb.tr = newTracer()
	}
	// Set-up: build the fixtures and run the isolated reference pass that
	// every sweep is checked against. It runs each flow once on an empty
	// cache, so it also warms the Go runtime (heap size, page faults) the
	// way a first sweep would. Repeated, and reported as the median.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		fb.classes = taskClasses()
		ref, bad, err := buildReference(r.exp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.attempted += 10
		if len(bad) > 0 {
			r.failed += 10
			r.problem(bad...)
		}
		fb.ref = ref
	}
	r.e2e["setup_s"] = median(setups)

	var plain, traced []*sweepStats
	deadline := time.Now().Add(r.seconds)
	for i := 0; ; i++ {
		tracedSweep := r.trace && i%2 == 1
		st, err := fb.sweep(i+1, tracedSweep, r.trace && !tracedSweep)
		if err != nil {
			return err
		}
		if tracedSweep {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
		if time.Now().After(deadline) && len(plain) >= 3 && (!r.trace || len(traced) >= 3) {
			break
		}
	}
	fb.report(plain, traced)
	if fb.tr != nil {
		return r.writeTrace(fb.tr, nil)
	}
	return nil
}

// sweep runs all ten flows once with a fresh run cache and program cache,
// benchmarks in a seeded order, each uninformed flow before its informed
// flow (they share the run cache, as in experiments.RunFig5Env).
func (fb *fig5Bench) sweep(id int, traced, allocs bool) (*sweepStats, error) {
	st := &sweepStats{taskMS: map[string]float64{}}
	var tr *tracer
	var bracket *runBracket
	sweepSpan := 0
	if traced {
		tr = fb.tr
		sweepSpan = tr.newID()
		bracket = newRunBracket(tr, id)
	}
	var ms0, ms1 runtime.MemStats
	var rows []experiments.Fig5Row

	start := time.Now()
	benches := bench.All()
	fb.order.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	runs := core.NewRunCache()
	if bracket != nil {
		runs.SetPeer(bracket)
	}
	env := experiments.JobEnv{Progs: interp.NewProgramCache()}
	for _, b := range benches {
		var res [2][]experiments.DesignResult
		for i, m := range fig5Modes {
			s := spec{b.Name, m}
			var rec *telemetry.Recorder
			flowSpan := 0
			if traced {
				rec = telemetry.New()
				flowSpan = tr.newID()
				bracket.setParent(flowSpan)
			}
			if allocs {
				runtime.ReadMemStats(&ms0)
			}
			_, miss0 := runs.Stats()
			t0 := time.Now()
			prog := b.Parse()
			t1 := time.Now()
			out, err := experiments.RunBenchmarkEnv(context.Background(), b, prog, flowOptions(m), env, nil, rec, runs)
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("sweep %d: %s: %w", id, s, err)
			}
			if allocs {
				runtime.ReadMemStats(&ms1)
				st.mallocs += ms1.Mallocs - ms0.Mallocs
				st.allocB += ms1.TotalAlloc - ms0.TotalAlloc
			}
			st.flows = append(st.flows, flowSample{s, ms(t2.Sub(t0))})
			hits, miss1 := runs.Stats()
			st.crossHits += fb.ref.misses[s] - (miss1 - miss0)
			if traced {
				tr.record(tr.newID(), flowSpan, id, "minic.Parse", s.String(), t0, t1)
				tr.record(flowSpan, sweepSpan, id, "flow", s.String(), t0, t2)
				st.parseMS += ms(t1.Sub(t0))
				rep := rec.Snapshot()
				addTaskTime(st.taskMS, fb.classes, rep)
				st.lowerNS += rep.Counters[interp.CounterCompileNanos]
				st.runs += rep.Counters[telemetry.CounterInterpRuns]
				st.ops += rep.Counters[telemetry.CounterInterpOps]
				st.forked += rep.Counters[telemetry.CounterDesignsForked]
				st.partials += rep.Counters[telemetry.CounterHLSPartialCompiles]
				st.hits, st.misses = hits, miss1
			}
			designs, auto := summarize(out)
			if bad := fb.ref.checkDesigns(s, designs, auto, 0); len(bad) > 0 {
				fb.r.failed++
				fb.r.problem(bad...)
			}
			res[i] = out
		}
		rows = append(rows, fig5Row(b.Name, res[0], res[1]))
	}
	end := time.Now()
	st.seconds = end.Sub(start).Seconds()
	if traced {
		st.runMS = ms(bracket.takeBusy())
		tr.record(sweepSpan, 0, id, "sweep", "", start, end)
	}

	fb.r.attempted += len(st.flows)
	for _, row := range rows {
		bad := fb.r.exp.checkRow(row)
		if got := rowBytes(row); got != fb.ref.rows[row.Benchmark] {
			bad = append(bad, fmt.Sprintf("sweep %d: %s row %s differs from the reference row %s", id, row.Benchmark, got, fb.ref.rows[row.Benchmark]))
		}
		if len(bad) > 0 {
			fb.r.failed += 2
			fb.r.problem(bad...)
		}
	}
	fb.r.problem(fb.r.exp.checkWinners(rows)...)
	return st, nil
}

func (fb *fig5Bench) report(plain, traced []*sweepStats) {
	r := fb.r
	var sweepS, all []float64
	perSpec := map[spec][]float64{}
	for _, st := range plain {
		sweepS = append(sweepS, st.seconds)
		for _, f := range st.flows {
			all = append(all, f.ms)
			perSpec[f.spec] = append(perSpec[f.spec], f.ms)
		}
	}
	var specMedians []float64
	for _, s := range allSpecs() {
		specMedians = append(specMedians, median(perSpec[s]))
	}
	r.e2e["flow_ms_geomean"] = geomean(specMedians)
	// Flows run one after another, so nothing queues: the spread of flow
	// times is the spread between the ten pairs. Percentiles over the
	// pairs' medians keep that spread without the jumps that percentiles
	// over all samples make where they fall between two pairs.
	r.e2e["result_ms_p50"] = median(specMedians)
	r.e2e["result_ms_p95"] = quantile(specMedians, 0.95)
	r.e2e["flows_per_s"] = 10 / median(sweepS)
	r.e2e["peak_rss_mb"] = selfPeakRSSMB()
	r.info("sweep_s", median(sweepS), "s", fmt.Sprintf("median of %d untraced sweeps", len(sweepS)))
	r.info("flows", float64(len(all)), "count", "untraced flows timed")
	if !r.trace {
		return
	}

	var tracedS []float64
	var n float64 // traced flows
	var t sweepStats
	t.taskMS = map[string]float64{}
	for _, st := range traced {
		tracedS = append(tracedS, st.seconds)
		n += float64(len(st.flows))
		t.parseMS += st.parseMS
		t.runMS += st.runMS
		t.lowerNS += st.lowerNS
		t.runs += st.runs
		t.ops += st.ops
		t.hits += st.hits
		t.misses += st.misses
		t.forked += st.forked
		t.partials += st.partials
		t.crossHits += st.crossHits
		for k, v := range st.taskMS {
			t.taskMS[k] += v
		}
	}
	var mallocs, allocB, plainFlows float64
	for _, st := range plain {
		mallocs += float64(st.mallocs)
		allocB += float64(st.allocB)
		plainFlows += float64(len(st.flows))
	}
	l := r.layer
	l["minic.parse_ms"] = t.parseMS / n
	l["interp.run_ms"] = t.runMS / n
	l["interp.lower_ms"] = float64(t.lowerNS) / 1e6 / n
	l["interp.runs"] = float64(t.runs) / n
	l["interp.mops_per_s"] = float64(t.ops) / t.runMS / 1e3
	l["core.runcache_misses"] = float64(t.misses) / n
	l["core.runcache_hit_pct"] = pct(float64(t.hits), float64(t.hits+t.misses))
	l["core.cross_flow_hits"] = float64(t.crossHits) / n
	l["core.allocs_per_flow"] = mallocs / plainFlows
	l["core.alloc_mb_per_flow"] = allocB / plainFlows / (1 << 20)
	l["core.designs_forked"] = float64(t.forked) / n
	l["hls.partial_compiles"] = float64(t.partials) / n
	for _, k := range taskMetrics {
		l[k] = t.taskMS[k] / n
	}
	l["trace_overhead_pct"] = 100 * (median(tracedS)/median(sweepS) - 1)
}
