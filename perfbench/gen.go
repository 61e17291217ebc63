package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"psaflow/internal/service"
	"psaflow/internal/telemetry"
)

// jobRun is one generated job and everything the client saw of it.
type jobRun struct {
	idx    int // position in the run's job sequence
	spec   spec
	source string // "" = the bundled source
	flow   string // "" = the built-in flow graph
	salted bool
	worker int
	traced bool
	group  int // trace group (the job's span tree)

	due, sent, done time.Time
	id              string
	failed          string // why the job failed; "" = it finished and was checked
	res             *jobResult
	submitMS        float64
	statusMS        []float64
	resultMS        float64
}

// jobResult is the part of GET /v1/jobs/{id}/result the benchmark reads;
// the span tree of the job's telemetry is skipped.
type jobResult struct {
	service.JobStatus
	AutoTarget   string                  `json:"auto_target"`
	Designs      []service.DesignSummary `json:"designs"`
	FailureClass string                  `json:"failure_class"`
	Telemetry    struct {
		Stats    []telemetry.Stat `json:"stats"`
		Counters map[string]int64 `json:"counters"`
	} `json:"telemetry"`
}

const (
	opSubmit = iota
	opPoll
	opFetch
)

type op struct {
	due  time.Time
	kind int
	job  *jobRun
}

type opHeap []op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// generator is the load generator: one goroutine per worker, at most
// nproc workers, each with its own single-connection HTTP transport, so
// the process never holds more than nproc connections. Worker k talks to
// one node only; it submits, polls and fetches every job it owns.
type generator struct {
	workers []*genWorker
	poll    time.Duration
	tr      *tracer

	live, maxLive, dials atomic.Int64
	early409             atomic.Int64 // result GETs answered 409 after status read done
}

type genWorker struct {
	g    *generator
	hc   *http.Client
	base string
	rng  *rand.Rand // poll jitter
}

func newGenerator(nworkers int, bases []string, poll time.Duration, seed int64, tr *tracer) *generator {
	g := &generator{poll: poll, tr: tr}
	for k := 0; k < nworkers; k++ {
		tp := &http.Transport{
			DialContext:         g.dial,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}
		g.workers = append(g.workers, &genWorker{
			g:    g,
			hc:   &http.Client{Transport: tp, Timeout: 30 * time.Second},
			base: bases[k%len(bases)],
			rng:  rand.New(rand.NewSource(seed + int64(k))),
		})
	}
	return g
}

// countedConn tracks live connections for the generator's self-check.
type countedConn struct {
	net.Conn
	g    *generator
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.g.live.Add(-1) })
	return c.Conn.Close()
}

func (g *generator) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	g.dials.Add(1)
	n := g.live.Add(1)
	for {
		m := g.maxLive.Load()
		if n <= m || g.maxLive.CompareAndSwap(m, n) {
			break
		}
	}
	return &countedConn{Conn: c, g: g}, nil
}

func (g *generator) close() {
	for _, w := range g.workers {
		w.hc.CloseIdleConnections()
	}
}

// call makes one request and reads the whole body.
func (w *genWorker) call(method, path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(start), err
}

// phaseCfg describes one phase: open loop (jobs due at a fixed rate,
// whatever the daemon does) or closed loop (a fixed number of jobs
// outstanding; a completion releases the next submission).
type phaseCfg struct {
	open        bool
	rate        float64
	outstanding int
	limit       time.Time // give up on jobs still unfinished then
}

// run drives the jobs to completion and returns once every worker has
// finished. In the open loop, job i is due i/rate seconds after the start
// and belongs to worker jobs[i].worker. In the closed loop, whichever
// worker sees a job finish takes the next job of the phase, so the
// outstanding count holds until the phase's jobs run out.
func (g *generator) run(jobs []*jobRun, pc phaseCfg) {
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	take := func(worker int, now time.Time) *jobRun {
		i := int(next.Add(1) - 1)
		if pc.open || i >= len(jobs) {
			return nil
		}
		j := jobs[i]
		j.worker, j.due = worker, now
		return j
	}
	own := make([][]*jobRun, len(g.workers))
	for i, j := range jobs {
		if pc.open {
			j.due = start.Add(time.Duration(float64(i) / pc.rate * float64(time.Second)))
			own[j.worker] = append(own[j.worker], j)
		}
	}
	var wg sync.WaitGroup
	for k, w := range g.workers {
		slots := pc.outstanding / len(g.workers)
		if k < pc.outstanding%len(g.workers) {
			slots++
		}
		wg.Add(1)
		go func(k int, w *genWorker, slots int) {
			defer wg.Done()
			w.drive(own[k], pc, slots, start, func(now time.Time) *jobRun { return take(k, now) })
		}(k, w, slots)
	}
	wg.Wait()
	for i := int(next.Load()); !pc.open && i < len(jobs); i++ {
		jobs[i].failed = "not submitted before the phase time limit"
		jobs[i].due, jobs[i].done = pc.limit, pc.limit
	}
}

// drive runs one worker's event loop: its own open-loop jobs, plus, in
// the closed loop, slots jobs taken from the phase at a time.
func (w *genWorker) drive(own []*jobRun, pc phaseCfg, slots int, start time.Time, take func(time.Time) *jobRun) {
	h := &opHeap{}
	release := func(now time.Time) {
		if j := take(now); j != nil {
			heap.Push(h, op{now, opSubmit, j})
		}
	}
	for _, j := range own {
		heap.Push(h, op{j.due, opSubmit, j})
	}
	for i := 0; i < slots; i++ {
		release(start)
	}
	for h.Len() > 0 {
		o := heap.Pop(h).(op)
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		j := o.job
		if time.Now().After(pc.limit) {
			j.failed = "unfinished when the phase time limit passed"
			j.done = pc.limit
			continue
		}
		finished := false
		switch o.kind {
		case opSubmit:
			if w.submit(j) {
				heap.Push(h, op{time.Now().Add(w.pollDelay()), opPoll, j})
			} else {
				finished = true
			}
		case opPoll:
			switch st := w.status(j); {
			case st == service.StateDone:
				heap.Push(h, op{time.Now(), opFetch, j})
			case st.Terminal() || j.failed != "":
				if j.failed == "" {
					j.failed = "job ended " + string(st)
				}
				finished = true
			default:
				heap.Push(h, op{time.Now().Add(w.pollDelay()), opPoll, j})
			}
		case opFetch:
			if w.fetch(j) {
				finished = true
			} else {
				heap.Push(h, op{time.Now().Add(w.pollDelay()), opPoll, j})
			}
		}
		if finished {
			if j.done.IsZero() {
				j.done = time.Now()
			}
			if j.traced {
				w.g.tr.record(j.group, 0, j.group, "job", j.spec.String(), j.due, j.done)
			}
			release(time.Now())
		}
	}
}

// pollDelay is the wait before the next status poll: the poll interval
// with ±50% seeded jitter. Fixed intervals would round every latency up
// to a whole number of polls, and a median could then jump between two
// such steps from run to run.
func (w *genWorker) pollDelay() time.Duration {
	return time.Duration((0.5 + w.rng.Float64()) * float64(w.g.poll))
}

type submitBody struct {
	Bench  string `json:"bench"`
	Mode   string `json:"mode"`
	Source string `json:"source,omitempty"`
	Flow   string `json:"flow,omitempty"`
}

func (w *genWorker) submit(j *jobRun) bool {
	body, err := json.Marshal(submitBody{j.spec.bench, j.spec.modeName(), j.source, j.flow})
	if err != nil {
		j.failed = err.Error()
		return false
	}
	j.sent = time.Now()
	code, raw, d, err := w.call(http.MethodPost, "/v1/jobs", body)
	j.submitMS = ms(d)
	w.span(j, "POST /v1/jobs", j.sent, d)
	if err != nil || code != http.StatusAccepted {
		j.failed = fmt.Sprintf("submit: status %d: %v %s", code, err, bytes.TrimSpace(raw))
		return false
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		j.failed = fmt.Sprintf("submit: bad response %q: %v", raw, err)
		return false
	}
	j.id = st.ID
	return true
}

func (w *genWorker) status(j *jobRun) service.JobState {
	start := time.Now()
	code, raw, d, err := w.call(http.MethodGet, "/v1/jobs/"+j.id, nil)
	j.statusMS = append(j.statusMS, ms(d))
	w.span(j, "GET /v1/jobs/{id}", start, d)
	if err != nil || code != http.StatusOK {
		j.failed = fmt.Sprintf("status: %d: %v", code, err)
		return ""
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		j.failed = fmt.Sprintf("status: %v", err)
		return ""
	}
	return st.State
}

// fetch gets the job's result. It returns false when the daemon answered
// 409 (not finished) although the status already read done: psaflowd
// publishes the terminal state a moment before it attaches the result.
// The generator then polls again, as the API tells clients to, and counts
// the occurrence.
func (w *genWorker) fetch(j *jobRun) bool {
	start := time.Now()
	code, raw, d, err := w.call(http.MethodGet, "/v1/jobs/"+j.id+"/result", nil)
	j.done = time.Now() // the client now holds the result body
	j.resultMS = ms(d)
	w.span(j, "GET /v1/jobs/{id}/result", start, d)
	if err == nil && code == http.StatusConflict {
		w.g.early409.Add(1)
		j.done = time.Time{}
		return false
	}
	if err != nil || code != http.StatusOK {
		j.failed = fmt.Sprintf("result: %d: %v", code, err)
		return true
	}
	var res jobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		j.failed = fmt.Sprintf("result: %v", err)
		return true
	}
	if res.State != service.StateDone || res.FailureClass != "" {
		j.failed = fmt.Sprintf("result: state %s class %q: %s", res.State, res.FailureClass, res.Error)
		return true
	}
	j.res = &res
	return true
}

func (w *genWorker) span(j *jobRun, name string, start time.Time, d time.Duration) {
	if j.traced {
		w.g.tr.record(w.g.tr.newID(), j.group, j.group, name, j.id, start, start.Add(d))
	}
}

// makespan is a closed-loop phase's length: from its first submission to
// its last result. Every seed pushes the same multiset of jobs, so the
// makespan does not depend on which jobs happen to finish inside a window.
func makespan(jobs []*jobRun) time.Duration {
	first, last := jobs[0].due, jobs[0].done
	for _, j := range jobs {
		if j.due.Before(first) {
			first = j.due
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	return last.Sub(first)
}
