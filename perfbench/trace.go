package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"psaflow/internal/core"
	"psaflow/internal/interp"
)

// span is one timed step the benchmark observed from outside the program.
// Spans of one sweep (fig5-cold) or one job (jobs-*) share a group.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0 = root
	Group   int     `json:"group"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, so untraced passes call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(id, parent, group int, name, detail string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Group: group, Name: name, Detail: detail,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
	t.mu.Unlock()
}

// write saves the spans and any extra per-workload records as JSON.
func (t *tracer) write(path string, header map[string]any, extra any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"run": header, "spans": t.spans, "extra": extra}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runBracket is a core.RunPeer that never answers: FetchRun stamps the
// start of a local miss and FillRun its end, so together they bracket
// every interp.Run the run cache executes. It sees only successful runs,
// which is every run on the bundled benchmarks.
type runBracket struct {
	tr     *tracer
	mu     sync.Mutex
	parent int // span of the flow currently running
	group  int
	open   map[core.RunKey]time.Time
	busy   time.Duration
}

func newRunBracket(tr *tracer, group int) *runBracket {
	return &runBracket{tr: tr, group: group, open: map[core.RunKey]time.Time{}}
}

func (b *runBracket) setParent(id int) {
	b.mu.Lock()
	b.parent = id
	b.mu.Unlock()
}

// FetchRun implements core.RunPeer.
func (b *runBracket) FetchRun(key core.RunKey) (*interp.Result, bool) {
	now := time.Now()
	b.mu.Lock()
	b.open[key] = now
	b.mu.Unlock()
	return nil, false
}

// FillRun implements core.RunPeer.
func (b *runBracket) FillRun(key core.RunKey, _ *interp.Result) {
	end := time.Now()
	b.mu.Lock()
	start, ok := b.open[key]
	delete(b.open, key)
	parent := b.parent
	if ok {
		b.busy += end.Sub(start)
	}
	b.mu.Unlock()
	if ok {
		b.tr.record(b.tr.newID(), parent, b.group, "interp.Run", key.Workload+"/"+key.Entry, start, end)
	}
}

// takeBusy returns the bracketed run time since the last call.
func (b *runBracket) takeBusy() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.busy
	b.busy = 0
	return d
}
