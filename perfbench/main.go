// Command perfbench is the repository benchmark. It measures the Fig. 5
// PSA-flow sweep in-process (fig5-cold) and psaflowd job traffic over
// HTTP (jobs-repeat, jobs-unique, jobs-cluster), checks every output
// against expected.json and an in-process reference run, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the root of a checkout through run.sh, which builds this
// command and cmd/psaflowd into .bench_build first:
//
//	bash perfbench/run.sh --workload fig5-cold --seed 1 --seconds 22 --trace 0
//
// --trace 0 is the untraced pass and reports the end-to-end metrics of
// BENCHMARK.json; --trace 1 adds the benchmark's own spans and reports the
// per-layer metrics, writing the spans to .bench_build/traces.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// workload is one entry of workloads.json; its reason ("why") is read
// from BENCHMARK.json.
type workload struct {
	Kind string `json:"kind"` // "fig5" (in-process) or "jobs" (psaflowd over HTTP)

	// The fields below apply to jobs workloads.
	Nodes       int      `json:"nodes"`
	DaemonFlags []string `json:"daemon_flags"`
	// SubmitNodes is how many of the nodes the generator talks to; the
	// ring forwards the rest of the work.
	SubmitNodes int `json:"submit_nodes"`
	// Salted appends a never-called helper unique to the job to the
	// bundled source, so every program fingerprint is new.
	Salted bool `json:"salted"`
	// SpecCopies is how many times each of the ten specs appears in a
	// block of the job draw; with two, identical jobs can meet in the
	// queue, where psaflowd batches them.
	SpecCopies int `json:"spec_copies_per_block"`
	// PaperFlowPerBlock is how many jobs of each block run the registered
	// paper flow instead of the built-in graph.
	PaperFlowPerBlock int     `json:"paper_flow_per_block"`
	OpenRate          float64 `json:"open_rate_per_s"`
	// OpenShare is the share of --seconds the open-loop phase lasts.
	OpenShare   float64 `json:"open_share"`
	Outstanding int     `json:"saturation_outstanding"`
	// SaturationSizing sizes the closed-loop phase's fixed job count so
	// it lasts about the rest of --seconds at this throughput.
	SaturationSizing float64 `json:"saturation_sizing_jobs_per_s"`
	PollMS           int     `json:"poll_ms"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runner holds one run's settings and everything it measured.
type runner struct {
	name    string
	why     string
	wl      workload
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // checkout root
	bin     string // directory holding the psaflowd binary
	exp     *expectation

	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	infos             []string
	env               map[string]any
}

func (r *runner) problem(msgs ...string) {
	for _, m := range msgs {
		if len(r.problems) < 20 {
			r.problems = append(r.problems, m)
		}
	}
}

// info adds a line to the human-readable report that is not a
// BENCHMARK.json metric.
func (r *runner) info(name string, v float64, unit, note string) {
	r.infos = append(r.infos, fmt.Sprintf("  %-30s %14.4f %-6s %s", name, v, unit, note))
}

func (r *runner) outPath(dir, ext string) string {
	return filepath.Join(r.root, ".bench_build", dir, fmt.Sprintf("%s-seed%d-trace%d.%s", r.name, r.seed, b2i(r.trace), ext))
}

func (r *runner) writeTrace(tr *tracer, extra any) error {
	header := map[string]any{"workload": r.name, "seed": r.seed, "env": r.env}
	return tr.write(r.outPath("traces", "json"), header, extra)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "workload seed: orders, draws and salts")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	root := flag.String("root", ".", "root of the psaflow checkout")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the psaflowd binary")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(*root, "perfbench")
	var wls map[string]workload
	if err := readJSON(filepath.Join(dir, "workloads.json"), &wls, true); err != nil {
		return err
	}
	wl, ok := wls[*name]
	if !ok {
		var names []string
		for n := range wls {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	var bf benchmarkFile
	if err := readJSON(filepath.Join(*root, "BENCHMARK.json"), &bf, false); err != nil {
		return err
	}
	why := ""
	for _, w := range bf.Workloads {
		if w.Name == *name {
			why = w.Why
		}
	}
	if why == "" {
		return fmt.Errorf("workload %s is not in BENCHMARK.json", *name)
	}
	exp, err := loadExpectation(dir)
	if err != nil {
		return err
	}
	r := &runner{
		name: *name, why: why, wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, bin: *bin, exp: exp,
		e2e: map[string]float64{}, layer: map[string]float64{},
		env: envStamp(*root),
	}
	steal0, total0, statOK := cpuTimes()
	switch wl.Kind {
	case "fig5":
		err = runFig5(r)
	case "jobs":
		err = runJobs(r)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", *name, wl.Kind)
	}
	if err != nil {
		return err
	}
	if steal1, total1, ok := cpuTimes(); statOK && ok && total1 > total0 {
		r.info("host.steal_pct", 100*float64(steal1-steal0)/float64(total1-total0), "%",
			"CPU time the hypervisor gave other guests during the run; a high value means the host set the timings")
	}
	return r.print(bf)
}

// print writes the human-readable report and, as the last line, the
// result object. Per-layer metrics that do not apply to the workload, or
// had no samples in this run, read N/A in the report and 0 in the result
// object.
func (r *runner) print(bf benchmarkFile) error {
	out := bufio.NewWriter(os.Stdout)
	envJSON, _ := json.Marshal(r.env) // plain strings and numbers
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%d\n", r.name, r.seed, int(r.seconds/time.Second), b2i(r.trace))
	fmt.Fprintf(out, "env %s\n", envJSON)
	fmt.Fprintf(out, "why: %s\n", r.why)

	metrics := map[string]any{}
	line := func(m metricDef, v float64, ok bool) {
		if ok {
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.Name, v, m.Unit)
		} else {
			fmt.Fprintf(out, "  %-30s %14s %s\n", m.Name, "N/A", m.Unit)
		}
	}
	fmt.Fprintln(out, "end to end (untraced pass):")
	for _, m := range bf.EndToEnd {
		v, ok := r.e2e[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("end-to-end metric %s was not measured (value %v)", m.Name, v)
		}
		line(m, v, true)
		if !r.trace {
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	if r.trace {
		fmt.Fprintln(out, "per layer (traced pass):")
		for _, m := range bf.PerLayer {
			v, ok := r.layer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) { // no samples in this run
				v, ok = 0, false
			}
			line(m, v, ok)
			metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	if len(r.infos) > 0 {
		fmt.Fprintln(out, "other:")
		for _, s := range r.infos {
			fmt.Fprintln(out, s)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "WRONG OUTPUT: %s\n", p)
	}
	res := map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(r.outPath("results", "json")), 0o755); err != nil {
		return err
	}
	rec, _ := json.Marshal(map[string]any{"workload": r.name, "seed": r.seed, "env": r.env, "result": json.RawMessage(raw)})
	if err := os.WriteFile(r.outPath("results", "json"), rec, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out, string(raw))
	return out.Flush()
}

// readJSON decodes a JSON file; strict rejects fields v does not have.
func readJSON(path string, v any, strict bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// envStamp records what the numbers depend on, so a result is compared
// only with results from the same machine and toolchain.
func envStamp(root string) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": sourceDigest(root),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout without .git
// reports "none" and the source digest identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if h, name, ok := strings.Cut(l, " "); ok && name == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and flow documents of
// the checkout (paths and contents, in path order).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".psa":
		default:
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads VmHWM (peak resident set) from a /proc status file.
func peakRSSMB(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q: %w", statusPath, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New(statusPath + ": no VmHWM")
}

// cpuTimes reads the steal and total ticks of all CPUs from /proc/stat.
func cpuTimes() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func selfPeakRSSMB() float64 {
	v, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	return v
}
