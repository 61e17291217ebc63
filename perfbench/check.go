package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/interp"
	"psaflow/internal/platform"
	"psaflow/internal/service"
	"psaflow/internal/tasks"
)

// expectation is the hand-written expected-output file (expected.json),
// transcribed from EXPERIMENTS.md's Fig. 5 table and bench.*.ExpectTarget.
type expectation struct {
	Benchmarks map[string]struct {
		AutoTarget  string `json:"auto_target"`
		FPGAOvermap bool   `json:"fpga_overmap"`
	} `json:"benchmarks"`
	InformedPicksWinner int     `json:"informed_picks_winner"`
	WinnerTolerance     float64 `json:"winner_tolerance"`
	// SaltHelperLOC is how many lines the never-called salt helper adds
	// to every generated design's loc (jobs-unique).
	SaltHelperLOC int `json:"salt_helper_loc"`
}

func loadExpectation(dir string) (*expectation, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		return nil, err
	}
	var e expectation
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if len(e.Benchmarks) != len(bench.All()) {
		return nil, fmt.Errorf("expected.json: %d benchmarks, want %d", len(e.Benchmarks), len(bench.All()))
	}
	return &e, nil
}

// spec is one (benchmark, mode) pair: Fig. 5 runs each benchmark's
// uninformed and informed flow, so a sweep is ten flows.
type spec struct {
	bench string
	mode  tasks.Mode
}

func (s spec) modeName() string {
	if s.mode == tasks.Uninformed {
		return "uninformed"
	}
	return "informed"
}

func (s spec) String() string { return s.bench + "/" + s.modeName() }

var fig5Modes = []tasks.Mode{tasks.Uninformed, tasks.Informed}

// allSpecs lists the ten specs in the paper's benchmark order.
func allSpecs() []spec {
	var out []spec
	for _, b := range bench.All() {
		for _, m := range fig5Modes {
			out = append(out, spec{b.Name, m})
		}
	}
	return out
}

func flowOptions(m tasks.Mode) tasks.FlowOptions {
	return tasks.FlowOptions{Mode: m, Strategy: tasks.DefaultStrategy}
}

// summarize renders evaluated designs the way psaflowd's job result does
// (service.DesignSummary), and returns the auto-selected target class:
// the target of the best feasible design.
func summarize(results []experiments.DesignResult) ([]service.DesignSummary, string) {
	out := make([]service.DesignSummary, 0, len(results))
	auto, best := "", 0.0
	for _, r := range results {
		d := r.Design
		ds := service.DesignSummary{
			Label:      d.Label(),
			Target:     d.Target.String(),
			Device:     d.Device,
			Infeasible: d.Infeasible,
			NumThreads: d.NumThreads,
			Blocksize:  d.Blocksize,
			Unroll:     d.UnrollFactor,
			Pinned:     d.Pinned,
			ZeroCopy:   d.ZeroCopy,
			RefLOC:     d.RefLOC,
		}
		if !r.Infeasible {
			ds.Speedup = r.Speedup
			ds.KernelS = r.Breakdown.KernelTime
			ds.TransferS = r.Breakdown.TransferTime
			ds.OverheadS = r.Breakdown.Overhead
			ds.Note = r.Breakdown.Note
			if r.Speedup > best {
				best, auto = r.Speedup, d.Target.String()
			}
		}
		if d.Artifact != nil {
			ds.LOC = d.Artifact.LOC
			ds.AddedLOC = d.Artifact.AddedLOC
		}
		for _, ev := range d.Trace {
			ds.Trace = append(ds.Trace, ev.String())
		}
		out = append(out, ds)
	}
	return out, auto
}

// fig5Row builds one benchmark's Fig. 5 row from its two flows, exactly
// as experiments.RunFig5Env does.
func fig5Row(name string, uninformed, informed []experiments.DesignResult) experiments.Fig5Row {
	row := experiments.Fig5Row{Benchmark: name, Designs: uninformed}
	for _, r := range uninformed {
		switch {
		case r.Design.Target == platform.TargetCPU:
			row.OMP = r.Speedup
		case r.Design.Device == platform.GTX1080Ti.Name:
			row.GTX1080 = r.Speedup
		case r.Design.Device == platform.RTX2080Ti.Name:
			row.RTX2080 = r.Speedup
		case r.Design.Device == platform.Arria10.Name:
			row.A10 = r.Speedup
			row.A10Overmap = r.Infeasible
		case r.Design.Device == platform.Stratix10.Name:
			row.S10 = r.Speedup
			row.S10Overmap = r.Infeasible
		}
	}
	for _, r := range informed {
		if !r.Infeasible && r.Speedup > row.Auto {
			row.Auto = r.Speedup
			row.AutoTarget = r.Design.Target.String()
		}
	}
	return row
}

// rowBytes is the canonical serialization of a row's Fig. 5 cells; rows
// must match it byte for byte across sweeps.
func rowBytes(r experiments.Fig5Row) string {
	b, _ := json.Marshal([]any{r.Benchmark, r.AutoTarget, r.Auto, r.OMP, r.GTX1080, r.RTX2080,
		r.A10, r.S10, r.A10Overmap, r.S10Overmap}) // cannot fail: strings, floats and bools
	return string(b)
}

// checkRow compares a row with the expected file; it returns one
// message per mismatch.
func (e *expectation) checkRow(r experiments.Fig5Row) []string {
	want, ok := e.Benchmarks[r.Benchmark]
	if !ok {
		return []string{fmt.Sprintf("%s: not in expected.json", r.Benchmark)}
	}
	var bad []string
	if r.AutoTarget != want.AutoTarget {
		bad = append(bad, fmt.Sprintf("%s: auto target %q, want %q", r.Benchmark, r.AutoTarget, want.AutoTarget))
	}
	if r.A10Overmap != want.FPGAOvermap || r.S10Overmap != want.FPGAOvermap {
		bad = append(bad, fmt.Sprintf("%s: FPGA overmap A10=%v S10=%v, want %v", r.Benchmark, r.A10Overmap, r.S10Overmap, want.FPGAOvermap))
	}
	return bad
}

// checkWinners checks the paper's headline claim over one full sweep.
func (e *expectation) checkWinners(rows []experiments.Fig5Row) []string {
	n := 0
	for _, r := range rows {
		if r.InformedPickedWinner(e.WinnerTolerance) {
			n++
		}
	}
	if n != e.InformedPicksWinner {
		return []string{fmt.Sprintf("informed flow picked the winner on %d/%d benchmarks, want %d", n, len(rows), e.InformedPicksWinner)}
	}
	return nil
}

// reference is one isolated in-process run of every spec, each on an
// empty run cache and program cache: the outputs every sweep and every
// job must reproduce, and the run-cache misses a flow costs when nothing
// is shared.
type reference struct {
	designs map[spec][]service.DesignSummary
	auto    map[spec]string
	misses  map[spec]int64
	rows    map[string]string // rowBytes per benchmark
}

// buildReference runs the reference pass and checks it against the
// expected file. It returns the mismatches it found.
func buildReference(e *expectation) (*reference, []string, error) {
	ref := &reference{
		designs: map[spec][]service.DesignSummary{},
		auto:    map[spec]string{},
		misses:  map[spec]int64{},
		rows:    map[string]string{},
	}
	var bad []string
	var rows []experiments.Fig5Row
	for _, b := range bench.All() {
		var res [2][]experiments.DesignResult
		for i, m := range fig5Modes {
			runs := core.NewRunCache()
			env := experiments.JobEnv{Progs: interp.NewProgramCache()}
			r, err := experiments.RunBenchmarkEnv(context.Background(), b, b.Parse(), flowOptions(m), env, nil, nil, runs)
			if err != nil {
				return nil, nil, fmt.Errorf("reference %s: %w", spec{b.Name, m}, err)
			}
			s := spec{b.Name, m}
			ref.designs[s], ref.auto[s] = summarize(r)
			_, ref.misses[s] = runs.Stats()
			res[i] = r
			if want := e.Benchmarks[b.Name].AutoTarget; m == tasks.Informed && ref.auto[s] != want {
				bad = append(bad, fmt.Sprintf("reference %s: auto target %q, want %q", s, ref.auto[s], want))
			}
		}
		row := fig5Row(b.Name, res[0], res[1])
		bad = append(bad, e.checkRow(row)...)
		ref.rows[b.Name] = rowBytes(row)
		rows = append(rows, row)
	}
	bad = append(bad, e.checkWinners(rows)...)
	return ref, bad, nil
}

// checkDesigns compares one flow's designs with the reference for its
// spec. A salted program carries a never-called helper, so every design's
// line counts (loc, ref_loc and the "N LOC" of its render note) must
// exceed the reference by exactly saltLOC lines; nothing else may differ.
func (ref *reference) checkDesigns(s spec, got []service.DesignSummary, auto string, saltLOC int) []string {
	if auto != ref.auto[s] {
		return []string{fmt.Sprintf("%s: auto target %q, reference %q", s, auto, ref.auto[s])}
	}
	want := ref.designs[s]
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s: %d designs, reference %d", s, len(got), len(want))}
	}
	for i := range got {
		g := got[i]
		if saltLOC != 0 {
			wantLOC := want[i].LOC
			if wantLOC != 0 { // designs that were never rendered (overmaps) have no loc
				wantLOC += saltLOC
			}
			if g.LOC != wantLOC || g.RefLOC != want[i].RefLOC+saltLOC {
				return []string{fmt.Sprintf("%s: design %s loc %d ref_loc %d, want %d and %d",
					s, g.Label, g.LOC, g.RefLOC, wantLOC, want[i].RefLOC+saltLOC)}
			}
			g.LOC, g.RefLOC = want[i].LOC, want[i].RefLOC
			g.Trace = append([]string(nil), g.Trace...)
			for k, line := range g.Trace {
				g.Trace[k] = locNote.ReplaceAllStringFunc(line, func(m string) string {
					n, _ := strconv.Atoi(strings.TrimSuffix(m, " LOC")) // the pattern matched digits
					return fmt.Sprintf("%d LOC", n-saltLOC)
				})
			}
		}
		if !reflect.DeepEqual(g, want[i]) {
			return []string{fmt.Sprintf("%s: design %s differs from the reference in %s", s, g.Label, diffFields(g, want[i]))}
		}
	}
	return nil
}

// locNote matches the line count in a design's render trace note.
var locNote = regexp.MustCompile(`\b\d+ LOC`)

// diffFields names the fields in which two design summaries differ.
func diffFields(a, b service.DesignSummary) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s (%v vs %v)", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return strings.Join(out, ", ")
}
