package interp

import (
	"testing"

	"psaflow/internal/minic"
)

// fallbackSrc is a small kernel application covering the profiled
// surface a flow reads: nested and while loops with break, a watched
// callee, float and int buffers, special builtins, and printf output.
const fallbackSrc = `
double dot(int n, const double *a, const double *b) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i] * b[i];
    }
    return s;
}
double kernel(int n, double *a, const double *b, int *hist) {
    double acc = 0.0;
    for (int r = 0; r < 3; r++) {
        for (int i = 0; i < n; i++) {
            a[i] = sqrt(a[i] * a[i] + b[i]) + exp(-b[i]);
            hist[i % 4] += 1;
        }
        acc += dot(n, a, b);
        int k = 0;
        while (k < n) {
            if (a[k] > 2.0) {
                break;
            }
            k++;
        }
        acc += k;
    }
    printf("acc=%f\n", acc);
    return acc;
}
`

func fallbackArgs() []Value {
	const n = 8
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i) * 0.25
		b[i] = float64(n-i) * 0.125
	}
	return []Value{
		IntVal(n),
		BufVal(NewFloatBuffer("a", minic.Double, a)),
		BufVal(NewFloatBuffer("b", minic.Double, b)),
		BufVal(NewIntBuffer("hist", make([]int64, 4))),
	}
}

// TestLoweringFailureFallsBackToTreeWalk seeds a program cache with a
// latched lowering failure for the program's fingerprint, so Run takes
// the defensive fallback: it must complete on the tree-walker, count one
// fallback, and produce exactly what a plain TreeWalk run produces.
func TestLoweringFailureFallsBackToTreeWalk(t *testing.T) {
	prog := minic.MustParse(fallbackSrc)
	fp := minic.Fingerprint(prog)
	progs := LatchLoweringFailure(fp)

	ctrs := MapCounters{}
	fbArgs := fallbackArgs()
	got, err := Run(prog, Config{
		Entry: "kernel", Args: fbArgs, Watch: "dot",
		Progs: progs, Fingerprint: fp, Counters: ctrs,
	})
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	twArgs := fallbackArgs()
	want, err := Run(prog, Config{Entry: "kernel", Args: twArgs, Watch: "dot", TreeWalk: true})
	if err != nil {
		t.Fatalf("tree-walk run: %v", err)
	}

	if len(want.Prof.Loops) != 4 || want.Prof.WatchCalls != 3 || len(want.Output) != 1 {
		t.Fatalf("kernel lost coverage: %d loops, %d watched calls, output %q",
			len(want.Prof.Loops), want.Prof.WatchCalls, want.Output)
	}
	if n := ctrs[CounterBCFallbacks]; n != 1 {
		t.Errorf("%s = %d, want 1", CounterBCFallbacks, n)
	}
	for _, name := range []string{CounterBCInstrs, CounterBCLowerings, CounterBCProgHits, CounterCompileFuncs} {
		if n := ctrs[name]; n != 0 {
			t.Errorf("%s = %d on a fallback run, want 0", name, n)
		}
	}
	if ent := progs.entries[fp]; !ent.failed || len(ent.free) != 0 {
		t.Errorf("cache entry changed by the fallback run: failed=%v free=%d", ent.failed, len(ent.free))
	}

	if d := DiffResults(got, want); d != "" {
		t.Errorf("fallback run differs from the tree-walker: %s", d)
	}
	if d := DiffArgs(fbArgs, twArgs); d != "" {
		t.Errorf("fallback run differs from the tree-walker: %s", d)
	}
}
