package interp_test

// Differential suite for the register bytecode VM: the default engine must
// be bit-for-bit equivalent to the reference tree-walking evaluator across
// the bundled benchmark corpus, error paths, scoping corner cases, and
// fuzzed programs. The contract covers the whole observable surface:
// return values, step counts, captured output, cycle/FLOP accounting
// (float64 accumulation order included), loop profiles, memory traffic,
// alias observations, final buffer contents, and error messages with
// positions. CI runs this file under -race (scripts/ci.sh) and also checks
// the VM never takes its defensive tree-walk fallback on the corpus.

import (
	"fmt"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// engines enumerates the two execution paths by the Config flags that
// select them; the zero value is the default bytecode VM, and the first
// entry is the reference every other engine is compared against.
var engines = []struct {
	name string
	cfg  func(interp.Config) interp.Config
}{
	{"bytecode", func(c interp.Config) interp.Config { return c }},
	{"treewalk", func(c interp.Config) interp.Config { c.TreeWalk = true; return c }},
}

// engineRun is one engine's outcome on a program.
type engineRun struct {
	name string
	res  *interp.Result
	err  error
	args []interp.Value // the run's arguments, buffers as the run left them
}

// runEngines executes prog on every engine with args from the factory
// (fresh buffers per run, so runs cannot observe each other's writes).
func runEngines(prog *minic.Program, cfg interp.Config, mkArgs func() []interp.Value) []engineRun {
	runs := make([]engineRun, len(engines))
	for i, e := range engines {
		c := e.cfg(cfg)
		c.Args = mkArgs()
		res, err := interp.Run(prog, c)
		runs[i] = engineRun{name: e.name, res: res, err: err, args: c.Args}
	}
	return runs
}

// assertEnginesAgree holds every engine to the first (the bytecode VM):
// byte-identical errors, positions included, or else the full result
// surface and the final contents of every argument buffer.
func assertEnginesAgree(t *testing.T, name string, runs []engineRun) {
	t.Helper()
	ref := runs[0]
	for _, r := range runs[1:] {
		switch {
		case (ref.err == nil) != (r.err == nil):
			t.Fatalf("%s: error presence differs: %s=%v %s=%v", name, ref.name, ref.err, r.name, r.err)
		case ref.err != nil:
			if ref.err.Error() != r.err.Error() {
				t.Errorf("%s: errors differ:\n%s: %v\n%s: %v", name, ref.name, ref.err, r.name, r.err)
			}
		default:
			assertSameRun(t, name+"/"+r.name, ref.res, r.res, ref.args, r.args)
		}
	}
}

// assertSameRun checks two successful runs' results and argument buffers.
func assertSameRun(t *testing.T, name string, ref, got *interp.Result, refArgs, gotArgs []interp.Value) {
	t.Helper()
	if d := interp.DiffResults(ref, got); d != "" {
		t.Errorf("%s: %s", name, d)
	}
	if d := interp.DiffArgs(refArgs, gotArgs); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// runAgreeing runs prog on every engine, requires success and agreement,
// and returns the reference result.
func runAgreeing(t *testing.T, name string, prog *minic.Program, cfg interp.Config, mkArgs func() []interp.Value) *interp.Result {
	t.Helper()
	runs := runEngines(prog, cfg, mkArgs)
	if runs[0].err != nil {
		t.Fatalf("%s: %v", name, runs[0].err)
	}
	assertEnginesAgree(t, name, runs)
	return runs[0].res
}

// noArgs is the argument factory of parameterless entries.
func noArgs() []interp.Value { return nil }

// runThreeWay runs prog on both engines and then on the third route
// through Run: the bytecode engine with a lowering failure latched in its
// program cache, which takes the defensive tree-walk fallback. It also
// returns the fallback run's counters.
func runThreeWay(prog *minic.Program, cfg interp.Config, mkArgs func() []interp.Value) ([]engineRun, interp.MapCounters) {
	runs := runEngines(prog, cfg, mkArgs)
	fp := minic.Fingerprint(prog)
	ctrs := interp.MapCounters{}
	c := cfg
	c.Args, c.Progs, c.Fingerprint, c.Counters = mkArgs(), interp.LatchLoweringFailure(fp), fp, ctrs
	res, err := interp.Run(prog, c)
	return append(runs, engineRun{name: "fallback", res: res, err: err, args: c.Args}), ctrs
}

// TestCompiledTreeWalkEquivalenceBenchmarks pushes all five bundled
// benchmark applications through the compiled (bytecode) engine and the
// tree-walker, watched on their entry, and asserts the entire observable
// surface matches — including the final contents of every argument
// buffer.
func TestCompiledTreeWalkEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			runAgreeing(t, b.Name, b.Parse(), interp.Config{Entry: b.Entry}, b.MakeArgs)
		})
	}
}

// TestThreeWayEquivalenceBenchmarks holds the lowering-failure fallback
// to the same contract on the bundled benchmarks: a Run whose program
// cache has latched a lowering failure must fall back exactly once and
// match both engines on the entire observable surface, buffers included.
func TestThreeWayEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			runs, ctrs := runThreeWay(b.Parse(), interp.Config{Entry: b.Entry}, b.MakeArgs)
			for _, r := range runs {
				if r.err != nil {
					t.Fatalf("%s run: %v", r.name, r.err)
				}
			}
			assertEnginesAgree(t, b.Name, runs)
			if n := ctrs[interp.CounterBCFallbacks]; n != 1 {
				t.Errorf("%s = %d on the fallback route, want 1", interp.CounterBCFallbacks, n)
			}
		})
	}
}

// oneBuf is the argument factory of entries taking one 3-element buffer.
func oneBuf() []interp.Value {
	return []interp.Value{interp.BufVal(interp.NewFloatBuffer("a", minic.Double, make([]float64, 3)))}
}

// errorCases are the failure modes a flow can hit mid-DSE — runtime
// faults, unresolved names, bounds violations, the step budget — and a
// construct the lowering cannot resolve, which must only fail when
// actually executed.
var errorCases = []struct {
	name    string
	src     string
	args    func() []interp.Value
	max     int64
	wantErr bool
}{
	{"div-zero", `int f() { return 1 / 0; }`, noArgs, 0, true},
	{"mod-zero", `int f() { return 1 % 0; }`, noArgs, 0, true},
	{"fdiv-zero", `double f() { return 1.0 / 0.0; }`, noArgs, 0, true},
	{"undef-var", `int f() { return x; }`, noArgs, 0, true},
	{"undef-var-assign", `int f() { x = 3; return 0; }`, noArgs, 0, true},
	{"undef-fn", `int f() { return g(); }`, noArgs, 0, true},
	{"oob", `void f(double *a) { a[7] = 1.0; }`, oneBuf, 0, true},
	{"oob-high", `void f(double *a) { a[5] = 1.0; }`, oneBuf, 0, true},
	{"oob-low", `void f(double *a) { a[-1] = 1.0; }`, oneBuf, 0, true},
	{"builtin-arity", `int f() { return sqrt(1.0, 2.0); }`, noArgs, 0, true},
	{"index-non-array", `int f() { int x = 1; return x[0]; }`, noArgs, 0, true},
	{"step-budget", `void f() { while (true) { } }`, noArgs, 5000, true},
	{"step-budget-deep", `
int leaf(int x) { return x + 1; }
int f() { int s = 0; for (int i = 0; i < 1000000; i++) { s = leaf(s); } return s; }`, noArgs, 5000, true},
	{"dead-undef-ok", `int f() { if (false) { return zzz; } return 7; }`, noArgs, 0, false},
}

// checkErrorCases runs every errorCases entry through run and asserts
// each route fails exactly when the case says, with byte-identical error
// messages, positions included.
func checkErrorCases(t *testing.T, run func(*minic.Program, interp.Config, func() []interp.Value) []engineRun) {
	for _, c := range errorCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runs := run(minic.MustParse(c.src), interp.Config{Entry: "f", MaxSteps: c.max}, c.args)
			for _, r := range runs {
				if (r.err != nil) != c.wantErr {
					t.Fatalf("%s: error = %v, want error: %v", r.name, r.err, c.wantErr)
				}
			}
			assertEnginesAgree(t, c.name, runs)
		})
	}
}

// TestCompiledTreeWalkEquivalenceErrors asserts the two engines agree on
// every error case.
func TestCompiledTreeWalkEquivalenceErrors(t *testing.T) {
	checkErrorCases(t, runEngines)
}

// TestThreeWayEquivalenceErrors asserts the lowering-failure fallback
// agrees with both engines on every error case.
func TestThreeWayEquivalenceErrors(t *testing.T) {
	checkErrorCases(t, func(prog *minic.Program, cfg interp.Config, mkArgs func() []interp.Value) []engineRun {
		runs, _ := runThreeWay(prog, cfg, mkArgs)
		return runs
	})
}

// TestShadowingAcrossNestedAndForInitScopes is the regression for
// frame.lookup's innermost-first resolution: the lowering's register
// resolver must bind every reference to the same declaration the
// scope-stack walk finds, across nested blocks and for-init scopes.
func TestShadowingAcrossNestedAndForInitScopes(t *testing.T) {
	src := `
int f() {
    int x = 1;
    int i = 100;
    int seen = 0;
    {
        int x = 2;
        {
            int x = 3;
            x += 10;
            seen += x;
        }
        x += 1;
        seen += x * 100;
    }
    for (int i = 0; i < 3; i++) {
        int x = 50;
        x += i;
        seen += x * 10000;
    }
    for (int i = 5; i < 6; i++) {
        seen += i * 1000000;
    }
    return seen * 10 + x + i / 100;
}
`
	res := runAgreeing(t, "shadowing", minic.MustParse(src), interp.Config{Entry: "f"}, noArgs)
	// seen = 13 + 300 + (50+51+52)*10000 + 5*1000000 = 6530313;
	// outer x and i survive untouched.
	if want := int64(6530313*10 + 1 + 1); res.Ret.AsInt() != want {
		t.Errorf("shadowing result = %d, want %d", res.Ret.AsInt(), want)
	}
}

// TestDeclInitSeesOuterBinding pins the declaration-order rule the
// lowering must preserve: an initializer referencing the declared name
// reads the outer (shadowed) binding, because the binding becomes visible
// only after its initializer evaluates.
func TestDeclInitSeesOuterBinding(t *testing.T) {
	src := `
int f() {
    int x = 2;
    {
        int x = x + 40;
        return x;
    }
}
`
	res := runAgreeing(t, "decl-init", minic.MustParse(src), interp.Config{Entry: "f"}, noArgs)
	if res.Ret.AsInt() != 42 {
		t.Errorf("inner x = %d, want 42 (init must read outer binding)", res.Ret.AsInt())
	}
}

// TestCompiledWatchEquivalence watches a non-entry kernel with aliased
// buffers, checking watch accounting and alias detection agree when the
// watched function is entered mid-call-graph.
func TestCompiledWatchEquivalence(t *testing.T) {
	src := `
void kernel(int n, double *a, double *b) {
    for (int i = 0; i < n; i++) {
        a[i] += b[i] * 2.0;
    }
}
void main_fn(int n, double *a, double *b) {
    kernel(n, a, b);
    kernel(n, a, a);
}
`
	mkArgs := func() []interp.Value {
		a := interp.NewFloatBuffer("a", minic.Double, []float64{1, 2, 3, 4})
		b := interp.NewFloatBuffer("b", minic.Double, []float64{5, 6, 7, 8})
		return []interp.Value{interp.IntVal(4), interp.BufVal(a), interp.BufVal(b)}
	}
	res := runAgreeing(t, "watch", minic.MustParse(src), interp.Config{Entry: "main_fn", Watch: "kernel"}, mkArgs)
	if pairs := res.Prof.AliasPairs(); len(pairs) != 1 {
		t.Errorf("alias pairs = %v, want exactly the a/b self-alias", pairs)
	}
}

// TestBytecodeNoFallbackOnBenchmarks is the no-regression gate for the
// lowering: every bundled benchmark must execute on the bytecode VM
// proper — instructions dispatched, zero defensive fallbacks to the
// tree-walker. scripts/ci.sh fails the build when this trips.
func TestBytecodeNoFallbackOnBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ctrs := interp.MapCounters{}
			if _, err := interp.Run(b.Parse(), interp.Config{
				Entry: b.Entry, Args: b.MakeArgs(), Counters: ctrs,
			}); err != nil {
				t.Fatal(err)
			}
			if n := ctrs[interp.CounterBCFallbacks]; n != 0 {
				t.Errorf("%s fell back to the tree-walker (%s=%d)",
					b.Name, interp.CounterBCFallbacks, n)
			}
			if ctrs[interp.CounterBCInstrs] == 0 {
				t.Errorf("%s dispatched no bytecode instructions (%s=0)",
					b.Name, interp.CounterBCInstrs)
			}
		})
	}
}

// fuzzArgs synthesizes deterministic arguments for fn: small buffers for
// pointer parameters, a matching small length for scalars. Returns false
// for signatures the corpus never uses (e.g. bool pointers).
func fuzzArgs(fn *minic.FuncDecl) ([]interp.Value, bool) {
	const n = 4
	args := make([]interp.Value, 0, len(fn.Params))
	for i, p := range fn.Params {
		switch {
		case p.Type.Ptr && p.Type.IsFloating():
			data := make([]float64, n)
			for j := range data {
				data[j] = float64(j+1) * 0.5
			}
			args = append(args, interp.BufVal(interp.NewFloatBuffer(fmt.Sprintf("b%d", i), p.Type.Kind, data)))
		case p.Type.Ptr && p.Type.Kind == minic.Int:
			args = append(args, interp.BufVal(interp.NewIntBuffer(fmt.Sprintf("b%d", i), []int64{3, 1, 4, 1})))
		case p.Type.Kind == minic.Int:
			args = append(args, interp.IntVal(n))
		case p.Type.Kind == minic.Float:
			args = append(args, interp.FloatVal(1.5))
		case p.Type.Kind == minic.Double:
			args = append(args, interp.DoubleVal(2.5))
		case p.Type.Kind == minic.Bool:
			args = append(args, interp.BoolVal(true))
		default:
			return nil, false
		}
	}
	return args, true
}

// FuzzBytecodeDiff is the lowering's differential fuzzer: any program the
// front end accepts must behave identically on the bytecode VM and the
// tree-walking reference — same result surface on success, byte-identical
// error otherwise, and never a panic or a tree-walk fallback. Seeded with
// the benchmark corpus like minic's FuzzParse.
func FuzzBytecodeDiff(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	f.Add("int f() { return 0; }")
	f.Add("int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i % 3; } return s; }")
	f.Add("double f(int n, const double *a, double *b) { double s = 0.0; for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]); s += b[i]; } return s; }")
	f.Add("int f(int n) { if (n > 2) { return n * n; } return -n; }")
	f.Add("int f() { return 1 / 0; }")
	f.Add("int f(int n) { int k = 0; while (k < n) { k++; if (k % 3 == 2) { continue; } if (k > 6) { break; } } return k; }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			if fn.Body == nil {
				continue
			}
			if _, ok := fuzzArgs(fn); !ok {
				continue
			}
			// Tight budget: fuzzed loops may spin; equivalence must hold
			// for the budget error too.
			const budget = 50_000
			ctrs := interp.MapCounters{}
			runs := runEngines(prog, interp.Config{Entry: fn.Name, MaxSteps: budget, Counters: ctrs},
				func() []interp.Value { args, _ := fuzzArgs(fn); return args })
			if ctrs[interp.CounterBCFallbacks] != 0 {
				t.Errorf("%s: lowering fell back to the tree-walker", fn.Name)
			}
			assertEnginesAgree(t, fn.Name, runs)
		}
	})
}
