package interp

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// Test helpers shared by the package's own tests and the
// differential suites of package interp_test (exported from a _test file,
// so they stay out of the package API).

// MapCounters is a minimal Counters sink for single-goroutine tests.
type MapCounters map[string]int64

// Add implements Counters.
func (m MapCounters) Add(name string, delta int64) { m[name] += delta }

// LatchLoweringFailure returns a program cache holding a latched lowering
// failure for fingerprint fp, so a bytecode Run through it takes the
// defensive tree-walk fallback.
func LatchLoweringFailure(fp uint64) *ProgramCache {
	c := NewProgramCache()
	c.entries[fp] = &progEntry{failed: true}
	return c
}

// DiffResults returns "" when two runs have the same observable surface —
// return value, steps, captured output and every Profile field — and
// otherwise describes the first difference. Bindings hold each run's own
// buffers, so they compare by call count and through the alias
// observations.
func DiffResults(a, b *Result) string {
	if a.Ret != b.Ret || a.Steps != b.Steps || !reflect.DeepEqual(a.Output, b.Output) {
		return fmt.Sprintf("ret/steps/output %v/%d/%q vs %v/%d/%q", a.Ret, a.Steps, a.Output, b.Ret, b.Steps, b.Output)
	}
	ap, bp := *a.Prof, *b.Prof
	if len(ap.Bindings) != len(bp.Bindings) || !reflect.DeepEqual(ap.AliasPairs(), bp.AliasPairs()) {
		return fmt.Sprintf("bindings %d calls %v vs %d calls %v",
			len(ap.Bindings), ap.AliasPairs(), len(bp.Bindings), bp.AliasPairs())
	}
	ap.Bindings, bp.Bindings = nil, nil
	av, bv := reflect.ValueOf(ap), reflect.ValueOf(bp)
	for i := 0; i < av.NumField(); i++ {
		if x, y := av.Field(i).Interface(), bv.Field(i).Interface(); !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("Prof.%s %s vs %s", av.Type().Field(i).Name, jsonOf(x), jsonOf(y))
		}
	}
	return ""
}

// DiffArgs returns "" when the buffer-valued arguments of two runs hold
// the same final contents, and otherwise names the first that differs.
func DiffArgs(a, b []Value) string {
	for i := range a {
		if x, y := a[i].Buf, b[i].Buf; x != nil && (!reflect.DeepEqual(x.F, y.F) || !reflect.DeepEqual(x.I, y.I)) {
			return fmt.Sprintf("final contents of buffer %s differ", x.Name)
		}
	}
	return ""
}

// jsonOf renders a profile field with its pointers followed.
func jsonOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}
