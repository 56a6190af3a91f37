package faultinject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Fail("any.site"); err != nil {
		t.Fatalf("nil Fail = %v", err)
	}
	data := []byte("abc")
	out, ok := in.Corrupt("any.site", data)
	if ok || !bytes.Equal(out, data) {
		t.Fatalf("nil Corrupt = (%q, %v)", out, ok)
	}
	if st := in.Stats(); st != nil {
		t.Fatalf("nil Stats = %v", st)
	}
	if New(nil) != nil || New(&Plan{}) != nil {
		t.Fatal("empty plan must compile to a nil Injector")
	}
}

func TestEveryCadence(t *testing.T) {
	in := New(&Plan{Seed: 1, Points: []Point{
		{Site: "s", Class: ClassIO, Every: 3},
	}})
	var fired []int
	for i := 1; i <= 9; i++ {
		if err := in.Fail("s"); err != nil {
			fired = append(fired, i)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error does not match ErrInjected: %v", err)
			}
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired on calls %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on calls %v, want %v", fired, want)
		}
	}
}

func TestAfterAndLimit(t *testing.T) {
	in := New(&Plan{Points: []Point{
		{Site: "s", Class: ClassPermanent, Every: 1, After: 2, Limit: 3},
	}})
	n := 0
	for i := 0; i < 10; i++ {
		if in.Fail("s") != nil {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("fired %d times, want 3 (after=2 limit=3)", n)
	}
	st := in.Stats()["s"]
	if st.Calls != 10 || st.Fired != 3 {
		t.Fatalf("stats = %+v, want calls=10 fired=3", st)
	}
}

func TestProbDeterministicAcrossRuns(t *testing.T) {
	plan := &Plan{Seed: 99, Points: []Point{
		{Site: "a", Class: ClassTransient, Prob: 0.4},
		{Site: "b", Class: ClassIO, Prob: 0.4},
	}}
	pattern := func() []bool {
		in := New(plan)
		var p []bool
		for i := 0; i < 200; i++ {
			p = append(p, in.Fail("a") != nil, in.Fail("b") != nil)
		}
		return p
	}
	p1, p2 := pattern(), pattern()
	fires := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("fire pattern diverged at step %d between identical runs", i)
		}
		if p1[i] {
			fires++
		}
	}
	if fires < 80 || fires > 240 {
		t.Fatalf("%d fires out of 400 calls at p=0.4 — stream looks broken", fires)
	}
	// A different seed must produce a different pattern.
	other := New(&Plan{Seed: 100, Points: plan.Points})
	same := true
	for i := 0; i < 200; i++ {
		if (other.Fail("a") != nil) != p1[2*i] {
			same = false
		}
		other.Fail("b")
	}
	if same {
		t.Fatal("seed change did not change the fire pattern")
	}
}

func TestSiteStreamsIndependent(t *testing.T) {
	// Interleaving calls to a second site must not perturb the first
	// site's pattern (per-site streams).
	plan := &Plan{Seed: 7, Points: []Point{
		{Site: "a", Class: ClassIO, Prob: 0.5},
		{Site: "b", Class: ClassIO, Prob: 0.5},
	}}
	solo := New(&Plan{Seed: 7, Points: plan.Points[:1]})
	var want []bool
	for i := 0; i < 100; i++ {
		want = append(want, solo.Fail("a") != nil)
	}
	mixed := New(plan)
	for i := 0; i < 100; i++ {
		if got := mixed.Fail("a") != nil; got != want[i] {
			t.Fatalf("site a pattern perturbed at step %d by site b traffic", i)
		}
		mixed.Fail("b")
		mixed.Fail("b")
	}
}

func TestTransientClassification(t *testing.T) {
	in := New(&Plan{Points: []Point{
		{Site: "t", Class: ClassTransient, Every: 1},
		{Site: "p", Class: ClassPermanent, Every: 1},
	}})
	terr, perr := in.Fail("t"), in.Fail("p")
	if !IsTransient(terr) {
		t.Fatalf("transient fault not classified transient: %v", terr)
	}
	if IsTransient(perr) {
		t.Fatalf("permanent fault classified transient: %v", perr)
	}
	if !IsInjected(perr) || IsInjected(errors.New("organic")) || IsTransient(nil) {
		t.Fatal("IsInjected/IsTransient misclassify")
	}
}

func TestPanicClass(t *testing.T) {
	in := New(&Plan{Points: []Point{{Site: "s", Class: ClassPanic, Every: 1}}})
	defer func() {
		r := recover()
		ie, ok := r.(*Error)
		if !ok || ie.Class != ClassPanic || ie.Site != "s" {
			t.Fatalf("recovered %v, want *Error{s, panic}", r)
		}
	}()
	in.Fail("s")
	t.Fatal("panic-class point did not panic")
}

func TestLatencyClassReturnsNil(t *testing.T) {
	in := New(&Plan{Points: []Point{{Site: "s", Class: ClassLatency, Every: 1, LatencyMS: 1}}})
	if err := in.Fail("s"); err != nil {
		t.Fatalf("latency fault returned error %v", err)
	}
	if st := in.Stats()["s"]; st.Fired != 1 {
		t.Fatalf("latency fire not counted: %+v", st)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	in := New(&Plan{Seed: 3, Points: []Point{{Site: "s", Class: ClassCorrupt, Every: 1}}})
	data := bytes.Repeat([]byte{0xAA}, 64)
	out, ok := in.Corrupt("s", data)
	if !ok {
		t.Fatal("corrupt point did not fire")
	}
	if bytes.Equal(out, data) {
		t.Fatal("corruption produced identical bytes")
	}
	diffBits := 0
	for i := range data {
		x := out[i] ^ data[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
	// The original slice must be untouched.
	if !bytes.Equal(data, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("Corrupt mutated the caller's slice")
	}
	// Fail must ignore corrupt-class sites entirely.
	if err := in.Fail("s"); err != nil {
		t.Fatalf("Fail fired on a corrupt-class site: %v", err)
	}
	// And Corrupt must ignore non-corrupt sites.
	in2 := New(&Plan{Points: []Point{{Site: "e", Class: ClassIO, Every: 1}}})
	if _, ok := in2.Corrupt("e", data); ok {
		t.Fatal("Corrupt fired on an io-class site")
	}
}

func TestParsePlanInlineAndFile(t *testing.T) {
	const spec = `{"seed": 5, "points": [{"site": "x", "class": "io", "prob": 0.5}]}`
	p, err := ParsePlan(spec)
	if err != nil || p.Seed != 5 || len(p.Points) != 1 {
		t.Fatalf("inline ParsePlan = (%+v, %v)", p, err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = ParsePlan(path)
	if err != nil || p.Seed != 5 {
		t.Fatalf("file ParsePlan = (%+v, %v)", p, err)
	}
	for _, bad := range []string{
		`{"points": [{"site": "", "class": "io", "prob": 1}]}`,                                           // empty site
		`{"points": [{"site": "x", "class": "nope", "prob": 1}]}`,                                        // unknown class
		`{"points": [{"site": "x", "class": "io", "prob": 2}]}`,                                          // prob out of range
		`{"points": [{"site": "x", "class": "io"}]}`,                                                     // never fires
		`{"points": [{"site": "x", "class": "io", "prob": 1, "every": 2}]}`,                              // both cadences
		`{"points": [{"site": "x", "class": "io", "prob": 1}, {"site": "x", "class": "io", "prob": 1}]}`, // dup site
		`{"unknown_field": 1}`, // strict decoding
		`/no/such/file.json`,   // missing file
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted an invalid plan", bad)
		}
	}
}
