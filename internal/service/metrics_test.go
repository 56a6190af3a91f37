package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// parseExposition extracts "name{labels} value" and "name value" samples
// from rendered text, keyed by the full series string before the value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func renderHistogram(h *histogram, name string) string {
	var sb strings.Builder
	h.render(&sb, name)
	return sb.String()
}

// The +Inf bucket must equal _count, cumulative buckets must be
// monotonically non-decreasing, and _sum must equal the observed total.
func TestHistogramExposition(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	obs := []float64{0.005, 0.05, 0.05, 0.5, 5} // one below each bound plus a +Inf overflow
	var sum float64
	for _, v := range obs {
		h.Observe(v)
		sum += v
	}
	samples := parseExposition(t, renderHistogram(h, "m"))

	count := samples["m_count"]
	if count != float64(len(obs)) {
		t.Errorf("m_count = %v, want %d", count, len(obs))
	}
	if inf := samples[`m_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("+Inf bucket = %v, want m_count %v", inf, count)
	}
	if got := samples["m_sum"]; got != sum {
		t.Errorf("m_sum = %v, want %v", got, sum)
	}
	// Cumulative semantics: each bucket counts observations <= its bound.
	prev := -1.0
	for _, le := range []string{`m_bucket{le="0.01"}`, `m_bucket{le="0.1"}`, `m_bucket{le="1"}`, `m_bucket{le="+Inf"}`} {
		v, ok := samples[le]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", le, renderHistogram(h, "m"))
		}
		if v < prev {
			t.Errorf("bucket %s = %v below previous %v (not cumulative)", le, v, prev)
		}
		prev = v
	}
	if got := samples[`m_bucket{le="0.01"}`]; got != 1 {
		t.Errorf("first bucket = %v, want 1", got)
	}
	if got := samples[`m_bucket{le="0.1"}`]; got != 3 {
		t.Errorf("second bucket = %v, want 3 (cumulative)", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	// Ranks: ceil(0.5*5) = 3 → the bucket holding the 3rd observation
	// cumulatively, upper bound 2.
	if got := h.quantile(0.5); got != 2 {
		t.Errorf("median = %v, want bucket bound 2", got)
	}
	if got := h.quantile(0.1); got != 1 {
		t.Errorf("p10 = %v, want bucket bound 1", got)
	}
	// Overflow-dominated: every observation in +Inf; estimate must be at
	// least the last finite bound, not 0.
	h2 := newHistogram([]float64{1, 2})
	for i := 0; i < 4; i++ {
		h2.Observe(100)
	}
	if got := h2.quantile(0.5); got < 2 {
		t.Errorf("overflowed median = %v, want >= last bound 2", got)
	}
}

// Label values rendered through %q must stay parseable when they contain
// quotes and backslashes (mechanism specs are client-influenced text).
func TestCounterVecLabelEscaping(t *testing.T) {
	v := newCounterVec()
	hostile := `a"b\c`
	v.get(fmt.Sprintf("mech=%q", hostile)).Add(3)
	v.get(`plain="x"`).Inc()
	var sb strings.Builder
	v.render(&sb, "m")
	text := sb.String()
	want := `m{mech="a\"b\\c"} 3`
	if !strings.Contains(text, want) {
		t.Errorf("rendered family missing %q:\n%s", want, text)
	}
	// The escaped line must survive the same exposition parse the tests
	// use: one sample, numeric value, original label recoverable.
	samples := parseExposition(t, text)
	if got := samples[`m{mech="a\"b\\c"}`]; got != 3 {
		t.Errorf("escaped series value = %v, want 3", got)
	}
	if got, err := strconv.Unquote(`"a\"b\\c"`); err != nil || got != hostile {
		t.Errorf("label does not round-trip: %q, %v", got, err)
	}
	if v.total() != 4 {
		t.Errorf("family total = %d, want 4", v.total())
	}
}

// The image memo's series count what the memo did: a repeat submission
// is a hit, a formatting-only edit a second entry, and the bytes gauge is
// the entries' total weight, within the memo's bound.
func TestImageMemoMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, src := range []string{quickSrc, quickSrc, quickSrc + "\n; formatting only\n"} {
		if status, data := submit(t, ts, RunRequest{Source: src}); status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := parseExposition(t, string(data))
	_, _, _, size := s.imageMemoStats()
	for name, want := range map[string]float64{
		"sdtd_image_memo_hits_total":   1,
		"sdtd_image_memo_misses_total": 2,
		"sdtd_image_memo_entries":      2,
		"sdtd_image_memo_bytes":        float64(size),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if size <= 0 || size > imageMemoBytes {
		t.Errorf("memo weighs %d bytes, want within (0, %d]", size, imageMemoBytes)
	}
}
