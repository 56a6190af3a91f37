package cache

import "testing"

// BenchmarkAccessSpan compares a span walk (Walk on a stamped holder) with
// the per-line walk it replaces (one Access per line), on the x86 and arm
// L1 geometries. "resident" walks one 256-byte span that stays in the
// cache; "thrash" cycles through ways+1 spans that map to the same sets,
// so every line of every walk misses and evicts. ns/line is host time per
// simulated line fetch.
func BenchmarkAccessSpan(b *testing.B) {
	for _, g := range equivGeoms[:2] {
		for _, pattern := range []string{"resident", "thrash"} {
			for _, mode := range []string{"span", "lines"} {
				b.Run(g.name+"/"+pattern+"/"+mode, func(b *testing.B) {
					c := New(g.cfg)
					nspans := 1
					if pattern == "thrash" {
						nspans = g.cfg.Ways + 1
					}
					// Spans one way's worth of bytes apart share their sets.
					stride := uint32(g.cfg.SizeBytes / g.cfg.Ways)
					spans := make([]Span, nspans)
					for i := range spans {
						spans[i] = Span{From: uint32(i) * stride, End: uint32(i)*stride + 256}
					}
					lines := 256 / g.cfg.LineBytes
					b.ResetTimer()
					for i, j := 0, 0; i < b.N; i++ {
						s := &spans[j]
						if j++; j == nspans {
							j = 0
						}
						if mode == "span" {
							c.Walk(s)
						} else {
							accessLines(c, s)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
				})
			}
		}
	}
}
