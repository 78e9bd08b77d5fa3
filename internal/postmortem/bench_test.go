package postmortem

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
)

// BenchmarkReadTrace reads a 20 s mw trace, the file pctrace writes and
// pcextract reads back.
func BenchmarkReadTrace(b *testing.B) {
	a, err := app.Build("mw", "", app.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := a.NewSimulator(sim.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	tw := NewTraceWriter(&file)
	s.AddObserver(tw)
	if err := s.Run(20); err != nil {
		b.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(file.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := ReadTrace(bytes.NewReader(file.Bytes()))
		if err != nil || len(rec.aggs) == 0 {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tw.Intervals()), "intervals")
}
