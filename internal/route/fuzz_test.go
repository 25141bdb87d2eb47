package route

import (
	"testing"

	"sprintgame/internal/workload"
)

// FuzzParseArrivalConfig hammers the arrival-spec parser and builder:
// any input must either produce a config that builds an arrival process
// (given a trace set for kind "trace") or fail with an error — never
// panic.
func FuzzParseArrivalConfig(f *testing.F) {
	b, _ := workload.ByName("decision")
	ts, _ := workload.GenerateTraceSet(b, 1, 2, 20)
	f.Add("poisson")
	f.Add("poisson:rate=12,units=3")
	f.Add("diurnal:base=8,amp=6,period=200,burst=3,pburst=0.02,dwell=10,units=2")
	f.Add("trace:scale=0.05")
	f.Add("poisson:rate=1e308,units=1e-308")
	f.Add("diurnal:pburst=,")
	f.Add(":::===,,,")
	f.Add("poisson:rate=-0")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseArrivalConfig(spec)
		if err != nil {
			return
		}
		if cfg.Kind == "" {
			t.Fatalf("parsed %q into empty kind", spec)
		}
		if a, err := cfg.Build(ts); err == nil && a == nil {
			t.Fatalf("Build(%q) returned no arrival process", spec)
		}
	})
}
