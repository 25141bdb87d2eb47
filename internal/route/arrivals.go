package route

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sprintgame/internal/stats"
	"sprintgame/internal/workload"
)

// Arrivals generates the serving run's offered load: the jobs arriving
// at each epoch. Epoch is called once per epoch, in order, from a
// single goroutine, with the engine's dedicated arrival RNG stream
// (cluster.MixSeed(BaseSeed, -3)) — an implementation must take all of
// its randomness from rng so the arrival stream is independent of rack
// scheduling. Returned jobs need only Units set; the engine assigns ID
// and Epoch.
type Arrivals interface {
	// Name identifies the process in results and benchmarks.
	Name() string
	// Epoch returns the jobs arriving at the given epoch. The returned
	// slice is valid only until the next Epoch call: the shipped
	// processes refill one internal buffer every epoch, and Serve
	// consumes each epoch's jobs before asking for the next.
	Epoch(epoch int, rng *stats.RNG) []Job
}

// fill resizes buf to n jobs, reusing its backing array when it is
// large enough, and returns it.
func fill(buf []Job, n int) []Job {
	if cap(buf) < n {
		return make([]Job, n)
	}
	return buf[:n]
}

// PoissonArrivals is the classic open-loop model: the number of jobs
// per epoch is Poisson(Rate) and each job's demand is exponential with
// mean MeanUnits.
type PoissonArrivals struct {
	// Rate is the mean arrivals per epoch (>= 0).
	Rate float64
	// MeanUnits is the mean task-unit demand per job (> 0).
	MeanUnits float64

	buf []Job
}

// Name implements Arrivals.
func (p *PoissonArrivals) Name() string { return "poisson" }

// Epoch implements Arrivals.
func (p *PoissonArrivals) Epoch(_ int, rng *stats.RNG) []Job {
	p.buf = fill(p.buf, rng.Poisson(p.Rate))
	for i := range p.buf {
		p.buf[i] = Job{Units: rng.Exp(1 / p.MeanUnits)}
	}
	return p.buf
}

// DiurnalArrivals modulates a Poisson process with a sinusoidal daily
// cycle plus bursts: the rate at epoch t is
//
//	Base + Amp * sin(2*pi*t/Period)
//
// multiplied by Burst while a burst is active. Bursts start with
// probability PBurst per epoch and last a geometric number of epochs
// with mean BurstDwell — the flash-crowd shape a load balancer actually
// has to survive.
type DiurnalArrivals struct {
	// Base is the mean arrivals per epoch at the cycle's midpoint.
	Base float64
	// Amp is the cycle's amplitude (0 <= Amp <= Base keeps rates >= 0;
	// larger amplitudes clamp at zero).
	Amp float64
	// Period is the cycle length in epochs (> 0).
	Period float64
	// Burst multiplies the rate during a burst (>= 1).
	Burst float64
	// PBurst is the per-epoch probability a burst starts (in [0, 1]).
	PBurst float64
	// BurstDwell is the mean burst length in epochs (>= 1).
	BurstDwell float64
	// MeanUnits is the mean task-unit demand per job (> 0).
	MeanUnits float64

	burstLeft int
	buf       []Job
}

// Name implements Arrivals.
func (d *DiurnalArrivals) Name() string { return "diurnal" }

// Epoch implements Arrivals.
func (d *DiurnalArrivals) Epoch(epoch int, rng *stats.RNG) []Job {
	rate := d.Base + d.Amp*math.Sin(2*math.Pi*float64(epoch)/d.Period)
	if rate < 0 {
		rate = 0
	}
	// Burst state machine: draws happen every epoch, burst or not, so
	// the stream's draw count is a pure function of the epoch index.
	startDraw := rng.Bool(d.PBurst)
	if d.burstLeft > 0 {
		d.burstLeft--
		rate *= d.Burst
	} else if startDraw && d.Burst > 1 {
		stay := 1 - 1/d.BurstDwell
		d.burstLeft = rng.Geometric(stay)
		rate *= d.Burst
	}
	d.buf = fill(d.buf, rng.Poisson(rate))
	for i := range d.buf {
		d.buf[i] = Job{Units: rng.Exp(1 / d.MeanUnits)}
	}
	return d.buf
}

// TraceArrivals replays recorded workload traces (cmd/tracegen output)
// as offered load: at each epoch, every trace in the set contributes
// one job whose demand is Scale times the trace's base TPS at that
// epoch (wrapping via workload.Trace.At). The stream is a deterministic
// function of the trace set — it draws nothing from the RNG — so two
// runs replaying the same file offer byte-identical load.
type TraceArrivals struct {
	// Set is the recorded trace set (required, validated).
	Set *workload.TraceSet
	// Scale converts base TPS into task units per job (> 0). With
	// tracegen's ~40-60 TPS baseline, Scale ~= Agents/(50*len(Traces))
	// loads one rack near capacity.
	Scale float64

	buf []Job
}

// Name implements Arrivals.
func (t *TraceArrivals) Name() string { return "trace:" + t.Set.Benchmark }

// Epoch implements Arrivals.
func (t *TraceArrivals) Epoch(epoch int, _ *stats.RNG) []Job {
	t.buf = t.buf[:0]
	for _, tr := range t.Set.Traces {
		_, tps := tr.At(epoch)
		if u := t.Scale * tps; u > 0 {
			t.buf = append(t.buf, Job{Units: u})
		}
	}
	return t.buf
}

// ArrivalConfig is a parsed arrival-process spec, the textual form the
// cmd binaries accept:
//
//	poisson:rate=12,units=3
//	diurnal:base=8,amp=6,period=200,burst=3,pburst=0.02,dwell=10,units=2
//	trace:scale=0.05
//
// Kind selects the process; Params carries its numeric knobs. Unset
// knobs take defaults (see Build); unknown knobs are rejected.
type ArrivalConfig struct {
	Kind   string
	Params map[string]float64
}

// arrivalKnobs lists each kind's accepted parameters.
var arrivalKnobs = map[string][]string{
	"poisson": {"rate", "units"},
	"diurnal": {"base", "amp", "period", "burst", "pburst", "dwell", "units"},
	"trace":   {"scale"},
}

// ParseArrivalConfig parses a "kind:key=val,key=val" spec. The bare
// kind ("poisson") is valid and takes all defaults.
func ParseArrivalConfig(spec string) (*ArrivalConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("route: empty arrival spec")
	}
	kind, rest, _ := strings.Cut(spec, ":")
	kind = strings.TrimSpace(kind)
	knobs, ok := arrivalKnobs[kind]
	if !ok {
		return nil, fmt.Errorf("route: unknown arrival kind %q (have poisson, diurnal, trace)", kind)
	}
	cfg := &ArrivalConfig{Kind: kind, Params: map[string]float64{}}
	if strings.TrimSpace(rest) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return nil, fmt.Errorf("route: arrival knob %q is not key=value", kv)
		}
		known := false
		for _, k := range knobs {
			if k == key {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("route: arrival kind %q has no knob %q (have %v)", kind, key, knobs)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("route: arrival knob %q needs a finite number, got %q", key, val)
		}
		if _, dup := cfg.Params[key]; dup {
			return nil, fmt.Errorf("route: arrival knob %q set twice", key)
		}
		cfg.Params[key] = f
	}
	return cfg, nil
}

// knob returns the parameter or its default.
func (c *ArrivalConfig) knob(key string, def float64) float64 {
	if v, ok := c.Params[key]; ok {
		return v
	}
	return def
}

// Build constructs the arrival process. ts supplies the recordings for
// Kind "trace" (required there, ignored otherwise). Each Build returns
// a fresh process with fresh burst state, so shootouts replay identical
// streams per policy.
func (c *ArrivalConfig) Build(ts *workload.TraceSet) (Arrivals, error) {
	switch c.Kind {
	case "poisson":
		p := &PoissonArrivals{
			Rate:      c.knob("rate", 8),
			MeanUnits: c.knob("units", 4),
		}
		if p.Rate < 0 {
			return nil, fmt.Errorf("route: poisson rate %v < 0", p.Rate)
		}
		if p.MeanUnits <= 0 {
			return nil, fmt.Errorf("route: poisson units %v <= 0", p.MeanUnits)
		}
		return p, nil
	case "diurnal":
		d := &DiurnalArrivals{
			Base:       c.knob("base", 8),
			Amp:        c.knob("amp", 4),
			Period:     c.knob("period", 200),
			Burst:      c.knob("burst", 3),
			PBurst:     c.knob("pburst", 0.01),
			BurstDwell: c.knob("dwell", 10),
			MeanUnits:  c.knob("units", 4),
		}
		switch {
		case d.Base < 0 || d.Amp < 0:
			return nil, fmt.Errorf("route: diurnal base/amp must be >= 0")
		case d.Period <= 0:
			return nil, fmt.Errorf("route: diurnal period %v <= 0", d.Period)
		case d.Burst < 1:
			return nil, fmt.Errorf("route: diurnal burst %v < 1", d.Burst)
		case d.PBurst < 0 || d.PBurst > 1:
			return nil, fmt.Errorf("route: diurnal pburst %v outside [0, 1]", d.PBurst)
		case d.BurstDwell < 1:
			return nil, fmt.Errorf("route: diurnal dwell %v < 1", d.BurstDwell)
		case d.MeanUnits <= 0:
			return nil, fmt.Errorf("route: diurnal units %v <= 0", d.MeanUnits)
		}
		return d, nil
	case "trace":
		scale := c.knob("scale", 0.05)
		if scale <= 0 {
			return nil, fmt.Errorf("route: trace scale %v <= 0", scale)
		}
		if ts == nil {
			return nil, fmt.Errorf("route: arrival kind \"trace\" needs a trace set (-trace-replay)")
		}
		if err := ts.Validate(); err != nil {
			return nil, err
		}
		return &TraceArrivals{Set: ts, Scale: scale}, nil
	default:
		return nil, fmt.Errorf("route: unknown arrival kind %q", c.Kind)
	}
}

// LoadArrivals parses and builds in one step; see ParseArrivalConfig
// and Build.
func LoadArrivals(spec string, ts *workload.TraceSet) (Arrivals, error) {
	cfg, err := ParseArrivalConfig(spec)
	if err != nil {
		return nil, err
	}
	return cfg.Build(ts)
}
