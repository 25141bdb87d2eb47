package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSet reads one comma-separated list of -out files or globs.
func loadSet(spec string) ([]*report, error) {
	var out []*report
	for _, pat := range strings.Split(spec, ",") {
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no result files match %q", pat)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r report
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, &r)
		}
	}
	return out, nil
}

// verdict judges a change's runs against the base's for one metric: ok,
// worse when the median worsened by more than bound, or unresolved when
// either set's spread (quartile distance over median) is wider than the
// bound, unless every changed run reads better than every base run.
func verdict(base, change []float64, better string, bound float64) string {
	_, bm, _ := quartiles(base)
	_, cm, _ := quartiles(change)
	worse := func(a, b float64) float64 { // how much worse a is than b
		if b == 0 {
			return 0
		}
		if better == "higher" {
			return (b - a) / b
		}
		return (a - b) / b
	}
	if spread(base) > bound || spread(change) > bound {
		for _, c := range change {
			for _, b := range base {
				if worse(c, b) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worse(cm, bm) > bound {
		return "worse"
	}
	return "ok"
}

func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// runCompare prints, for every workload and end-to-end metric, each
// set's median and quartiles and each later set's verdict against the
// first.
func runCompare(config string, specs []string) error {
	if len(specs) < 2 {
		return errors.New("-compare needs at least two result sets")
	}
	b, err := os.ReadFile(config)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", config, err)
	}
	sets := make([][]*report, len(specs))
	for i, s := range specs {
		if sets[i], err = loadSet(s); err != nil {
			return err
		}
	}
	anyWorse := false
	for _, w := range workloads {
		for _, m := range def.EndToEnd {
			vals := make([][]float64, len(sets))
			for i, set := range sets {
				for _, r := range set {
					if res := r.Workloads[w.name]; res != nil {
						if v, ok := res.EndToEnd[m.Name]; ok {
							vals[i] = append(vals[i], v.Value)
						}
					}
				}
			}
			if len(vals[0]) == 0 {
				continue
			}
			for i, xs := range vals {
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				v := "base"
				if i > 0 {
					v = verdict(vals[0], xs, m.Better, m.Bound)
					anyWorse = anyWorse || v == "worse"
				}
				fmt.Printf("%-12s %-16s set %d  n %2d  median %-12.6g q1 %-12.6g q3 %-12.6g %s  bound %g  %s\n",
					w.name, m.Name, i, len(xs), q2, q1, q3, m.Unit, m.Bound, v)
			}
		}
	}
	if anyWorse {
		return errors.New("a metric got worse by more than its bound")
	}
	return nil
}
