// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a Report — the same rows or series
// the paper plots — so results can be compared side by side with the
// published artifact (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sprintgame/internal/core"
)

// Report is a regenerated table or figure: tabular data plus notes that
// record the headline comparisons.
type Report struct {
	// ID is the experiment identifier, e.g. "fig8" or "table1".
	ID string
	// Title describes the paper artifact.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, formatted.
	Rows [][]string
	// Notes records headline observations (who wins, by what factor).
	Notes []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", min(100, sum(widths)+2*len(widths)))); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Options scales experiments. The zero value requests paper scale; Quick
// shrinks runs for benchmarks and smoke tests.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Epochs per simulation (0 = default per experiment).
	Epochs int
	// Quick reduces agents, epochs, and repetitions by roughly an order
	// of magnitude.
	Quick bool
	// Cache, when non-nil, memoizes equilibrium solves in memory across
	// the experiments of one run: repeated (classes, game) instances
	// reuse one solution. A nil cache solves directly — results are
	// identical either way.
	Cache *core.SolveCache
}

// Generator produces one experiment's report.
type Generator func(Options) (*Report, error)

// Registry maps experiment ids to generators, covering every table and
// figure in the paper's evaluation.
func Registry() map[string]Generator {
	return map[string]Generator{
		"table1": Table1,
		"table2": Table2,
		"fig1":   Figure1,
		"fig2":   Figure2,
		"fig3":   Figure3,
		"fig5":   Figure5,
		"fig6":   Figure6,
		"fig7":   Figure7,
		"fig8":   Figure8,
		"fig9":   Figure9,
		"fig10":  Figure10,
		"fig11":  Figure11,
		"fig12":  Figure12,
		"fig13":  Figure13,
		// Extensions beyond the paper's artifacts (§6.4 made concrete).
		"ext-adaptive":  ExtAdaptive,
		"ext-coopmulti": ExtCoopMulti,
		"ext-deviation": ExtDeviation,
		"ext-folk":      ExtFolk,
		"ext-misreport": ExtMisreport,
		"ext-physical":  ExtPhysical,
		"ext-physgame":  ExtPhysGame,
		// Ablations of this reproduction's design choices.
		"abl-tripmodel":  AblTripModel,
		"abl-damping":    AblDamping,
		"abl-discount":   AblDiscount,
		"abl-onlinepred": AblOnlinePrediction,
		"abl-bins":       AblBins,
		"abl-recovery":   AblRecovery,
		"abl-tails":      AblTails,
		"abl-predictor":  AblPredictor,
	}
}

// IDs returns the registry keys in a stable order (tables first, then
// figures by number).
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	rank := func(id string) int {
		switch {
		case strings.HasPrefix(id, "table"):
			return 0
		case strings.HasPrefix(id, "fig"):
			return 1
		case strings.HasPrefix(id, "ext"):
			return 2
		default:
			return 3
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ri, rj := rank(ids[i]), rank(ids[j]); ri != rj {
			return ri < rj
		}
		if ni, nj := numSuffix(ids[i]), numSuffix(ids[j]); ni != nj {
			return ni < nj
		}
		return ids[i] < ids[j]
	})
	return ids
}

func numSuffix(s string) int {
	n := 0
	for _, r := range s {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
