package experiments

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func jsonUnmarshal(b []byte, v interface{}) error { return json.Unmarshal(b, v) }

var quick = Options{Seed: 1, Quick: true}

func run(t *testing.T, id string) *Report {
	t.Helper()
	gen, ok := Registry()[id]
	if !ok {
		t.Fatalf("no generator for %s", id)
	}
	rep, err := gen(quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report id %q, want %q", rep.ID, id)
	}
	return rep
}

func cell(t *testing.T, rep *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, rep.Rows[row][col])
	}
	return v
}

func TestRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ext-adaptive", "ext-coopmulti", "ext-deviation", "ext-folk", "ext-misreport", "ext-physgame", "ext-physical",
		"abl-bins", "abl-damping", "abl-discount", "abl-onlinepred", "abl-predictor", "abl-recovery", "abl-tails", "abl-tripmodel"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
}

func TestRender(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a    bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	rep := run(t, "table1")
	if len(rep.Rows) != 11 {
		t.Fatalf("Table 1 has %d rows", len(rep.Rows))
	}
	if rep.Rows[0][0] != "NaiveBayesian" || rep.Rows[8][0] != "PageRank" {
		t.Error("Table 1 row order wrong")
	}
}

func TestTable2DerivedMatchesPaper(t *testing.T) {
	rep := run(t, "table2")
	if len(rep.Rows) != 5 {
		t.Fatalf("Table 2 has %d rows", len(rep.Rows))
	}
	// derived column within a few percent of the paper column.
	for _, row := range rep.Rows {
		paper, err1 := strconv.ParseFloat(row[2], 64)
		derived, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric Table 2 row %v", row)
		}
		if paper == 0 {
			continue
		}
		if diff := (derived - paper) / paper; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: derived %v vs paper %v", row[0], derived, paper)
		}
	}
}

func TestFigure1Bands(t *testing.T) {
	rep := run(t, "fig1")
	if len(rep.Rows) != 11 {
		t.Fatalf("fig1 has %d rows", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		speedup := cell(t, rep, i, 1)
		ratio := cell(t, rep, i, 2)
		if speedup < 2 || speedup > 7.5 {
			t.Errorf("%s speedup %v outside paper band", row[0], speedup)
		}
		if ratio < 1.5 || ratio > 2.1 {
			t.Errorf("%s power ratio %v", row[0], ratio)
		}
		if cell(t, rep, i, 6) <= cell(t, rep, i, 5) {
			t.Errorf("%s sprint temperature not higher", row[0])
		}
	}
}

func TestFigure2Regions(t *testing.T) {
	rep := run(t, "fig2")
	// First row is rated current: never trips.
	if rep.Rows[0][3] != "not-tripped" {
		t.Error("rated current should never trip")
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last[3] != "tripped" {
		t.Error("extreme overload should trip")
	}
}

func TestFigure3MatchesEq11(t *testing.T) {
	rep := run(t, "fig3")
	for i := range rep.Rows {
		curve := cell(t, rep, i, 1)
		eq11 := cell(t, rep, i, 2)
		if diff := curve - eq11; diff > 0.05 || diff < -0.05 {
			t.Errorf("row %d: curve %v vs Eq.11 %v", i, curve, eq11)
		}
	}
}

func TestFigure5ClosedFormMatchesChain(t *testing.T) {
	rep := run(t, "fig5")
	for i := range rep.Rows {
		if cf, ch := cell(t, rep, i, 2), cell(t, rep, i, 3); cf != ch {
			t.Errorf("row %d: closed form %v vs chain %v", i, cf, ch)
		}
	}
}

func TestFigure6Dynamics(t *testing.T) {
	rep := run(t, "fig6")
	if len(rep.Rows) == 0 {
		t.Fatal("no windows")
	}
	// Notes carry trips per policy: greedy trips most, E-T least among
	// (G, E-T).
	var gTrips, etTrips int
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "G:") {
			if _, err := parseTrips(n, &gTrips); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(n, "E-T:") {
			if _, err := parseTrips(n, &etTrips); err != nil {
				t.Fatal(err)
			}
		}
	}
	if gTrips <= etTrips {
		t.Errorf("greedy trips (%d) should exceed E-T trips (%d)", gTrips, etTrips)
	}
}

func parseTrips(note string, out *int) (bool, error) {
	idx := strings.Index(note, "trips=")
	if idx < 0 {
		return false, nil
	}
	rest := note[idx+len("trips="):]
	end := strings.IndexByte(rest, ',')
	if end < 0 {
		end = len(rest)
	}
	v, err := strconv.Atoi(strings.TrimSpace(rest[:end]))
	if err != nil {
		return false, err
	}
	*out = v
	return true, nil
}

func TestFigure7SharesValid(t *testing.T) {
	rep := run(t, "fig7")
	if len(rep.Rows) != 4 {
		t.Fatalf("fig7 has %d rows", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		total := 0.0
		for c := 1; c <= 4; c++ {
			total += cell(t, rep, i, c)
		}
		if total < 99 || total > 101 {
			t.Errorf("%s shares sum to %v%%", row[0], total)
		}
	}
	// Greedy's recovery share dominates (paper: >50%).
	if cell(t, rep, 0, 4) < 50 {
		t.Errorf("greedy recovery share %v%%, want > 50%%", cell(t, rep, 0, 4))
	}
}

func TestFigure8Headline(t *testing.T) {
	rep := run(t, "fig8")
	if len(rep.Rows) != 11 {
		t.Fatalf("fig8 has %d rows", len(rep.Rows))
	}
	beats := 0
	for i, row := range rep.Rows {
		et := cell(t, rep, i, 3)
		if row[0] == "linear" || row[0] == "correlation" {
			// Outliers: E-T performs like greedy.
			if et > 1.6 {
				t.Errorf("%s: E-T %v should be greedy-like", row[0], et)
			}
			continue
		}
		if et >= 2.5 {
			beats++
		}
	}
	if beats < 7 {
		t.Errorf("E-T strongly beats greedy on only %d non-outlier benchmarks", beats)
	}
}

func TestFigure9ETWins(t *testing.T) {
	rep := run(t, "fig9")
	if len(rep.Rows) != 11 {
		t.Fatalf("fig9 has %d rows", len(rep.Rows))
	}
	for i := range rep.Rows {
		eb, et := cell(t, rep, i, 1), cell(t, rep, i, 2)
		if et <= 1 {
			t.Errorf("k=%s: E-T %v should beat greedy", rep.Rows[i][0], et)
		}
		if et <= eb*0.9 {
			t.Errorf("k=%s: E-T %v well below E-B %v", rep.Rows[i][0], et, eb)
		}
	}
}

func TestFigure10Shapes(t *testing.T) {
	rep := run(t, "fig10")
	// PageRank's curve must place mass above 10x; linear's must not.
	var linearMax, pagerankAbove10 float64
	for i, row := range rep.Rows {
		x := cell(t, rep, i, 1)
		y := cell(t, rep, i, 2)
		switch row[0] {
		case "linear":
			if y > 0.01 && x > linearMax {
				linearMax = x
			}
		case "pagerank":
			if x > 10 {
				pagerankAbove10 += y
			}
		}
	}
	if linearMax > 5.6 {
		t.Errorf("linear density extends to %v, want within ~5", linearMax)
	}
	if pagerankAbove10 <= 0 {
		t.Error("pagerank density has no mass above 10x")
	}
}

func TestFigure11OutliersSprintAlways(t *testing.T) {
	rep := run(t, "fig11")
	for i, row := range rep.Rows {
		ps := cell(t, rep, i, 2)
		switch row[0] {
		case "linear", "correlation":
			if ps < 0.99 {
				t.Errorf("%s: ps = %v, want 1", row[0], ps)
			}
		default:
			if ps > 0.8 {
				t.Errorf("%s: ps = %v, want judicious", row[0], ps)
			}
		}
	}
}

func TestFigure12Decay(t *testing.T) {
	rep := run(t, "fig12")
	first := cell(t, rep, 0, 1)
	last := cell(t, rep, len(rep.Rows)-1, 1)
	if first < 0.8 {
		t.Errorf("efficiency at cheap recovery %v", first)
	}
	if last >= first {
		t.Errorf("efficiency should decay: %v -> %v", first, last)
	}
}

func TestFigure13Trends(t *testing.T) {
	rep := run(t, "fig13")
	byParam := map[string][]float64{}
	for i, row := range rep.Rows {
		byParam[row[0]] = append(byParam[row[0]], cell(t, rep, i, 2))
	}
	pc := byParam["pc"]
	if pc[len(pc)-1] <= pc[0] {
		t.Error("threshold should rise with pc")
	}
	pr := byParam["pr"]
	spread := 0.0
	for _, v := range pr {
		if d := v - pr[0]; d > spread {
			spread = d
		}
		if d := pr[0] - v; d > spread {
			spread = d
		}
	}
	if spread > 0.2*pr[0] {
		t.Errorf("threshold should be insensitive to pr, spread %v", spread)
	}
	nmin := byParam["Nmin"]
	if nmin[0] >= nmin[len(nmin)-1] {
		t.Error("small Nmin should lower thresholds")
	}
}

func TestRenderCSVAndJSON(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "hello, world"}},
		Notes:  []string{"n1"},
	}
	var csvBuf bytes.Buffer
	if err := rep.RenderCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	if !strings.Contains(out, `"hello, world"`) {
		t.Errorf("CSV did not quote commas:\n%s", out)
	}
	if !strings.Contains(out, "# n1") {
		t.Errorf("CSV missing note:\n%s", out)
	}

	var jsonBuf bytes.Buffer
	if err := rep.RenderJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := jsonUnmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "x" || len(decoded.Rows) != 1 {
		t.Errorf("JSON round trip wrong: %+v", decoded)
	}

	var buf bytes.Buffer
	if err := rep.RenderAs(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderAs(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderAs(&buf, "nope"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestRenderPlot(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t",
		Header: []string{"step", "a", "b", "label"},
		Rows: [][]string{
			{"0", "1", "10%", "foo"},
			{"1", "2", "20%", "bar"},
			{"2", "3", "30%", "baz"},
		},
		Notes: []string{"n"},
	}
	var buf bytes.Buffer
	if err := rep.RenderPlot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Numeric columns plotted; the text column skipped.
	for _, want := range []string{"a", "b", "scale", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "foo") {
		t.Error("non-numeric column should not be plotted")
	}
	// A report with no numeric columns falls back to the table.
	textOnly := &Report{ID: "y", Title: "t", Header: []string{"a", "b"},
		Rows: [][]string{{"x", "y"}}}
	buf.Reset()
	if err := textOnly.RenderPlot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== y: t ==") {
		t.Error("fallback table missing")
	}
}
