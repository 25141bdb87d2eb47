package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sprintgame/internal/telemetry"
)

// TestClusterSpanTraceDeterministicAcrossWorkers asserts the span
// trace — cluster.run root, cluster.rack and cluster.epoch children — is
// byte-identical for every worker-pool size, with fault injection
// active. Clock-less tracers omit span timings, which is what makes
// this possible.
func TestClusterSpanTraceDeterministicAcrossWorkers(t *testing.T) {
	base := testCluster(t, 8, 16, 200, "decision", "pagerank")
	base.Faults = &FaultPlan{Kills: map[int]int{2: 50}, Rate: 0.25}

	run := func(workers int) []byte {
		cfg := base
		cfg.Workers = workers
		var trace bytes.Buffer
		cfg.Tracer = telemetry.NewTracer(&trace)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes()
	}

	ref := run(1)
	for _, line := range strings.Split(strings.TrimSpace(string(ref)), "\n") {
		if !strings.Contains(line, `"event":"span"`) {
			t.Fatalf("non-span trace line %q", line)
		}
	}
	for _, name := range []string{"cluster.run", "cluster.rack", "cluster.epoch"} {
		if !strings.Contains(string(ref), fmt.Sprintf(`"name":%q`, name)) {
			t.Errorf("trace missing %s span", name)
		}
	}
	// Spans must never leak wall-clock timing into a clock-less trace.
	if strings.Contains(string(ref), "dur_ns") || strings.Contains(string(ref), "start_ns") {
		t.Error("clock-less trace contains span timing fields")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		if got := run(workers); !bytes.Equal(ref, got) {
			t.Errorf("trace differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestClusterSpanTreeWiring checks the emitted spans form one trace:
// every cluster.rack and cluster.epoch span carries the cluster.run
// span as its parent, there is exactly one rack span per rack, flagged
// when failed, and one epoch span per epoch, in order.
func TestClusterSpanTreeWiring(t *testing.T) {
	cfg := testCluster(t, 4, 16, 100)
	cfg.Faults = &FaultPlan{Kills: map[int]int{1: 10}}
	var trace bytes.Buffer
	cfg.Tracer = telemetry.NewTracer(&trace)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	type span struct {
		Event    string `json:"event"`
		Name     string `json:"name"`
		Trace    string `json:"trace"`
		ID       string `json:"id"`
		Parent   string `json:"parent"`
		Rack     int    `json:"rack"`
		RackName string `json:"rack_name"`
		Failed   bool   `json:"failed"`
		Epoch    int    `json:"epoch"`
	}
	var root *span
	var racks, epochs []span
	for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
		if len(line) == 0 || !bytes.Contains(line, []byte(`"event":"span"`)) {
			continue
		}
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("bad span line %s: %v", line, err)
		}
		switch s.Name {
		case "cluster.run":
			root = &s
		case "cluster.rack":
			racks = append(racks, s)
		case "cluster.epoch":
			epochs = append(epochs, s)
		}
	}
	if root == nil {
		t.Fatal("no cluster.run span")
	}
	if len(epochs) != cfg.Epochs {
		t.Fatalf("got %d cluster.epoch spans, want %d", len(epochs), cfg.Epochs)
	}
	for i, s := range epochs {
		if s.Trace != root.Trace || s.Parent != root.ID || s.Epoch != i {
			t.Errorf("epoch span %d = %+v, want epoch %d under root %s", i, s, i, root.ID)
		}
	}
	if len(racks) != 4 {
		t.Fatalf("got %d cluster.rack spans, want 4 (failed racks included)", len(racks))
	}
	failed := 0
	for i, s := range racks {
		if s.Trace != root.Trace {
			t.Errorf("rack span %d trace %q != root trace %q", i, s.Trace, root.Trace)
		}
		if s.Parent != root.ID {
			t.Errorf("rack span %d parent %q != root id %q", i, s.Parent, root.ID)
		}
		if s.Rack != i {
			t.Errorf("rack span %d out of order: rack field %d", i, s.Rack)
		}
		if s.RackName == "" {
			t.Errorf("rack span %d has no rack_name", i)
		}
		if s.Failed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("got %d failed rack spans, want 1", failed)
	}
}

// TestClusterMetricsScrapeUnderLoad hammers the debug endpoint — JSON
// and Prometheus formats concurrently — while a faulty cluster run is
// writing the registry, checking every scrape parses and the endpoint
// never errors. This is the lock-free histogram's integration test.
func TestClusterMetricsScrapeUnderLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := telemetry.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := testCluster(t, 8, 16, 200, "decision", "pagerank")
	cfg.Metrics = reg
	cfg.Faults = &FaultPlan{Rate: 0.3}
	cfg.Workers = 4

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(url string, check func([]byte) error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("scrape %s: %v", url, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("scrape %s: read: %v", url, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("scrape %s: status %d: %s", url, resp.StatusCode, body)
				return
			}
			if err := check(body); err != nil {
				t.Errorf("scrape %s: %v", url, err)
				return
			}
		}
	}
	checkJSON := func(body []byte) error {
		var snap map[string]json.RawMessage
		return json.Unmarshal(body, &snap)
	}
	checkProm := func(body []byte) error {
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !strings.ContainsRune(line, ' ') {
				return fmt.Errorf("malformed sample line %q", line)
			}
		}
		return nil
	}
	wg.Add(2)
	go scrape(srv.URL()+"/metrics", checkJSON)
	go scrape(srv.URL()+"/metrics?format=prom", checkProm)

	// Several runs back to back keep the registry hot while scrapers spin.
	for i := 0; i < 3; i++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// The registry must have accumulated cluster metrics through it all.
	resp, err := http.Get(srv.URL() + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Errorf("content-type = %q, want %q", ct, telemetry.PrometheusContentType)
	}
	for _, want := range []string{"cluster_runs", "cluster_rack_task_rate_bucket{le="} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, body)
		}
	}
}
