package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"

	"gpuperf"
	"gpuperf/internal/timing"
)

// TestPipelineMatchesFacade proves the traced run measures the same
// program as the untraced one: for one request per registry kernel,
// the layer-by-layer pipeline's Result, Advice and Measurement digest
// to the same bytes as the facade's.
func TestPipelineMatchesFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates and simulates every registry kernel")
	}
	ctx := context.Background()
	dir := t.TempDir()
	f := gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: dir, Parallelism: workers, DisableCache: true})
	s, err := f.Session("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	cal, ok := timing.LoadCachedCalibration(dir, s.Device())
	if !ok {
		t.Fatal("fleet wrote no calibration entry")
	}
	p := &pipeline{dev: s.Device(), reg: gpuperf.DefaultRegistry(), tr: newTracer(true)}
	root := span{rid: 1, id: -1}
	for i, name := range f.Registry().Names() {
		req := gpuperf.Request{Kernel: name, Seed: int64(i + 3), Measure: true}
		want, err := f.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.analyze(ctx, root, cal, req)
		if err != nil {
			t.Fatal(err)
		}
		if digestOf(got) != digestOf(want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("%s: pipeline Result differs from the facade's\n got %s\nwant %s", name, g, w)
		}
		wantAdv, err := f.Advise(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		gotAdv, err := p.advise(ctx, root, cal, req)
		if err != nil {
			t.Fatal(err)
		}
		if digestOf(gotAdv) != digestOf(wantAdv) {
			t.Errorf("%s: pipeline Advice differs from the facade's", name)
		}
	}
	req := gpuperf.Request{Kernel: probeKernel}
	want, err := f.Measure(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.measure(ctx, root, req)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(got) != digestOf(want) {
		t.Errorf("pipeline Measurement %+v differs from the facade's %+v", got, want)
	}
	for _, layer := range []string{"registry", "barra", "model", "verify", "device", "advise"} {
		if p.tr.layers(phaseSetup)[layer].calls == 0 {
			t.Errorf("no %q span recorded", layer)
		}
	}
}

// TestCorruptedHitCountsAsFailed feeds the serve-mix path one cache
// HIT whose body differs from the original MISS and checks that the
// op counts as attempted and failed. The bodies differ only in phase
// timings, which the output digest ignores, so the byte comparison
// alone must catch it.
func TestCorruptedHitCountsAsFailed(t *testing.T) {
	res := gpuperf.Result{Kernel: "cr", Size: 128, Seed: 7, PredictedSeconds: 1e-4, Bottleneck: "shared memory"}
	res.Diagnostics.PhaseSeconds = map[string]float64{"engine": 0.1}
	miss := mustJSON(t, res)
	res.Diagnostics.PhaseSeconds = map[string]float64{"engine": 0.2}
	hit := mustJSON(t, res)
	responses := []struct {
		xcache string
		body   []byte
	}{{"MISS", miss}, {"HIT", hit}}
	calls := 0
	b := newBench(config{workload: "serve-mix"}, t.TempDir())
	s := &server{b: b, h: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r := responses[calls]
		calls++
		w.Header().Set("X-Cache", r.xcache)
		w.Write(r.body)
	})}
	o := op{kind: opAnalyze, req: gpuperf.Request{Kernel: "cr", Size: 128, Seed: 7, SkipVerify: true}}
	if _, _, err := b.do(context.Background(), s.facade, o); err != nil {
		t.Fatalf("original MISS: %v", err)
	}
	if _, _, err := b.do(context.Background(), s.facade, o); err == nil {
		t.Fatal("corrupted HIT passed the checks")
	}
	if b.chk.attempted != 2 || b.chk.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 and 1", b.chk.attempted, b.chk.failed)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// metric lists identical to what the command runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range newBench(config{}, "").perLayer() {
		layers = append(layers, entry{m.name, m.unit})
	}
	// The command may run workloads BENCHMARK.json leaves out.
	runnable := map[string]bool{}
	for _, n := range workloadNames() {
		runnable[n] = true
	}
	for _, w := range spec.Workloads {
		if !runnable[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{
		{"end_to_end", spec.EndToEnd, e2e},
		{"per_layer", spec.PerLayer, layers},
	} {
		got := map[entry]bool{}
		for _, e := range c.got {
			got[e] = true
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the command %d", c.what, len(got), len(c.want))
		}
		for _, e := range c.want {
			if !got[e] {
				t.Errorf("%s: %+v missing from BENCHMARK.json", c.what, e)
			}
		}
	}
}

// TestTailKeepsTenBeyond checks that each workload's latency_tail_s
// percentile leaves at least tailBeyond samples above it at the
// fewest samples a timed phase can collect.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples int
		pct     float64
	}{
		{"pass", minPasses * 10, passTail},
		{"serve-mix", minCycles * serveCycle * serveClients, serveTail},
	} {
		sorted := make([]float64, c.samples)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if _, beyond := tailLatency(sorted, c.pct); beyond < tailBeyond {
			t.Errorf("%s: %d samples above the %vth percentile of %d, want at least %d", c.name, beyond, c.pct, c.samples, tailBeyond)
		}
	}
}

// TestHostFactor checks the host factor's arithmetic: refNominal
// over the mean slice time, the slowest 1% left out.
func TestHostFactor(t *testing.T) {
	if f := hostFactor(nil); f != 1 {
		t.Errorf("factor with no slices = %v, want 1", f)
	}
	samples := []float64{1000 * refNominal}
	for i := 0; i < 99; i++ {
		samples = append(samples, 2*refNominal)
	}
	if f := hostFactor(samples); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("factor = %v, want 0.5", f)
	}
}
