package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Run phases. Per-layer metrics cover the timed and probe phases,
// except timing.calibrate_s, which covers set-up.
const (
	phaseSetup    = "setup"
	phaseTimed    = "timed"
	phaseReplay   = "replay"
	phaseAccuracy = "accuracy"
	phaseProbe    = "probe"
)

// span identifies an open span: its request and its index in the
// tracer's span list (-1 when tracing is off).
type span struct {
	rid int64
	id  int
}

// spanRec is one recorded span; Parent indexes the span list.
type spanRec struct {
	Name   string  `json:"name"`
	Phase  string  `json:"phase"`
	Req    int64   `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans, counters and samples in memory. When off,
// every method is a no-op, so traced and untraced code share one path.
// Phases change only while no request is in flight.
type tracer struct {
	on      bool
	epoch   time.Time
	phase   string
	mu      sync.Mutex
	spans   []spanRec
	counts  map[string]map[string]float64   // phase → name → sum
	samples map[string]map[string][]float64 // phase → name → values
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:      on,
		epoch:   time.Now(),
		phase:   phaseSetup,
		counts:  map[string]map[string]float64{},
		samples: map[string]map[string][]float64{},
	}
}

func (t *tracer) setPhase(p string) { t.phase = p }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// child opens a span named name under parent.
func (t *tracer) child(parent span, name string) span {
	if !t.on {
		return span{rid: parent.rid, id: -1}
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Phase: t.phase, Req: parent.rid, Parent: parent.id, Start: start})
	return span{rid: parent.rid, id: len(t.spans) - 1}
}

// end closes s and returns its duration in seconds.
func (t *tracer) end(s span) float64 {
	if s.id < 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[s.id].End = end
	return end - t.spans[s.id].Start
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(parent span, name string, fn func() error) error {
	s := t.child(parent, name)
	err := fn()
	t.end(s)
	return err
}

// add adds v to the current phase's counter name.
func (t *tracer) add(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[t.phase]
	if m == nil {
		m = map[string]float64{}
		t.counts[t.phase] = m
	}
	m[name] += v
}

// sample records one value of name in the current phase.
func (t *tracer) sample(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.samples[t.phase]
	if m == nil {
		m = map[string][]float64{}
		t.samples[t.phase] = m
	}
	m[name] = append(m[name], v)
}

// layerStat is one layer's spans within a set of phases.
type layerStat struct {
	self  float64 // summed self time, s
	calls int
}

// layers sums self time and span count per span name over the given
// phases. A span's self time is its duration minus its children's;
// the children of one span run one after another.
func (t *tracer) layers(phases ...string) map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		for _, p := range phases {
			if s.Phase == p {
				st := out[s.Name]
				st.self += s.End - s.Start - childSum[i]
				st.calls++
				out[s.Name] = st
			}
		}
	}
	return out
}

// count sums counter name over phases.
func (t *tracer) count(name string, phases ...string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var v float64
	for _, p := range phases {
		v += t.counts[p][name]
	}
	return v
}

// values collects the samples of name over phases.
func (t *tracer) values(name string, phases ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var v []float64
	for _, p := range phases {
		v = append(v, t.samples[p][name]...)
	}
	return v
}

// selfTimes reports each phase's self time per layer, in seconds.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, p := range []string{phaseSetup, phaseTimed, phaseAccuracy, phaseProbe} {
		m := map[string]float64{}
		for name, st := range t.layers(p) {
			m[name] = st.self
		}
		if len(m) > 0 {
			out[p] = m
		}
	}
	return out
}

// writeFile writes every span as one JSON array; a span's index in
// the array is the id its children's parent field refers to.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
