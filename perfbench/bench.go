package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuperf"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the --trace 0 metrics, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pred_error_median", "ratio"},
	{"bottleneck_agree_ratio", "ratio"},
}

// tailBeyond is how many samples must lie above the reported tail
// percentile.
const tailBeyond = 10

// Op kinds.
const (
	opAnalyze = "analyze"
	opAdvise  = "advise"
	opWrite   = "write"
)

// op is one generated request. A write submits the tree-reduction
// kernel under client-specific buffer names, analyzes it with
// req.Seed and deletes it.
type op struct {
	kind   string
	client int
	req    gpuperf.Request
}

func (o op) key() string {
	r := o.req
	return fmt.Sprintf("%s/%d/%s/%d/%d/%t/%t", o.kind, o.client, r.Kernel, r.Size, r.Seed, r.SkipVerify, r.Measure)
}

// output is what one op produced: the Result, Advice or Measurement
// itself, or the HTTP response body holding one. Bodies are decoded,
// and outputs digested, only after the op's latency is taken.
type output struct {
	val     any    // *gpuperf.Result, *gpuperf.Advice or *gpuperf.Measurement
	body    []byte // JSON of a Result, or of an Advice when kind is opAdvise
	kind    string
	bodyKey string // tuple the body is compared under; "" skips the comparison
	xcache  string
	digest  string // set by checker.check
}

func (o output) result() *gpuperf.Result {
	r, _ := o.val.(*gpuperf.Result)
	return r
}

// execFunc runs one op under the request's root span.
type execFunc func(ctx context.Context, sp span, o op) (output, error)

// generator yields one client's request sequence.
type generator interface{ next() op }

// bench is one run's state: configuration, tracer, checker and the
// samples its workload collects.
type bench struct {
	cfg     config
	scratch string
	dev     gpuperf.Device
	tr      *tracer
	chk     *checker
	reqID   atomic.Int64

	setupS       float64
	setupRaw     []float64
	setupFactor  float64
	setupRef     *hostRef // non-nil while setup runs
	refSamples   []float64
	lat          []float64
	timedWall    time.Duration
	setupDigests []string
	prefix       [][]output
	clientLat    [][]float64
	unit         int
	tailPct      float64
	passS        []float64
	measured     []string
	acc          accuracy
	store        gpuperf.CacheStats
	overhead     float64
}

func newBench(cfg config, scratch string) *bench {
	return &bench{
		cfg:     cfg,
		scratch: scratch,
		tr:      newTracer(cfg.trace),
		chk:     newChecker(),
	}
}

// calDir returns a fresh, empty calibration directory.
func (b *bench) calDir(name string) string {
	return filepath.Join(b.scratch, name)
}

// setupRounds is how many times an untraced run sets up; setup_s is
// the median round.
const setupRounds = 3

// setup runs round setupRounds times and sets setup_s to the median
// round's time scaled by the host factor of the set-up phase (see
// hostref.go). Host-reference slices run after each set-up op and
// after each round; no round's time includes them. round(r) must
// build everything afresh, calibration directory included; the last
// round's state is what the timed phase uses.
func (b *bench) setup(round func(r int) error) error {
	h := newHostRef()
	b.setupRef = h
	defer func() { b.setupRef = nil }()
	for r := 0; r < setupRounds; r++ {
		// The previous round's state is garbage now; collect it so
		// rounds neither pay for nor stack on each other's heaps.
		runtime.GC()
		busy, sliced := h.busy, h.sliced
		start := time.Now()
		if err := round(r); err != nil {
			return err
		}
		raw := time.Since(start).Seconds() - (h.sliced - sliced)
		b.setupRaw = append(b.setupRaw, raw)
		// Account the round's time outside its ops too.
		h.after(raw - (h.busy - busy))
	}
	b.setupFactor = hostFactor(h.samples)
	b.setupS = median(b.setupRaw) * b.setupFactor
	return nil
}

// do runs one op inside a root span, then checks its output and
// counts it.
func (b *bench) do(ctx context.Context, exec execFunc, o op) (output, time.Duration, error) {
	root := b.tr.child(span{rid: b.reqID.Add(1), id: -1}, "request")
	start := time.Now()
	out, err := exec(ctx, root, o)
	lat := time.Since(start)
	b.tr.end(root)
	if err == nil {
		err = b.chk.check(o, &out)
	}
	b.chk.count(o, err)
	return out, lat, err
}

// drive runs one closed-loop client per generator until the timed
// phase has lasted cfg.seconds. A client stops only at the end of a
// pass of unit ops (whole passes over the kernel list, or whole
// serve-mix cycles) and only after minOps ops. A pass's duration is
// the sum of its ops' latencies; untraced clients run host-reference
// slices between ops (see hostref.go), which no pass includes. The
// outputs of each client's first prefix ops feed outputs_sha256, so
// the digest covers the same requests on every run of a seed.
func (b *bench) drive(ctx context.Context, gens []generator, exec execFunc, unit, minOps, prefix int, tailPct float64) {
	b.tr.setPhase(phaseTimed)
	b.unit = unit
	b.tailPct = tailPct
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	lats := make([][]float64, len(gens))
	passes := make([][]float64, len(gens))
	refs := make([]*hostRef, len(gens))
	b.prefix = make([][]output, len(gens))
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if !b.cfg.trace {
				refs[c] = newHostRef()
			}
			var pass float64
			for i := 0; ctx.Err() == nil; i++ {
				if i > 0 && i%unit == 0 {
					passes[c] = append(passes[c], pass)
					pass = 0
					if i >= minOps && !time.Now().Before(deadline) {
						return
					}
				}
				out, lat, _ := b.do(ctx, exec, gens[c].next())
				lats[c] = append(lats[c], lat.Seconds())
				pass += lat.Seconds()
				if refs[c] != nil {
					refs[c].after(lat.Seconds())
				}
				if i < prefix {
					b.prefix[c] = append(b.prefix[c], out)
				}
			}
		}(c)
	}
	wg.Wait()
	b.timedWall = time.Since(start)
	b.clientLat = lats
	for c, l := range lats {
		b.lat = append(b.lat, l...)
		b.passS = append(b.passS, passes[c]...)
		if refs[c] != nil {
			b.refSamples = append(b.refSamples, refs[c].samples...)
		}
	}
}

// replayUntraced measures trace.overhead_ratio. It regenerates each
// client's sequence, replays the last window ops the client sent in
// the timed phase with the tracer off, and divides those ops' traced
// latencies by their replayed ones.
func (b *bench) replayUntraced(ctx context.Context, gens []generator, exec execFunc, window int) {
	b.tr.setPhase(phaseReplay)
	b.tr.on = false
	defer func() { b.tr.on = true }()
	var traced float64
	plain := make([]float64, len(gens))
	var wg sync.WaitGroup
	for c, g := range gens {
		lat := b.clientLat[c]
		for i := 0; i < len(lat)-window; i++ {
			g.next()
		}
		for _, l := range lat[len(lat)-window:] {
			traced += l
		}
		wg.Add(1)
		go func(c int, g generator) {
			defer wg.Done()
			for i := 0; i < window; i++ {
				_, lat, _ := b.do(ctx, exec, g.next())
				plain[c] += lat.Seconds()
			}
		}(c, g)
	}
	wg.Wait()
	var sum float64
	for _, p := range plain {
		sum += p
	}
	b.overhead = traced / sum
}

// outputsDigest folds the set-up outputs, each client's prefix
// outputs and the accuracy measurements, in order, into one SHA-256.
func (b *bench) outputsDigest() string {
	h := sha256.New()
	for _, d := range b.setupDigests {
		fmt.Fprintln(h, d)
	}
	for c, outs := range b.prefix {
		fmt.Fprintf(h, "client %d\n", c)
		for _, o := range outs {
			fmt.Fprintln(h, o.digest)
		}
	}
	for _, d := range b.measured {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *bench) report() (record, result map[string]any) {
	sort.Float64s(b.lat)
	tail, beyond := tailLatency(b.lat, b.tailPct)
	hf := hostFactor(b.refSamples)
	throughput := float64(b.unit*len(b.clientLat)) / median(b.passS)
	p50 := median(b.lat)
	record = map[string]any{
		"workload":        b.cfg.workload,
		"trace":           b.cfg.trace,
		"host":            hostStamp(b.cfg.seed),
		"outputs_sha256":  b.outputsDigest(),
		"attempted":       b.chk.attempted,
		"failed":          b.chk.failed,
		"failed_ratio":    float64(b.chk.failed) / float64(max(b.chk.attempted, 1)),
		"failures":        b.chk.reasons,
		"timed_requests":  len(b.lat),
		"timed_wall_s":    b.timedWall.Seconds(),
		"pass_s":          b.passS,
		"latency_tail":    map[string]any{"percentile": b.tailPct, "samples": len(b.lat), "beyond": beyond},
		"accuracy_sample": len(b.acc.errs),
	}
	if !b.cfg.trace {
		record["setup"] = map[string]any{"unscaled_s": b.setupRaw, "host_factor": b.setupFactor}
		record["host_factor"] = hf
		record["ref_slices"] = len(b.refSamples)
		record["unscaled"] = map[string]float64{"throughput_rps": throughput, "latency_p50_s": p50, "latency_tail_s": tail}
	}
	metrics := map[string]metric{}
	if b.cfg.trace {
		record["self_s"] = b.tr.selfTimes()
		for _, m := range b.perLayer() {
			metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s":                b.setupS,
			"throughput_rps":         throughput / hf,
			"latency_p50_s":          p50 * hf,
			"latency_tail_s":         tail * hf,
			"peak_rss_mb":            peakRSSMB(),
			"pred_error_median":      median(b.acc.errs),
			"bottleneck_agree_ratio": float64(b.acc.agree) / float64(max(len(b.acc.errs), 1)),
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{values[m.name], m.unit}
		}
	}
	result = map[string]any{
		"correct":   b.chk.failed == 0,
		"attempted": b.chk.attempted,
		"failed":    b.chk.failed,
		"metrics":   metrics,
	}
	return record, result
}

// accuracy accumulates the paper's validation: prediction error
// against the device simulator and bottleneck agreement.
type accuracy struct {
	errs  []float64
	agree int
}

// add records one predicted Result against a measurement. The model
// names components "instruction pipeline", "shared memory" and
// "global memory"; the simulator "instruction", "shared" and
// "global".
func (a *accuracy) add(res *gpuperf.Result, measured float64, dominant string) {
	a.errs = append(a.errs, math.Abs(res.PredictedSeconds-measured)/measured)
	if strings.Fields(res.Bottleneck)[0] == dominant {
		a.agree++
	}
}

// checker validates outputs and counts attempted and failed ops.
type checker struct {
	mu        sync.Mutex
	reference map[string]bool   // kernel → has a CPU reference
	digests   map[string]string // op key → first output digest
	bodies    map[string]string // op key → SHA-256 of the first HTTP body
	attempted int64
	failed    int64
	reasons   []string
}

func newChecker() *checker {
	return &checker{reference: map[string]bool{}, digests: map[string]string{}, bodies: map[string]string{}}
}

// maxReasons bounds how many failure messages a record keeps.
const maxReasons = 8

func (c *checker) count(o op, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.reasons) < maxReasons {
			c.reasons = append(c.reasons, o.key()+": "+err.Error())
		}
	}
}

// check validates an op's output: a cached body equal to the first
// response for its tuple, finite positive times, verification kept on
// wherever the request does not skip it, and the same digest for
// every repeat of the tuple, from either client. It decodes out.body
// and sets out.digest.
func (c *checker) check(o op, out *output) error {
	if out.bodyKey != "" {
		if err := c.body(out.bodyKey, out.xcache, out.body); err != nil {
			return err
		}
	}
	if out.body != nil {
		var v any = &gpuperf.Result{}
		if out.kind == opAdvise {
			v = &gpuperf.Advice{}
		}
		if err := json.Unmarshal(out.body, v); err != nil {
			return err
		}
		out.val, out.body = v, nil
	}
	switch v := out.val.(type) {
	case *gpuperf.Result:
		if err := positive("predicted_seconds", v.PredictedSeconds); err != nil {
			return err
		}
		if o.req.Measure {
			if err := positive("measured_seconds", v.MeasuredSeconds); err != nil {
				return err
			}
		}
		if !o.req.SkipVerify && c.reference[o.req.Kernel] && v.MaxAbsError == nil {
			return fmt.Errorf("kernel %s has a CPU reference but the result carries no verification", o.req.Kernel)
		}
	case *gpuperf.Advice:
		if err := positive("baseline_seconds", v.BaselineSeconds); err != nil {
			return err
		}
	case *gpuperf.Measurement:
		if err := positive("measured seconds", v.Seconds); err != nil {
			return err
		}
	}
	out.digest = digestOf(out.val)
	key := o.key()
	if o.kind != opWrite {
		// A write's client index is part of its key; an analysis
		// reads the same for both clients.
		key = op{kind: o.kind, req: o.req}.key()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.digests[key]; ok && first != out.digest {
		return fmt.Errorf("output digest %.12s differs from the first one for this tuple, %.12s", out.digest, first)
	} else if !ok {
		c.digests[key] = out.digest
	}
	return nil
}

// forgetBodies drops the first responses body compares against.
func (c *checker) forgetBodies() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bodies = map[string]string{}
}

// body checks that a cache HIT or COALESCED response carries the same
// bytes as the first response served for its tuple.
func (c *checker) body(key, xcache string, body []byte) error {
	sum := sha256.Sum256(body)
	got := hex.EncodeToString(sum[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.bodies[key]
	if !ok {
		c.bodies[key] = got
		return nil
	}
	if (xcache == string(gpuperf.CacheHit) || xcache == string(gpuperf.CacheCoalesced)) && got != first {
		return fmt.Errorf("X-Cache %s body differs from the first response for this tuple", xcache)
	}
	return nil
}

func positive(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("%s = %v, want finite and positive", name, v)
	}
	return nil
}

// digestOf hashes the JSON form of a Result, Advice or Measurement.
// A Result's PhaseSeconds is wall-clock timing, not output, so it is
// left out.
func digestOf(v any) string {
	if r, ok := v.(*gpuperf.Result); ok {
		c := *r
		c.Diagnostics.PhaseSeconds = nil
		v = &c
	}
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// median returns the middle of values (the mean of the two middle
// values for an even count), or 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the pct-th percentile of sorted, interpolated
// between the two nearest ranks, with the number of samples above it.
func tailLatency(sorted []float64, pct float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := pct / 100 * float64(n-1)
	i := int(rank)
	if i >= n-1 {
		return sorted[n-1], 0
	}
	return sorted[i] + (rank-float64(i))*(sorted[i+1]-sorted[i]), n - 1 - i
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostStamp identifies the machine, toolchain and commit a record
// comes from.
func hostStamp(seed int64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(".git"),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the repository metadata in dir without
// running git; a checkout without metadata reads "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// namedMetric is one per-layer metric of a traced run.
type namedMetric struct {
	name, unit string
	value      float64
}

// perLayer computes the --trace 1 metrics, in BENCHMARK.json's order.
// They cover the timed phase and the probe, except timing.calibrate_s,
// which covers set-up. busy_s is the layer's summed self time.
func (b *bench) perLayer() []namedMetric {
	ph := []string{phaseTimed, phaseProbe}
	l := b.tr.layers(ph...)
	setup := b.tr.layers(phaseSetup)
	n := func(name string) float64 { return b.tr.count(name, ph...) }
	calls := func(layer string) float64 { return float64(l[layer].calls) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	st := b.store
	return []namedMetric{
		{"registry.build_s", "s", l["registry"].self},
		{"registry.build_calls", "count", calls("registry")},
		{"barra.busy_s", "s", l["barra"].self},
		{"barra.blocks_per_s", "1/s", ratio(n("barra.blocks"), l["barra"].self)},
		{"barra.replay_ratio", "ratio", ratio(n("barra.replayed"), n("barra.accounted"))},
		{"barra.warp_instrs", "count", n("barra.warp_instrs")},
		{"model.busy_s", "s", l["model"].self},
		{"model.calls", "count", calls("model")},
		{"timing.global_bench_runs", "count", n("timing.global_bench_runs")},
		{"timing.calibrate_s", "s", setup["timing.calibrate"].self},
		{"timing.load_s", "s", l["timing.load"].self},
		{"device.busy_s", "s", l["device"].self},
		{"device.calls", "count", calls("device")},
		{"device.winstr_per_s", "1/s", ratio(n("device.warp_instrs"), l["device"].self)},
		{"device.cycles", "cycles", n("device.cycles")},
		{"verify.busy_s", "s", l["verify"].self},
		{"advise.busy_s", "s", l["advise"].self},
		{"advise.calls", "count", calls("advise")},
		{"resultstore.hits", "count", float64(st.Hits)},
		{"resultstore.misses", "count", float64(st.Misses)},
		{"resultstore.coalesced", "count", float64(st.Coalesced)},
		{"resultstore.evictions", "count", float64(st.Evictions)},
		{"resultstore.hit_ratio", "ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses+st.Coalesced))},
		{"http.requests", "count", calls("http")},
		{"http.non2xx", "count", n("http.non2xx")},
		{"http.hit_p50_s", "s", median(b.tr.values("http.hit_s", ph...))},
		{"ingest.submit_p50_s", "s", median(b.tr.values("ingest.submit_s", ph...))},
		{"ingest.accepted", "count", n("ingest.accepted")},
		{"ingest.rejected", "count", n("ingest.rejected")},
		{"trace.overhead_ratio", "ratio", b.overhead},
	}
}
