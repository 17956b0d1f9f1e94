package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"gpuperf"
	"gpuperf/internal/timing"
)

// workload runs one named workload on b: set-up, the timed phase,
// the accuracy check and, when tracing, the overhead replay and the
// probe of layers the timed phase did not reach.
type workload func(ctx context.Context, b *bench) error

var workloads = map[string]workload{
	"predict-measure": predictMeasure,
	"fresh-session":   freshSession,
	"serve-mix":       serveMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The fewest timed passes over the kernel list, and serve-mix cycles;
// clients stop at the first pass or cycle boundary after --seconds.
//
// latency_tail_s is a fixed percentile with at least tailBeyond samples
// above it at these minimums. Every pass (cycle) holds every kernel
// (request kind) in the same share, so a fixed percentile lands on the
// same kernels however many passes the host's speed allowed, where the
// highest percentile with tailBeyond samples above it would move
// between kernels as the count changes. Each sits in the middle of one
// kernel's (kind's) samples: the 75th in the third-slowest kernel's
// tenth, and the 98.8th in the second-slowest of serve-mix's four
// matmul n=512 kinds, each 1/128 of a cycle.
const (
	minPasses = 4
	minCycles = 4
	passTail  = 75.0
	serveTail = 98.8
)

// passGen cycles through the registry kernels at default sizes,
// drawing a fresh input seed for every request.
type passGen struct {
	names   []string
	rng     *rand.Rand
	measure bool
	i       int
}

func newPassGen(names []string, seed int64, measure bool) *passGen {
	return &passGen{names: names, rng: rand.New(rand.NewSource(seed)), measure: measure}
}

func (g *passGen) next() op {
	k := g.names[g.i%len(g.names)]
	g.i++
	return op{kind: opAnalyze, req: gpuperf.Request{Kernel: k, Seed: g.rng.Int63n(1<<40) + 1, Measure: g.measure}}
}

// pass returns the next len(names) ops.
func (g *passGen) pass() []op {
	ops := make([]op, len(g.names))
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// prepare resolves the default catalog device and records which
// registry kernels carry a CPU reference, so the checker can insist
// that their verification stays on.
func (b *bench) prepare() ([]string, error) {
	dev, err := gpuperf.DefaultCatalog().Resolve(gpuperf.DefaultCatalogDevice)
	if err != nil {
		return nil, err
	}
	b.dev = dev
	reg := gpuperf.DefaultRegistry()
	for _, name := range reg.Names() {
		w, err := reg.Build(dev, name, gpuperf.Params{})
		if err != nil {
			return nil, err
		}
		b.chk.reference[name] = w.Verify != nil
	}
	return reg.Names(), nil
}

// calibrate is the traced runs' set-up: a cold timing.Calibrate,
// persisted to a fresh calibration directory.
func (b *bench) calibrate() (*timing.Calibration, string, error) {
	dir := b.calDir("cal")
	var cal *timing.Calibration
	err := b.tr.do(span{id: -1}, "timing.calibrate", func() (err error) {
		cal, err = timing.Calibrate(b.dev)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	return cal, dir, cal.SaveCachedCalibration(dir)
}

// analyzeWith adapts an analyze function to an execFunc.
func analyzeWith(fn func(ctx context.Context, sp span, req gpuperf.Request) (*gpuperf.Result, error)) execFunc {
	return func(ctx context.Context, sp span, o op) (output, error) {
		res, err := fn(ctx, sp, o.req)
		if err != nil {
			return output{}, err
		}
		return output{val: res}, nil
	}
}

// warm runs set-up ops, keeping their digests for outputs_sha256, and
// returns their outputs.
func (b *bench) warm(ctx context.Context, exec execFunc, ops []op) []output {
	outs := make([]output, len(ops))
	b.setupDigests = b.setupDigests[:0]
	for i, o := range ops {
		var lat time.Duration
		outs[i], lat, _ = b.do(ctx, exec, o)
		b.setupDigests = append(b.setupDigests, outs[i].digest)
		if b.setupRef != nil {
			b.setupRef.after(lat.Seconds())
		}
	}
	return outs
}

// measureAccuracy times each predicted Result's instance on the device
// simulator and records prediction error and bottleneck agreement.
func (b *bench) measureAccuracy(ctx context.Context, results []*gpuperf.Result,
	measure func(ctx context.Context, sp span, req gpuperf.Request) (*gpuperf.Measurement, error)) {
	b.tr.setPhase(phaseAccuracy)
	for _, res := range results {
		if res == nil {
			continue
		}
		exec := func(ctx context.Context, sp span, o op) (output, error) {
			m, err := measure(ctx, sp, o.req)
			return output{val: m}, err
		}
		o := op{kind: "measure", req: gpuperf.Request{Kernel: res.Kernel, Size: res.Size, Seed: res.Seed}}
		if out, _, err := b.do(ctx, exec, o); err == nil {
			m := out.val.(*gpuperf.Measurement)
			b.acc.add(res, m.Seconds, m.Dominant)
			b.measured = append(b.measured, out.digest)
		}
	}
}

func prefixResults(outs []output) []*gpuperf.Result {
	res := make([]*gpuperf.Result, len(outs))
	for i, o := range outs {
		res[i] = o.result()
	}
	return res
}

// predictMeasure: one client, Analyze with Measure over every
// registry kernel, fresh seeds each pass, result cache off. One
// warm-up pass without Measure fills the lazy global-bandwidth
// benchmarks; the device simulator has no lazy state.
func predictMeasure(ctx context.Context, b *bench) error {
	names, err := b.prepare()
	if err != nil {
		return err
	}
	n := len(names)
	gen := newPassGen(names, b.cfg.seed, true)
	warmOps := gen.pass()
	for i := range warmOps {
		warmOps[i].req.Measure = false
	}
	var exec execFunc
	var p *pipeline
	var cal *timing.Calibration
	var dir string
	if b.cfg.trace {
		if cal, dir, err = b.calibrate(); err != nil {
			return err
		}
		p = &pipeline{dev: b.dev, reg: gpuperf.DefaultRegistry(), tr: b.tr}
		exec = analyzeWith(func(ctx context.Context, sp span, req gpuperf.Request) (*gpuperf.Result, error) {
			return p.analyze(ctx, sp, cal, req)
		})
		b.warm(ctx, exec, warmOps)
	} else if err := b.setup(func(r int) error {
		f := gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: b.calDir(fmt.Sprint("cal", r)), Parallelism: workers, DisableCache: true})
		exec = analyzeWith(func(ctx context.Context, _ span, req gpuperf.Request) (*gpuperf.Result, error) {
			return f.Analyze(ctx, req)
		})
		b.warm(ctx, exec, warmOps)
		return nil
	}); err != nil {
		return err
	}
	b.drive(ctx, []generator{gen}, exec, n, minPasses*n, n, passTail)
	for _, res := range prefixResults(b.prefix[0]) {
		if res != nil {
			b.acc.add(res, res.MeasuredSeconds, res.MeasuredDominant)
		}
	}
	if !b.cfg.trace {
		return nil
	}
	replay := newPassGen(names, b.cfg.seed, true)
	replay.pass() // the warm-up pass
	b.replayUntraced(ctx, []generator{replay}, exec, n)
	b.probe(ctx, p, cal, dir)
	return nil
}

// freshSession: one client; every request builds a new Fleet on the
// calibration directory written during set-up, as each gpuperf
// -cal-dir invocation does, and analyzes one kernel without Measure.
func freshSession(ctx context.Context, b *bench) error {
	names, err := b.prepare()
	if err != nil {
		return err
	}
	n := len(names)
	var exec execFunc
	var measure func(context.Context, span, gpuperf.Request) (*gpuperf.Measurement, error)
	var p *pipeline
	var cal *timing.Calibration
	var dir string
	if b.cfg.trace {
		if cal, dir, err = b.calibrate(); err != nil {
			return err
		}
		p = &pipeline{dev: b.dev, reg: gpuperf.DefaultRegistry(), tr: b.tr}
		exec = analyzeWith(func(ctx context.Context, sp span, req gpuperf.Request) (*gpuperf.Result, error) {
			var fresh *timing.Calibration
			if err := b.tr.do(sp, "timing.load", func() error {
				var ok bool
				if fresh, ok = timing.LoadCachedCalibration(dir, b.dev); !ok {
					return errors.New("calibration directory holds no valid entry")
				}
				return nil
			}); err != nil {
				return nil, err
			}
			return p.analyze(ctx, sp, fresh, req)
		})
		measure = p.measure
	} else {
		var s *gpuperf.Analyzer
		if err := b.setup(func(r int) error {
			dir = b.calDir(fmt.Sprint("cal", r))
			if s, err = gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: dir, Parallelism: workers}).Session(""); err != nil {
				return err
			}
			return s.Calibrate()
		}); err != nil {
			return err
		}
		if err := s.CalibrationSaveError(); err != nil {
			return err
		}
		exec = analyzeWith(func(ctx context.Context, _ span, req gpuperf.Request) (*gpuperf.Result, error) {
			return gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: dir, Parallelism: workers}).Analyze(ctx, req)
		})
		f := gpuperf.NewFleet(gpuperf.FleetOptions{Parallelism: workers})
		measure = func(ctx context.Context, _ span, req gpuperf.Request) (*gpuperf.Measurement, error) {
			return f.Measure(ctx, req)
		}
	}
	b.drive(ctx, []generator{newPassGen(names, b.cfg.seed, false)}, exec, n, minPasses*n, n, passTail)
	b.measureAccuracy(ctx, prefixResults(b.prefix[0]), measure)
	if !b.cfg.trace {
		return nil
	}
	b.replayUntraced(ctx, []generator{newPassGen(names, b.cfg.seed, false)}, exec, n)
	b.probe(ctx, p, cal, dir)
	return nil
}

// Serve-mix request blocks: of every serveBlock requests a client
// sends, serveRepeats repeat a tuple served during set-up, one is a
// kernel submission, and the rest are new tuples. A cycle is the
// serveCycle requests over which a client's new tuples visit every
// (geometry, analyze|advise) pair once; clients stop at cycle
// boundaries, so every run times the same mix of miss costs.
const (
	serveBlock   = 16
	serveRepeats = 12
	serveClients = 2
	serveCycle   = 128 // 2 kinds × 12 geometries / 3 new tuples per block × serveBlock
	// servePrefix is how many requests per client outputs_sha256 covers.
	servePrefix = 32
)

// serveGeoms are serve-mix's launch geometries: every registry kernel
// at its default size, plus matmul16 and matmul32 at n=512 without
// their O(n³) CPU reference.
func serveGeoms(names []string) []gpuperf.Request {
	var g []gpuperf.Request
	for _, n := range names {
		g = append(g, gpuperf.Request{Kernel: n})
	}
	return append(g,
		gpuperf.Request{Kernel: "matmul16", Size: 512, SkipVerify: true},
		gpuperf.Request{Kernel: "matmul32", Size: 512, SkipVerify: true})
}

// serveGen yields one serve-mix client's requests.
type serveGen struct {
	rng    *rand.Rand
	client int
	geoms  []gpuperf.Request
	warm   []op // analyze and advise tuples served during set-up
	block  []string
	fresh  int
}

func (g *serveGen) seed() int64 { return g.rng.Int63n(1<<40) + 2 }

func (g *serveGen) next() op {
	if len(g.block) == 0 {
		g.block = make([]string, serveBlock)
		for i := range g.block {
			switch {
			case i < serveRepeats:
				g.block[i] = "repeat"
			case i < serveBlock-1:
				g.block[i] = "new"
			default:
				g.block[i] = opWrite
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	slot := g.block[0]
	g.block = g.block[1:]
	switch slot {
	case "repeat":
		return g.warm[g.rng.Intn(len(g.warm))]
	case opWrite:
		return op{kind: opWrite, client: g.client, req: gpuperf.Request{Seed: g.seed()}}
	}
	// New tuples cycle through the geometries, alternating analyze and
	// advise, so every seed sees the same mix of miss costs.
	i := g.fresh
	g.fresh++
	req := g.geoms[(i/2)%len(g.geoms)]
	req.Seed = g.seed()
	if i%2 == 1 {
		return op{kind: opAdvise, req: req}
	}
	return op{kind: opAnalyze, req: req}
}

// serveSetup returns the tuples set-up serves: analyze and advise of
// every geometry at one seed, then one submission.
func serveSetup(geoms []gpuperf.Request, seed int64) (warm []op, write op) {
	for _, g := range geoms {
		g.Seed = seed
		warm = append(warm, op{kind: opAnalyze, req: g}, op{kind: opAdvise, req: g})
	}
	return warm, op{kind: opWrite, req: gpuperf.Request{Seed: seed}}
}

func newServeGens(seed int64, geoms []gpuperf.Request, warm []op) []generator {
	gens := make([]generator, serveClients)
	for c := range gens {
		gens[c] = &serveGen{
			rng:    rand.New(rand.NewSource(seed*serveClients + int64(c))),
			client: c,
			geoms:  geoms,
			warm:   warm,
			fresh:  c * len(geoms),
		}
	}
	return gens
}

// server drives a fleet through its in-process HTTP handler.
type server struct {
	b    *bench
	f    *gpuperf.Fleet
	h    http.Handler
	p    *pipeline
	cal  *timing.Calibration
	warm map[string]bool
}

func newServer(b *bench, f *gpuperf.Fleet) *server {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	return &server{b: b, f: f, h: gpuperf.NewObservedHandler(f, gpuperf.Telemetry{Logger: discard})}
}

// call serves one request through ServeHTTP inside an "http" span.
func (s *server) call(ctx context.Context, sp span, method, path string, body any) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, "", nil, err
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequestWithContext(ctx, method, path, rd)
	rec := httptest.NewRecorder()
	hs := s.b.tr.child(sp, "http")
	s.h.ServeHTTP(rec, req)
	d := s.b.tr.end(hs)
	xcache := rec.Header().Get("X-Cache")
	if rec.Code/100 != 2 {
		s.b.tr.add("http.non2xx", 1)
		return rec.Code, xcache, nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if xcache == string(gpuperf.CacheHit) {
		s.b.tr.sample("http.hit_s", d)
	}
	return rec.Code, xcache, rec.Body.Bytes(), nil
}

// viaHTTP serves an analyze or advise op through the handler.
func (s *server) viaHTTP(ctx context.Context, sp span, o op) (output, error) {
	_, xcache, body, err := s.call(ctx, sp, http.MethodPost, "/v1/"+o.kind, o.req)
	if err != nil {
		return output{}, err
	}
	return output{body: body, kind: o.kind, bodyKey: op{kind: o.kind, req: o.req}.key(), xcache: xcache}, nil
}

// submission is the tree reduction of the end-to-end smoke test: 4
// CTAs of 64 threads, each summing 64 floats into out[ctaid]. Buffer
// names carry the client index, so the two clients' submissions have
// distinct ids and one client's DELETE never races the other's
// analysis.
func submission(client int) gpuperf.KernelSubmission {
	var src strings.Builder
	src.WriteString(".kernel reduce64\n.regs 13\n.smem 256\n")
	src.WriteString("s2r r0, %tid\ns2r r1, %ctaid\ns2r r2, %ntid\nimad r3, r1, r2, r0\n")
	src.WriteString("shl r4, r3, 2\ngld r5, r4\nshl r6, r0, 2\nsst r6, r5\nbar.sync\n")
	for _, stride := range []int{32, 16, 8, 4, 2, 1} {
		fmt.Fprintf(&src, "isetp.lt p0, r0, %d\n@p0 iadd r7, r0, %d\n@p0 shl r7, r7, 2\n", stride, stride)
		src.WriteString("@p0 sld r8, r7\n@p0 sld r9, r6\n@p0 fadd r9, r9, r8\n@p0 sst r6, r9\nbar.sync\n")
	}
	src.WriteString("isetp.eq p1, r0, 0\nmov r10, 0\n@p1 sld r11, r10\n")
	src.WriteString("@p1 shl r12, r1, 2\n@p1 iadd r12, r12, 1024\n@p1 gst r12, r11\nexit\n")
	return gpuperf.KernelSubmission{
		Label:  "tree-reduction",
		Source: src.String(),
		Grid:   4,
		Block:  64,
		Buffers: []gpuperf.BufferSpec{
			{Name: fmt.Sprintf("in%d", client), Elem: "f32", Count: 256, Fill: "random"},
			{Name: fmt.Sprintf("out%d", client), Elem: "f32", Count: 4, Fill: "zeros"},
		},
	}
}

// writeHTTP submits the tree reduction, analyzes it and deletes it,
// all through the handler.
func (s *server) writeHTTP(ctx context.Context, sp span, o op) (output, error) {
	_, _, body, err := s.call(ctx, sp, http.MethodPost, "/v1/kernels", submission(o.client))
	if err != nil {
		return output{}, err
	}
	var rec gpuperf.SubmissionReceipt
	if err := json.Unmarshal(body, &rec); err != nil {
		return output{}, err
	}
	out, err := s.viaHTTP(ctx, sp, op{kind: opAnalyze, req: gpuperf.Request{Kernel: rec.ID, Seed: o.req.Seed}})
	if err != nil {
		return output{}, err
	}
	out.bodyKey = "" // a fresh seed: never served before, never repeated
	_, _, _, err = s.call(ctx, sp, http.MethodDelete, "/v1/kernels/"+rec.ID, nil)
	return out, err
}

// writeDirect is writeHTTP with the layers called directly:
// SubmitKernel and DeleteKernel inside "ingest" spans and the analysis
// through the pipeline.
func (s *server) writeDirect(ctx context.Context, sp span, o op) (output, error) {
	is := s.b.tr.child(sp, "ingest")
	rec, err := s.f.SubmitKernel(submission(o.client))
	s.b.tr.sample("ingest.submit_s", s.b.tr.end(is))
	if err != nil {
		s.b.tr.add("ingest.rejected", 1)
		return output{}, err
	}
	s.b.tr.add("ingest.accepted", 1)
	res, err := s.p.analyze(ctx, sp, s.cal, gpuperf.Request{Kernel: rec.ID, Seed: o.req.Seed})
	if err != nil {
		return output{}, err
	}
	if err := s.b.tr.do(sp, "ingest", func() error { return s.f.DeleteKernel(rec.ID) }); err != nil {
		return output{}, err
	}
	return output{val: res}, nil
}

// facade serves every op through the handler.
func (s *server) facade(ctx context.Context, sp span, o op) (output, error) {
	if o.kind == opWrite {
		return s.writeHTTP(ctx, sp, o)
	}
	return s.viaHTTP(ctx, sp, o)
}

// traced serves repeats of set-up tuples through the handler, which
// answers them from the result cache, and computes every other op
// layer by layer.
func (s *server) traced(ctx context.Context, sp span, o op) (output, error) {
	switch {
	case o.kind == opWrite:
		return s.writeDirect(ctx, sp, o)
	case s.warm[o.key()]:
		return s.viaHTTP(ctx, sp, o)
	case o.kind == opAdvise:
		adv, err := s.p.advise(ctx, sp, s.cal, o.req)
		return output{val: adv}, err
	default:
		res, err := s.p.analyze(ctx, sp, s.cal, o.req)
		return output{val: res}, err
	}
}

// serveMix: two closed-loop clients calling ServeHTTP in process on
// NewObservedHandler, over a Fleet with the in-memory result cache.
func serveMix(ctx context.Context, b *bench) error {
	names, err := b.prepare()
	if err != nil {
		return err
	}
	geoms := serveGeoms(names)
	warmSeed := rand.New(rand.NewSource(b.cfg.seed)).Int63n(1<<40) + 2
	warmOps, warmWrite := serveSetup(geoms, warmSeed)
	setupOps := append(append([]op(nil), warmOps...), warmWrite)

	var s *server
	var exec execFunc
	var setupOuts []output
	var measure func(context.Context, span, gpuperf.Request) (*gpuperf.Measurement, error)
	var dir string
	if b.cfg.trace {
		// Warm the pipeline's calibration first and persist it, global
		// benchmarks included, so the fleet loads them instead of
		// running every benchmark a second time.
		var cal *timing.Calibration
		if cal, dir, err = b.calibrate(); err != nil {
			return err
		}
		p := &pipeline{dev: b.dev, reg: gpuperf.DefaultRegistry(), tr: b.tr}
		direct := &server{b: b, p: p, cal: cal}
		b.warm(ctx, direct.traced, warmOps)
		if err := cal.SaveCachedCalibration(dir); err != nil {
			return err
		}
		f := gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: dir, Parallelism: workers})
		p.reg = f.Registry()
		s = newServer(b, f)
		s.p, s.cal = p, cal
		setupOuts = b.warm(ctx, s.facade, setupOps)
		b.do(ctx, s.traced, warmWrite)
		exec, measure = s.traced, p.measure
	} else {
		if err := b.setup(func(r int) error {
			// Each round's fleet serves its own first responses, which
			// its cache hits must then repeat byte for byte.
			b.chk.forgetBodies()
			s = newServer(b, gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: b.calDir(fmt.Sprint("cal", r)), Parallelism: workers}))
			setupOuts = b.warm(ctx, s.facade, setupOps)
			return nil
		}); err != nil {
			return err
		}
		exec = s.facade
		measure = func(ctx context.Context, _ span, req gpuperf.Request) (*gpuperf.Measurement, error) {
			return s.f.Measure(ctx, req)
		}
	}
	s.warm = map[string]bool{}
	for _, o := range warmOps {
		s.warm[o.key()] = true
	}

	before := s.f.CacheStats()
	b.drive(ctx, newServeGens(b.cfg.seed, geoms, warmOps), exec, serveCycle, minCycles*serveCycle, servePrefix, serveTail)
	after := s.f.CacheStats()
	b.store = gpuperf.CacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Coalesced: after.Coalesced - before.Coalesced,
		Evictions: after.Evictions - before.Evictions,
	}

	// Accuracy covers the set-up analyses at default sizes: timing
	// matmul at n=512 on the device simulator would dominate the run.
	var results []*gpuperf.Result
	for i, o := range warmOps {
		if o.kind == opAnalyze && o.req.Size == 0 {
			results = append(results, setupOuts[i].result())
		}
	}
	b.measureAccuracy(ctx, results, measure)
	if !b.cfg.trace {
		return nil
	}
	b.replayUntraced(ctx, newServeGens(b.cfg.seed, geoms, warmOps), exec, servePrefix)
	b.probe(ctx, s.p, s.cal, dir)
	return nil
}

// probeKernel is the registry kernel with the cheapest device run.
const probeKernel = "spmv-bell-imiv"

// probe runs, once, each layer the timed phase did not reach, so every
// traced record measures every layer: a calibration load, a device
// run, an advisor run, and a submission analyzed twice through the
// handler (MISS, then HIT) on a fleet of its own. The probe fleet's
// result-cache counters stand in when the workload serves no fleet.
func (b *bench) probe(ctx context.Context, p *pipeline, cal *timing.Calibration, dir string) {
	b.tr.setPhase(phaseProbe)
	seen := b.tr.layers(phaseTimed)
	req := gpuperf.Request{Kernel: probeKernel}
	exec := func(ctx context.Context, sp span, o op) (output, error) {
		if seen["timing.load"].calls == 0 {
			if err := b.tr.do(sp, "timing.load", func() error {
				if _, ok := timing.LoadCachedCalibration(dir, b.dev); !ok {
					return errors.New("calibration directory holds no valid entry")
				}
				return nil
			}); err != nil {
				return output{}, err
			}
		}
		if seen["device"].calls == 0 {
			if _, err := p.measure(ctx, sp, req); err != nil {
				return output{}, err
			}
		}
		if seen["advise"].calls == 0 {
			if _, err := p.advise(ctx, sp, cal, req); err != nil {
				return output{}, err
			}
		}
		if seen["http"].calls > 0 && seen["ingest"].calls > 0 {
			return output{}, nil
		}
		f := gpuperf.NewFleet(gpuperf.FleetOptions{CalibrationDir: dir, Parallelism: workers})
		s := newServer(b, f)
		before := f.CacheStats()
		is := b.tr.child(sp, "ingest")
		rec, err := f.SubmitKernel(submission(0))
		b.tr.sample("ingest.submit_s", b.tr.end(is))
		if err != nil {
			b.tr.add("ingest.rejected", 1)
			return output{}, err
		}
		b.tr.add("ingest.accepted", 1)
		for i := 0; i < 2; i++ {
			if _, err := s.viaHTTP(ctx, sp, op{kind: opAnalyze, req: gpuperf.Request{Kernel: rec.ID}}); err != nil {
				return output{}, err
			}
		}
		if _, _, _, err := s.call(ctx, sp, http.MethodDelete, "/v1/kernels/"+rec.ID, nil); err != nil {
			return output{}, err
		}
		after := f.CacheStats()
		b.store = gpuperf.CacheStats{
			Hits:      after.Hits - before.Hits,
			Misses:    after.Misses - before.Misses,
			Coalesced: after.Coalesced - before.Coalesced,
			Evictions: after.Evictions - before.Evictions,
		}
		return output{}, nil
	}
	b.do(ctx, exec, op{kind: "probe"})
}
