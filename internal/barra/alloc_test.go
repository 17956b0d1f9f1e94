package barra

// Allocation-regression tests: steady-state block execution — the
// per-instruction data path through Warp.Step, the bank and coalesce
// simulators, half-warp gathering and stats collection — must not
// allocate. A future PR that reintroduces hot-path garbage (a fresh
// slice per access, a copied instruction per step) fails here long
// before it shows up on a profile.

import (
	"testing"
	"time"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
	"gpuperf/internal/obs"
)

// allocProbeKernel touches every hot path: ALU work, a divergent
// forward branch, shared stores/loads (with bank conflicts via the
// ×2 stride), a shared ALU operand, a barrier, and strided global
// loads/stores (imperfect coalescing).
func allocProbeKernel() *isa.Program {
	b := kbuild.New("alloc-probe")
	b.SharedBytes(4096)
	tid, flat, ntid, cta := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	saddr, v, gaddr, acc := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)

	// Divergent forward branch: odd lanes skip one add.
	b.AndImm(v, tid, 1)
	b.ISetpImm(isa.P0, isa.CmpNE, v, 0)
	br := b.BraIf(isa.P0, false)
	b.IAddImm(tid, tid, 0) // fall-through work for even lanes
	b.SetTarget(br, b.Pos())

	// Shared store/load at a conflicted ×2 word stride.
	b.ShlImm(saddr, tid, 3)
	b.Sst(saddr, tid)
	b.Bar()
	b.Sld(v, saddr)

	// Shared ALU operand (broadcast read of s[0]).
	b.FMadS(acc, v, 0, v)

	// Global round trip at a 2-word lane stride: two 128 B segments
	// per half-warp, so the coalescer forms multiple transactions.
	b.ShlImm(gaddr, flat, 3)
	b.Gld(acc, gaddr)
	b.Gst(gaddr, v)
	b.Exit()
	return b.MustProgram()
}

// newAllocCtx assembles a runContext the way Run does.
func newAllocCtx(t testing.TB) (*runContext, Launch) {
	t.Helper()
	c := cfg()
	prog := allocProbeKernel()
	l := Launch{Prog: prog, Grid: 4, Block: 128}
	if err := l.Validate(c); err != nil {
		t.Fatal(err)
	}
	bsim, err := bank.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	csim, err := coalesce.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	segs := []int{c.MinSegmentBytes}
	ctx := &runContext{
		cfg:      c,
		launch:   l,
		mem:      NewMemory(1 << 20),
		banks:    bsim,
		coal:     []*coalesce.Sim{csim},
		segs:     segs,
		stats:    newStatsCollector(l, nil, segs),
		maxInstr: 1 << 40,
	}
	ctx.budget.Store(ctx.maxInstr)
	return ctx, l
}

// runBlockInto runs block 0 on w, recording into bs. Reusing one
// shard across calls lets its counters accumulate; only allocations
// are measured.
func runBlockInto(t testing.TB, w *worker, bs *blockStats) {
	if _, err := w.runBlock(0, bs); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateZeroAllocs: re-running a block on a warmed worker
// into an existing stats shard performs zero heap allocations — the
// engine's per-instruction path (step, masks, bank conflicts,
// coalescing, hookless recording, stats accumulation) is
// allocation-free.
func TestSteadyStateZeroAllocs(t *testing.T) {
	ctx, _ := newAllocCtx(t)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	runBlockInto(t, w, bs) // warm-up: builds arenas and the shard's stages
	avg := testing.AllocsPerRun(50, func() { runBlockInto(t, w, bs) })
	if avg != 0 {
		t.Fatalf("steady-state block execution allocates %.1f times per block; want 0", avg)
	}
}

// TestSteadyStateCollectorAllocs: with each block's stats shard
// taken from the pool and folded into the run totals by merge (which
// recycles it, as Run's steady state across launches does), execution
// stays allocation-free up to pool jitter.
func TestSteadyStateCollectorAllocs(t *testing.T) {
	ctx, _ := newAllocCtx(t)
	w := &worker{ctx: ctx}
	runMerged := func() {
		bs := ctx.stats.shard()
		nb, err := w.runBlock(0, bs)
		if err != nil {
			t.Fatal(err)
		}
		ctx.stats.merge(0, bs, nb)
	}
	runMerged() // seeds the shard pool
	avg := testing.AllocsPerRun(50, runMerged)
	// sync.Pool may shed its cache across a GC cycle; allow one stray
	// refill but nothing per-step.
	if avg > 1 {
		t.Fatalf("steady-state execution with pooled stats sink allocates %.1f times per block; want ~0", avg)
	}
}

// TestSteadyStateZeroAllocsWithMetrics: the telemetry the service
// layer hangs off the engine seam — an obs counter bumped and a
// latency histogram observed per block — must not reintroduce
// hot-path garbage. This pins "metrics enabled" to the same zero
// allocations per block as the bare engine.
func TestSteadyStateZeroAllocsWithMetrics(t *testing.T) {
	ctx, _ := newAllocCtx(t)
	w := &worker{ctx: ctx}
	bs := ctx.stats.shard()
	runBlockInto(t, w, bs) // warm-up: builds arenas and the shard's stages
	reg := obs.NewRegistry()
	blocks := reg.NewCounter("test_blocks_total", "")
	lat := reg.NewHistogram("test_block_seconds", "", obs.DefLatencyBuckets)
	avg := testing.AllocsPerRun(50, func() {
		start := time.Now()
		runBlockInto(t, w, bs)
		blocks.Inc()
		lat.Observe(time.Since(start).Seconds())
	})
	if avg != 0 {
		t.Fatalf("block execution with metrics allocates %.1f times per block; want 0", avg)
	}
}
