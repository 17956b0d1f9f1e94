// Package device is the cycle-approximate timing simulator — this
// reproduction's stand-in for the physical GTX 285. Every experiment's
// "measured" number comes from here.
//
// The simulator executes kernels functionally (through the barra
// warp executor, so memory addresses and control flow are real) and
// attaches timing through a small set of structural mechanisms, each
// of which corresponds to a phenomenon the paper's model captures:
//
//   - per-SM functional-unit servers per instruction class, with
//     occupancy warpSize/units(class) shader cycles per warp
//     instruction → the four Table 1 throughput tiers;
//   - a register scoreboard plus class-dependent pipeline latency →
//     throughput that climbs with warp count and saturates around 6
//     warps for Type II instructions (paper Fig. 2 left);
//   - a per-SM shared-memory pipeline whose occupancy scales with
//     the serialized (bank-conflict) transaction count and whose
//     latency exceeds the ALU's → Fig. 2 right and the cyclic-
//     reduction slowdown;
//   - per-cluster global-memory pipelines (3 SMs share one) with a
//     fixed round-trip latency and a bandwidth-limited service rate
//     → Fig. 3's saturation curve and its period-10 sawtooth;
//   - block dispatch onto SMs constrained by occupancy, with
//     round-robin initial placement and refill on completion.
package device

import (
	"container/heap"
	"context"
	"fmt"

	"gpuperf/internal/bank"
	"gpuperf/internal/barra"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/occupancy"
)

// Result is the outcome of a timed run.
type Result struct {
	// Cycles is the total execution time in shader cycles; Seconds
	// converts by the core clock.
	Cycles  float64
	Seconds float64

	// WarpInstrs is the number of warp instructions issued, split
	// by class in ByClass.
	WarpInstrs int64
	ByClass    [isa.NumClasses]int64

	// SharedBytes / GlobalBytes are the bytes moved (global at the
	// device's transaction granularity, i.e. including coalescing
	// overfetch).
	SharedBytes int64
	GlobalBytes int64
	// GlobalTransactions is the hardware transaction count.
	GlobalTransactions int64

	// BusyInstr, BusyShared, BusyGlobal are server busy-cycle sums
	// (across SMs / clusters), used to identify the observed
	// dominant component. NumSMs/NumClusters record the server
	// counts needed to normalize them into utilizations.
	BusyInstr   float64
	BusyShared  float64
	BusyGlobal  float64
	NumSMs      int
	NumClusters int

	// Occupancy echoes the resident-block computation used for
	// dispatch.
	Occupancy occupancy.Result
}

// InstrThroughput returns achieved warp-instructions per second.
func (r Result) InstrThroughput() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.WarpInstrs) / r.Seconds
}

// SharedBandwidth returns achieved shared-memory bytes per second.
func (r Result) SharedBandwidth() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.SharedBytes) / r.Seconds
}

// GlobalBandwidth returns achieved global-memory bytes per second
// (useful + overfetch, as a bandwidth benchmark measures).
func (r Result) GlobalBandwidth() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.GlobalBytes) / r.Seconds
}

// DominantComponent names the component whose servers were busiest
// — "instruction", "shared" or "global" — normalizing each busy sum
// by its server count (30 SMs vs 10 memory clusters on the GTX 285).
func (r Result) DominantComponent() string {
	sms, clus := r.NumSMs, r.NumClusters
	if sms == 0 {
		sms = 1
	}
	if clus == 0 {
		clus = 1
	}
	instr := r.BusyInstr / float64(sms)
	shared := r.BusyShared / float64(sms)
	global := r.BusyGlobal / float64(clus)
	switch {
	case global >= instr && global >= shared:
		return "global"
	case shared >= instr:
		return "shared"
	default:
		return "instruction"
	}
}

// event is one pending simulation action.
type event struct {
	t    float64
	seq  int64 // tie-break for determinism
	warp *simWarp
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

// Less orders by time, then by warp progress (fewest instructions
// issued first — the hardware's fair round-robin selection; without
// this, greedy ordering forms convoys that leave issue slots idle),
// then by insertion order for determinism. A warp's issued count is
// stable while its single outstanding event is queued, so the heap
// key never mutates in place.
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	if q[i].warp.issued != q[j].warp.issued {
		return q[i].warp.issued < q[j].warp.issued
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// simWarp wraps a functional warp with scoreboard state.
type simWarp struct {
	fw    *barra.Warp
	block *simBlock

	regReady  []float64 // per architectural register
	predReady [isa.NumPreds]float64
	nextIssue float64 // in-order issue constraint
	smemReady float64 // no intra-warp shared-memory pipelining: the
	// GT200's small in-warp instruction window means a warp's next
	// shared-memory access waits for the previous one's completion
	// (paper §4.1: latency hiding is inter-warp). Global memory is
	// exempt — its memory-level parallelism is real (paper Fig. 3's
	// transactions-per-thread axis).
	issued int64 // instructions issued (scheduler fairness key)

	waiting bool // parked at a barrier
	done    bool
}

type simBlock struct {
	sm        *simSM
	warps     []*simWarp
	atBarrier int
	live      int
}

type simSM struct {
	id       int
	unitFree [isa.NumClasses]float64
	smemFree float64
	cluster  *simCluster
	resident int // live blocks
	slots    int
}

type simCluster struct {
	free float64
}

type sim struct {
	cfg     gpu.Config
	launch  barra.Launch
	mem     *barra.Memory
	banks   *bank.Sim
	coal    *coalesce.Sim
	sms     []*simSM
	clus    []*simCluster
	queue   eventQueue
	seq     int64
	nextBlk int
	res     Result
	info    barra.StepInfo
	txBuf   []coalesce.Transaction // reusable coalescer output

	occ          [isa.NumClasses]float64 // issue occupancy per class
	lat          [isa.NumClasses]float64 // result latency per class
	smemTxCycles float64
	smemLat      float64
	gmemRate     float64 // bytes per cycle per cluster
	gmemLat      float64

	budget int64
	issued int64
}

// Run executes the launch with timing and returns the result.
func Run(cfg gpu.Config, l barra.Launch, mem *barra.Memory) (Result, error) {
	return RunContext(context.Background(), cfg, l, mem)
}

// RunContext is Run with cancellation: the event loop observes ctx
// every few thousand events, so a service can abort a long timing
// simulation promptly.
func RunContext(ctx context.Context, cfg gpu.Config, l barra.Launch, mem *barra.Memory) (Result, error) {
	return runBudget(ctx, cfg, l, mem, 0)
}

// runBudget is RunContext with an instruction budget (0 = default
// 4e9) guarding against runaway kernels.
func runBudget(ctx context.Context, cfg gpu.Config, l barra.Launch, mem *barra.Memory, budget int64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(cfg); err != nil {
		return Result{}, err
	}
	if mem == nil {
		return Result{}, fmt.Errorf("device: nil memory")
	}
	occRes, err := occupancy.Compute(cfg, occupancy.Usage{
		ThreadsPerBlock:   l.Block,
		RegsPerThread:     l.Prog.RegsPerThread,
		SharedMemPerBlock: l.Prog.SharedMemBytes,
	})
	if err != nil {
		return Result{}, err
	}
	bsim, err := bank.ForGPU(cfg)
	if err != nil {
		return Result{}, err
	}
	csim, err := coalesce.ForGPU(cfg)
	if err != nil {
		return Result{}, err
	}

	s := &sim{
		cfg: cfg, launch: l, mem: mem, banks: bsim, coal: csim,
		budget: budget,
		txBuf:  make([]coalesce.Transaction, 0, gpu.HalfWarp),
	}
	if s.budget <= 0 {
		s.budget = 4e9
	}
	s.res.Occupancy = occRes
	s.res.NumSMs = cfg.NumSMs
	s.res.NumClusters = cfg.NumClusters()

	// Pipeline latency is (approximately) the same wall-clock depth
	// for every class, so classes with fewer units — longer issue
	// occupancy — need fewer warps to cover it: Type IV saturates
	// with 1 warp, Type III around 3, Types I/II around 6-8
	// (paper Fig. 2 left).
	alatency := float64(cfg.ALUPipelineDepth) * float64(gpu.WarpSize) / float64(cfg.SPsPerSM)
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		s.occ[c] = float64(gpu.WarpSize) / float64(c.Units())
		s.lat[c] = alatency
	}
	// One half-warp shared-memory transaction per 2 cycles sustains
	// the 8 SP × 4 B/cycle peak.
	s.smemTxCycles = 2
	s.smemLat = float64(cfg.SharedPipelineDepth) * 4
	s.gmemRate = cfg.PeakGlobalBandwidth() / float64(cfg.NumClusters()) / cfg.CoreClockHz
	s.gmemLat = float64(cfg.GlobalLatencyCycles)

	// Build SMs and clusters.
	s.clus = make([]*simCluster, cfg.NumClusters())
	for i := range s.clus {
		s.clus[i] = &simCluster{}
	}
	s.sms = make([]*simSM, cfg.NumSMs)
	for i := range s.sms {
		s.sms[i] = &simSM{id: i, cluster: s.clus[i/cfg.SMsPerCluster], slots: occRes.Blocks}
	}

	// Initial dispatch: round-robin waves across SMs, up to each
	// SM's resident-block slots.
	for wave := 0; wave < occRes.Blocks; wave++ {
		for _, sm := range s.sms {
			if s.nextBlk >= l.Grid {
				break
			}
			if err := s.startBlock(sm, 0); err != nil {
				return Result{}, err
			}
		}
	}

	// Main loop. The cancellation check amortizes over a batch of
	// events to stay off the per-event path.
	const ctxCheckEvery = 8192
	for n := 0; s.queue.Len() > 0; n++ {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		e := heap.Pop(&s.queue).(event)
		if e.warp.done || e.warp.waiting {
			continue
		}
		if err := s.stepWarp(e.warp, e.t); err != nil {
			return Result{}, err
		}
	}

	s.res.Seconds = s.res.Cycles / cfg.CoreClockHz
	return s.res, nil
}

func (s *sim) startBlock(sm *simSM, t float64) error {
	l := s.launch
	blockID := s.nextBlk
	s.nextBlk++
	nw := l.WarpsPerBlock()
	shared := make([]uint32, l.Prog.SharedMemBytes/4)
	blk := &simBlock{sm: sm, live: nw}
	for wi := 0; wi < nw; wi++ {
		lanes := l.Block - wi*gpu.WarpSize
		if lanes > gpu.WarpSize {
			lanes = gpu.WarpSize
		}
		fw, err := barra.NewWarp(l.Prog, blockID, wi, l.Block, l.Grid, lanes, shared, s.mem)
		if err != nil {
			return err
		}
		w := &simWarp{
			fw:       fw,
			block:    blk,
			regReady: make([]float64, l.Prog.RegsPerThread),
		}
		blk.warps = append(blk.warps, w)
		s.schedule(w, t)
	}
	sm.resident++
	return nil
}

func (s *sim) schedule(w *simWarp, t float64) {
	s.seq++
	heap.Push(&s.queue, event{t: t, seq: s.seq, warp: w})
}

func touchesShared(in *isa.Instruction) bool {
	if isa.IsShared(in.Op) {
		return true
	}
	return in.SrcA.Kind == isa.KindSmem || in.SrcB.Kind == isa.KindSmem || in.SrcC.Kind == isa.KindSmem
}

// depsReady returns the earliest cycle the instruction at the warp's
// PC may issue, considering the in-order constraint, source
// registers, the guard predicate, and the one-outstanding-access
// shared-memory constraint.
func (s *sim) depsReady(w *simWarp, in *isa.Instruction) float64 {
	t := w.nextIssue
	if touchesShared(in) && w.smemReady > t {
		t = w.smemReady
	}
	consider := func(o isa.Operand) {
		if o.Kind != isa.KindReg {
			return
		}
		if r := w.regReady[o.Reg]; r > t {
			t = r
		}
		if isa.IsDouble(in.Op) && int(o.Reg)+1 < len(w.regReady) {
			if r := w.regReady[o.Reg+1]; r > t {
				t = r
			}
		}
	}
	consider(in.SrcA)
	consider(in.SrcB)
	consider(in.SrcC)
	if in.Guard != isa.PT {
		if r := w.predReady[in.Guard]; r > t {
			t = r
		}
	}
	return t
}

func (s *sim) stepWarp(w *simWarp, now float64) error {
	if s.issued >= s.budget {
		return fmt.Errorf("device: instruction budget exhausted (%d) — runaway kernel %q?",
			s.budget, s.launch.Prog.Name)
	}
	pc := w.fw.PC()
	in := &s.launch.Prog.Code[pc]
	class := isa.ClassOf(in.Op)
	sm := w.block.sm

	// Dependency and server availability; reschedule if not yet.
	ready := s.depsReady(w, in)
	if ready > now {
		s.schedule(w, ready)
		return nil
	}
	if free := sm.unitFree[class]; free > now {
		s.schedule(w, free)
		return nil
	}

	// Issue: execute functionally.
	if err := w.fw.Step(&s.info); err != nil {
		return err
	}
	s.issued++
	w.issued++
	info := &s.info
	t := now
	occ := s.occ[class]
	sm.unitFree[class] = t + occ
	w.nextIssue = t + occ
	s.res.WarpInstrs++
	s.res.ByClass[class]++
	s.res.BusyInstr += occ
	if end := t + occ; end > s.res.Cycles {
		s.res.Cycles = end
	}

	switch {
	case info.Barrier:
		return s.arriveBarrier(w, t+occ)
	case info.Done:
		return s.warpExit(w, t+occ)
	case isa.IsShared(in.Op):
		s.timeShared(w, in, info, t)
	case isa.IsGlobal(in.Op):
		s.timeGlobal(w, in, info, t)
	default:
		done := t + s.lat[class]
		if info.SmemOperand {
			// The shared-memory ALU operand occupies the shared
			// pipeline for one broadcast transaction per active
			// half-warp and adds its latency to the result.
			sm := w.block.sm
			halves := 0
			for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
				if info.HalfMask(half) != 0 {
					halves++
				}
			}
			start := max(t, sm.smemFree)
			busy := s.smemTxCycles * float64(halves)
			sm.smemFree = start + busy
			s.res.BusyShared += busy
			s.res.SharedBytes += int64(halves) * 4
			if d := start + busy + s.smemLat; d > done {
				done = d
			}
			w.smemReady = start + busy + s.smemLat
		}
		if isa.HasDst(in.Op) {
			w.regReady[in.Dst] = done
			if isa.IsDouble(in.Op) {
				w.regReady[in.Dst+1] = done
			}
		} else if isa.WritesPredicate(in.Op) {
			w.predReady[in.PDst] = t + s.lat[class]
		}
	}

	if !w.fw.Done() {
		s.schedule(w, w.nextIssue)
	}
	return nil
}

// timeShared serializes the access's bank transactions through the
// SM's shared-memory pipeline.
func (s *sim) timeShared(w *simWarp, in *isa.Instruction, info *barra.StepInfo, t float64) {
	sm := w.block.sm
	totalTx, halves := 0, 0
	var buf [gpu.HalfWarp]uint32
	for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
		addrs := info.GatherHalf(half, &buf)
		if len(addrs) > 0 {
			totalTx += s.banks.Transactions(addrs)
			halves++
		}
	}
	if totalTx == 0 {
		return
	}
	start := max(t, sm.smemFree)
	busy := s.smemTxCycles * float64(totalTx)
	sm.smemFree = start + busy
	s.res.BusyShared += busy
	s.res.SharedBytes += int64(info.ActiveCount) * 4
	// Bank-conflict replays re-traverse the shared-memory pipeline
	// sequentially from the warp's point of view: a k-way conflicted
	// access costs the warp k pipeline passes, which is why the
	// paper's cyclic reduction loses a full factor per conflict
	// doubling. The SM-level server above still charges only the
	// bandwidth (2 cycles/transaction).
	degree := float64(totalTx) / float64(halves)
	done := start + busy + s.smemLat*degree
	w.smemReady = done
	if in.Op == isa.OpSLD {
		w.regReady[in.Dst] = done
	}
	if done > s.res.Cycles {
		s.res.Cycles = done
	}
}

// timeGlobal pushes the access's coalesced transactions through the
// SM's cluster memory pipeline.
func (s *sim) timeGlobal(w *simWarp, in *isa.Instruction, info *barra.StepInfo, t float64) {
	cl := w.block.sm.cluster
	var lastDone float64
	var buf [gpu.HalfWarp]uint32
	for half := 0; half < gpu.WarpSize/gpu.HalfWarp; half++ {
		addrs := info.GatherHalf(half, &buf)
		if len(addrs) == 0 {
			continue
		}
		s.txBuf = s.coal.HalfWarpInto(s.txBuf[:0], addrs, 4)
		for _, tx := range s.txBuf {
			start := max(t, cl.free)
			busy := float64(tx.Size) / s.gmemRate
			cl.free = start + busy
			s.res.BusyGlobal += busy
			s.res.GlobalBytes += int64(tx.Size)
			s.res.GlobalTransactions++
			if d := start + busy; d > lastDone {
				lastDone = d
			}
		}
	}
	if lastDone == 0 {
		return
	}
	done := lastDone + s.gmemLat
	if in.Op == isa.OpGLD {
		w.regReady[in.Dst] = done
	} else {
		// Stores retire without blocking the warp; account time for
		// the tail only.
		done = lastDone
	}
	if done > s.res.Cycles {
		s.res.Cycles = done
	}
}

func (s *sim) arriveBarrier(w *simWarp, t float64) error {
	blk := w.block
	w.waiting = true
	blk.atBarrier++
	if blk.atBarrier < blk.live {
		return nil
	}
	// Release: all waiting warps resume.
	blk.atBarrier = 0
	for _, ww := range blk.warps {
		if ww.done || !ww.waiting {
			continue
		}
		ww.waiting = false
		if ww.nextIssue < t {
			ww.nextIssue = t
		}
		s.schedule(ww, ww.nextIssue)
	}
	return nil
}

func (s *sim) warpExit(w *simWarp, t float64) error {
	blk := w.block
	w.done = true
	blk.live--
	if blk.atBarrier > 0 && blk.atBarrier >= blk.live {
		return fmt.Errorf("device: %q: warps wait at a barrier after others exited", s.launch.Prog.Name)
	}
	blockDone := blk.live == 0
	releaseSlot := blockDone
	if s.cfg.EarlyRelease && !blockDone {
		// Early release: a fresh block may start as soon as a
		// block's worth of warps has retired SM-wide. Approximate
		// by allowing refill when this block has fewer live warps
		// than a full block and a slot's worth have exited.
		exited := 0
		for _, ww := range blk.warps {
			if ww.done {
				exited++
			}
		}
		releaseSlot = exited == len(blk.warps)/2 && len(blk.warps) > 1
	}
	if blockDone {
		blk.sm.resident--
	}
	if releaseSlot && s.nextBlk < s.launch.Grid {
		return s.startBlock(blk.sm, t)
	}
	return nil
}

// Utilization returns the busy fraction of each component's servers
// over the run — the profiler-style view (per the paper's intro,
// profilers surface statistics; the model turns them into verdicts).
func (r Result) Utilization() (instr, shared, global float64) {
	if r.Cycles == 0 {
		return 0, 0, 0
	}
	sms, clus := r.NumSMs, r.NumClusters
	if sms == 0 {
		sms = 1
	}
	if clus == 0 {
		clus = 1
	}
	instr = r.BusyInstr / float64(sms) / r.Cycles
	shared = r.BusyShared / float64(sms) / r.Cycles
	global = r.BusyGlobal / float64(clus) / r.Cycles
	return instr, shared, global
}

// Report renders the run like a profiler summary.
func (r Result) Report() string {
	i, s, g := r.Utilization()
	return fmt.Sprintf(
		"time %.6g ms (%.0f cycles)\n"+
			"instructions: %d warp-level (%.3g instr/s)\n"+
			"shared traffic: %d B (%.3g GB/s)\n"+
			"global traffic: %d B in %d transactions (%.3g GB/s)\n"+
			"utilization: instruction %.0f%%, shared %.0f%%, global %.0f%% -> %s-dominated\n"+
			"occupancy: %s",
		r.Seconds*1e3, r.Cycles,
		r.WarpInstrs, r.InstrThroughput(),
		r.SharedBytes, r.SharedBandwidth()/1e9,
		r.GlobalBytes, r.GlobalTransactions, r.GlobalBandwidth()/1e9,
		i*100, s*100, g*100, r.DominantComponent(),
		r.Occupancy)
}
