package barra

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
)

// warpHalves is the number of half-warps per warp.
const warpHalves = gpu.WarpSize / gpu.HalfWarp

// budgetBatch is the instruction-budget reservation a worker takes
// from the shared pool at a time: large enough that the atomic
// compare-and-swap stays off the per-instruction path, small enough
// that a runaway kernel is caught within workers×budgetBatch
// instructions of the configured limit.
const budgetBatch = 8192

// runContext is the immutable state of one Run, shared read-only by
// every worker: launch, device, simulators (bank and coalesce are
// stateless), the stats accumulator, and the two pieces of
// cross-worker coordination — the block cursor and the shared
// instruction budget.
type runContext struct {
	// goCtx is the caller's cancellation context (nil when absent —
	// tests that assemble a runContext by hand run uncancellable).
	goCtx  context.Context
	cfg    gpu.Config
	launch Launch
	mem    *Memory
	banks  *bank.Sim
	coal   []*coalesce.Sim // parallel to segs
	segs   []int           // granularities; segs[0] is the device's native
	stats  *statsCollector

	// hook is Options.GlobalAccessHook; a hooked run has one worker,
	// which calls it inline.
	hook func(blockID int, load bool, addrs []uint32)

	// replay is the homogeneous-block replay machinery; non-nil iff
	// the run takes the engine path (no hook, replay not disabled —
	// see replay.go).
	replay *replayState

	// maxInstr is the per-run warp-instruction budget
	// (Options.MaxWarpInstructions); budget counts the unreserved
	// remainder, drawn down by workers in budgetBatch chunks.
	maxInstr int64
	budget   atomic.Int64

	// nextBlock hands out block IDs; failed aborts the other workers
	// once one has errored.
	nextBlock atomic.Int64
	failed    atomic.Bool
}

// reserveBudget draws up to budgetBatch instructions from the shared
// pool, returning 0 when the run's budget is exhausted.
func (ctx *runContext) reserveBudget() int64 {
	for {
		rem := ctx.budget.Load()
		if rem <= 0 {
			return 0
		}
		n := rem
		if n > budgetBatch {
			n = budgetBatch
		}
		if ctx.budget.CompareAndSwap(rem, rem-n) {
			return n
		}
	}
}

// errCancelled marks a worker stopped because a sibling failed first;
// the sibling's error is the one reported.
var errCancelled = fmt.Errorf("barra: run cancelled by another worker's failure")

// cancelled returns the caller context's error, or nil when no
// context was supplied or it is still live. Checked between blocks
// and at budget refills — off the per-instruction path.
func (ctx *runContext) cancelled() error {
	if ctx.goCtx == nil {
		return nil
	}
	return ctx.goCtx.Err()
}

// worker executes blocks one at a time on its own goroutine. All of
// its state — shared-memory arena, warp contexts, scheduling scratch,
// the StepTrace scratch — is reused from block to block, so
// steady-state execution allocates at most each block's stats shard,
// and that comes from blockStatsPool once earlier runs have merged.
type worker struct {
	ctx *runContext

	shared    []uint32 // shared-memory arena, zeroed per block
	warps     []*Warp  // reused via Reset
	atBarrier []bool
	workCount []int64

	info  StepInfo
	trace StepTrace
	// addrBuf gathers active-lane addresses per half-warp. txLists
	// backs the per-granularity transaction-list-of-lists handed to
	// trace.Global; txBufs holds one reusable transaction buffer per
	// (half-warp, granularity) pair, filled in place by
	// coalesce.HalfWarpInto — steady state never allocates.
	addrBuf [warpHalves][gpu.HalfWarp]uint32
	txLists [warpHalves][][]coalesce.Transaction
	txBufs  [warpHalves][][]coalesce.Transaction

	curBlock int         // block in flight
	avail    int64       // unspent instruction-budget reservation
	bs       *blockStats // stats shard of the block in flight

	// eng is the replay signature and undo scratch of the engine
	// path (see replay.go); unused on the live path.
	eng engineState
	// engHits and engMisses drive the engine path's per-worker
	// adaptive fallback: a worker whose first engineFallbackMisses
	// blocks all miss without one hit stops attempting replay.
	engHits, engMisses int
}

// initBlock (re)binds the worker's scratch state to blockID, whose
// statistics record into bs.
func (w *worker) initBlock(blockID int, bs *blockStats) error {
	w.curBlock = blockID
	w.bs = bs
	l := w.ctx.launch
	nw := l.WarpsPerBlock()
	if w.shared == nil {
		w.shared = make([]uint32, l.Prog.SharedMemBytes/4)
		w.warps = make([]*Warp, nw)
		for wi := 0; wi < nw; wi++ {
			lanes := l.Block - wi*gpu.WarpSize
			if lanes > gpu.WarpSize {
				lanes = gpu.WarpSize
			}
			warp, err := NewWarp(l.Prog, blockID, wi, l.Block, l.Grid, lanes, w.shared, w.ctx.mem)
			if err != nil {
				return err
			}
			w.warps[wi] = warp
		}
		w.atBarrier = make([]bool, nw)
		w.workCount = make([]int64, nw)
		for half := 0; half < warpHalves; half++ {
			w.txLists[half] = make([][]coalesce.Transaction, 0, len(w.ctx.coal))
			w.txBufs[half] = make([][]coalesce.Transaction, len(w.ctx.coal))
			for si := range w.txBufs[half] {
				// A half-warp forms at most gpu.HalfWarp transactions
				// (one per lane), so these buffers never regrow.
				w.txBufs[half][si] = make([]coalesce.Transaction, 0, gpu.HalfWarp)
			}
		}
	} else {
		clear(w.shared)
		for _, warp := range w.warps {
			warp.Reset(blockID)
		}
		clear(w.atBarrier)
		clear(w.workCount)
	}
	return nil
}

// runBlock executes one block to completion on the live path,
// recording its statistics into the zeroed shard bs, and returns its
// barrier count.
func (w *worker) runBlock(blockID int, bs *blockStats) (int, error) {
	if err := w.initBlock(blockID, bs); err != nil {
		return 0, err
	}
	return w.runWarps(nil)
}

// runWarps schedules the bound block's warps to completion and
// returns its barrier count: each warp in turn runs until it waits at
// a barrier or exits, and a barrier releases once every warp waits at
// it. It is the one scheduler of both block passes. With varBS nil it
// is the live path: every step records into the block's shard. With
// varBS non-nil it is the replay lean pass (see replay.go): batched
// runs execute where they can, every step folds into the block
// signature instead of being recorded, and only variant memory steps'
// statistics are computed, into varBS.
//
//gpuperf:noalloc
func (w *worker) runWarps(varBS *blockStats) (int, error) {
	l := w.ctx.launch
	lean := varBS != nil
	stage := 0
	barriers := 0
	for {
		ranAny := false
		for wi, warp := range w.warps {
			if warp.Done() || w.atBarrier[wi] {
				continue
			}
			if lean {
				w.eng.fold(sigWarp | uint64(uint32(wi))<<8)
			}
			// Run this warp until it blocks.
			for {
				if lean {
					ran, err := w.stepBatch(warp)
					if err != nil {
						return 0, err
					}
					if ran {
						continue
					}
				}
				if w.avail == 0 {
					if w.ctx.failed.Load() {
						return 0, errCancelled
					}
					if err := w.ctx.cancelled(); err != nil {
						return 0, err
					}
					w.avail = w.ctx.reserveBudget()
					if w.avail == 0 {
						return 0, fmt.Errorf("barra: instruction budget exhausted (%d warp instructions across the run) — runaway kernel %q?",
							w.ctx.maxInstr, l.Prog.Name)
					}
				}
				if err := warp.Step(&w.info); err != nil {
					return 0, err
				}
				w.avail--
				if lean {
					w.eng.charged++
					w.foldStep()
					if w.ctx.replay.variant[w.info.PC] {
						varBS.step(stage, w.buildTrace())
					}
				} else {
					w.record(stage, wi)
				}
				if w.info.Barrier {
					w.atBarrier[wi] = true
					break
				}
				if w.info.Done {
					break
				}
			}
			ranAny = true
		}

		allDone := true
		allBlocked := true
		anyExited := false
		for wi, warp := range w.warps {
			if warp.Done() {
				anyExited = true
				continue
			}
			allDone = false
			if !w.atBarrier[wi] {
				allBlocked = false
			}
		}
		if allDone {
			break
		}
		if allBlocked {
			if anyExited {
				// A warp exited while siblings wait at a barrier:
				// undefined behaviour on hardware, a bug here.
				return 0, fmt.Errorf("barra: %q: warps wait at a barrier after others exited", l.Prog.Name)
			}
			// Barrier release: everyone advances to the next stage.
			clear(w.atBarrier)
			w.stageEnd(stage, lean)
			stage++
			barriers++
			continue
		}
		if !ranAny {
			return 0, fmt.Errorf("barra: deadlock in %q: warps blocked at a barrier while others exited", l.Prog.Name)
		}
	}
	w.stageEnd(stage, lean)
	return barriers, nil
}

// stageEnd closes a stage. The live path records it into the block's
// stats shard and resets the per-warp work counters; the lean pass
// folds it into the block signature.
func (w *worker) stageEnd(stage int, lean bool) {
	if lean {
		w.eng.fold(sigStage)
		return
	}
	w.bs.stageEnd(stage, w.workCount)
	clear(w.workCount)
}

// record derives the memory-system outcome of the step just executed
// into the worker's StepTrace scratch and folds it into the block's
// stats shard.
func (w *worker) record(stage, wi int) {
	info := &w.info
	op := info.In.Op
	if info.ActiveCount > 0 && !isa.IsControl(op) && op != isa.OpNOP {
		w.workCount[wi]++
	}
	w.bs.step(stage, w.buildTrace())
}

// buildTrace derives the memory-system outcome of the step described
// by w.info (bank conflicts, coalesced transactions at every
// granularity) into the worker's StepTrace scratch. It is shared by
// the live path (per executed step) and the replay lean pass (per
// variant memory step): both must accumulate identically.
func (w *worker) buildTrace() *StepTrace {
	info := &w.info
	tr := &w.trace
	tr.Info = info
	tr.SharedAccesses, tr.SharedTx, tr.SharedTxIdeal, tr.SharedBytes = 0, 0, 0, 0
	tr.SharedDeg[0], tr.SharedDeg[1] = 0, 0
	tr.Global = tr.Global[:0]

	op := info.In.Op
	if info.SmemOperand {
		// Broadcast read of one shared word per half-warp: one
		// conflict-free transaction per active half-warp.
		tr.SharedAccesses++
		for half := 0; half < warpHalves; half++ {
			if info.HalfMask(half) != 0 {
				tr.SharedTx++
				tr.SharedTxIdeal++
				tr.SharedBytes += 4
			}
		}
	}

	switch {
	case isa.IsShared(op):
		tr.SharedAccesses++
		tr.SharedBytes += int64(info.ActiveCount) * 4
		for half := 0; half < warpHalves; half++ {
			addrs := w.gatherHalf(half)
			if len(addrs) == 0 {
				continue
			}
			deg := w.ctx.banks.Transactions(addrs)
			tr.SharedTx += int64(deg)
			tr.SharedTxIdeal++
			tr.SharedDeg[half] = uint8(deg)
		}

	case isa.IsGlobal(op):
		for half := 0; half < warpHalves; half++ {
			addrs := w.gatherHalf(half)
			if len(addrs) == 0 {
				continue
			}
			if w.ctx.hook != nil {
				w.ctx.hook(w.curBlock, op == isa.OpGLD, addrs) //gpuperf:alloc-ok opt-in access hook; hooked runs are outside the 0-alloc pin
			}
			txs := w.txLists[half][:0]
			for si, c := range w.ctx.coal {
				buf := c.HalfWarpInto(w.txBufs[half][si][:0], addrs, 4)
				w.txBufs[half][si] = buf
				txs = append(txs, buf) //gpuperf:alloc-ok appends into per-worker scratch reused across steps; growth amortizes to zero
			}
			w.txLists[half] = txs
			tr.Global = append(tr.Global, GlobalHalfWarp{Addrs: addrs, Tx: txs}) //gpuperf:alloc-ok appends into per-worker trace scratch reused across steps; growth amortizes to zero
		}
	}
	return tr
}

// gatherHalf collects the active lanes' addresses of one half-warp
// into the worker's scratch buffer.
func (w *worker) gatherHalf(half int) []uint32 {
	return w.info.GatherHalf(half, &w.addrBuf[half])
}

// execute shards the grid across the given number of workers and
// returns each block's barrier count and finished stats shard,
// indexed by block ID.
func (ctx *runContext) execute(workers int) ([]int, []*blockStats, error) {
	grid := ctx.launch.Grid
	barriers := make([]int, grid)
	results := make([]*blockStats, grid)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		if err != errCancelled {
			errOnce.Do(func() { firstErr = err })
		}
		ctx.failed.Store(true)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{ctx: ctx}
			for {
				b := int(ctx.nextBlock.Add(1)) - 1
				if b >= grid || ctx.failed.Load() {
					return
				}
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				var (
					bs  = ctx.stats.shard()
					nb  int
					err error
				)
				if ctx.replay != nil {
					nb, err = w.runBlockEngine(b, bs)
				} else {
					nb, err = w.runBlock(b, bs)
				}
				if err != nil {
					fail(err)
					return
				}
				barriers[b] = nb
				results[b] = bs
			}
		}()
	}
	wg.Wait()
	if ctx.failed.Load() {
		if firstErr == nil {
			firstErr = errCancelled
		}
		return nil, nil, firstErr
	}
	return barriers, results, nil
}
