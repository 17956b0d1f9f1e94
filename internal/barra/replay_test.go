package barra

import (
	"reflect"
	"testing"

	"gpuperf/internal/bank"
	"gpuperf/internal/coalesce"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// stridePerBlockKernel stores each thread's tid to word
// ctaid*2048 + tid*(ctaid+1). Every block's store has its own lane
// stride, so no two blocks share a replay signature, while the blocks'
// words stay disjoint.
func stridePerBlockKernel() *isa.Program {
	b := kbuild.New("stride-per-block")
	tid, cta, stride, addr := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTid)
	b.S2R(cta, isa.SRCtaid)
	b.IAddImm(stride, cta, 1)
	b.IMul(addr, tid, stride)
	b.IMadImm(addr, cta, 2048, addr)
	b.ShlImm(addr, addr, 2)
	b.Gst(addr, tid)
	b.Exit()
	return b.MustProgram()
}

// TestReplayFallback covers the per-worker fallback of the replay
// engine: on a kernel whose blocks never match, each worker gives up
// on replay after engineFallbackMisses misses without a hit and runs
// its remaining blocks live. Stats equal a replay-off run at every
// parallelism, no block is replayed, and on one worker every block
// after the first engineFallbackMisses runs live.
func TestReplayFallback(t *testing.T) {
	const grid = 20
	l := Launch{Prog: stridePerBlockKernel(), Grid: grid, Block: 64}
	newMem := func() *Memory { return NewMemory(grid * 2048 * 4) }

	off, err := Run(cfg(), l, newMem(), &Options{Parallelism: 1, DisableBlockReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		on, err := Run(cfg(), l, newMem(), &Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if on.Engine.BlocksReplayed != 0 {
			t.Errorf("P=%d: %d blocks replayed on a kernel whose blocks never match", p, on.Engine.BlocksReplayed)
		}
		on.Engine = EngineStats{}
		if !reflect.DeepEqual(on, off) {
			t.Errorf("P=%d: replay-on Stats diverge from live Stats:\n  on:  %+v\n  off: %+v", p, on, off)
		}
	}

	// One worker, assembled the way Run does, to read the replay
	// state's counters directly.
	c := cfg()
	bsim, err := bank.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	csim, err := coalesce.ForGPU(c)
	if err != nil {
		t.Fatal(err)
	}
	segs := []int{c.MinSegmentBytes}
	rc := &runContext{
		cfg:      c,
		launch:   l,
		mem:      newMem(),
		banks:    bsim,
		coal:     []*coalesce.Sim{csim},
		segs:     segs,
		stats:    newStatsCollector(l, nil, segs),
		replay:   newReplayState(l.Prog, nil, c.MaxSegmentBytes),
		maxInstr: 1 << 40,
	}
	rc.budget.Store(rc.maxInstr)
	if _, _, err := rc.execute(1); err != nil {
		t.Fatal(err)
	}
	if got, want := rc.replay.liveBlocks.Load(), int64(grid-engineFallbackMisses); got != want {
		t.Errorf("P=1: %d blocks ran live after the fallback, want %d", got, want)
	}
	if got := len(rc.replay.classes); got != engineFallbackMisses {
		t.Errorf("P=1: %d replay classes, want one per missed block (%d)", got, engineFallbackMisses)
	}
}
