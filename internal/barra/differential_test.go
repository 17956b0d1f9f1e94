package barra

import (
	"math"
	"math/rand"
	"testing"

	"gpuperf/internal/gpu"
	"gpuperf/internal/isa"
	"gpuperf/internal/kbuild"
)

// TestRandomProgramDifferential cross-checks the warp executor
// against an independent scalar interpreter on randomly generated
// predicated programs with forward branches: every thread's final
// register file must agree. This exercises operand resolution, predication,
// divergent forward branches, special registers (as ALU sources and
// store values, not only through S2R), double precision on register
// pairs and the integer ALU far beyond the hand-written kernels.
func TestRandomProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		prog, outBase := randomALUProgram(rng)
		// 80 threads end in a half-populated warp.
		for _, block := range []int{96, 80} {
			grid := 2
			mem := NewMemory(grid * block * outSlots * 4)
			if _, err := Run(gpu.GTX285(), Launch{Prog: prog, Grid: grid, Block: block}, mem, nil); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for blockID := 0; blockID < grid; blockID++ {
				for tid := 0; tid < block; tid++ {
					want := interpret(prog, blockID, tid, block, grid)
					for r := 0; r < outSlots; r++ {
						addr := outBase + uint32(((blockID*block+tid)*outSlots+r)*4)
						got, err := mem.Load32(addr)
						if err != nil {
							t.Fatal(err)
						}
						if got != want[r] {
							t.Fatalf("trial %d block %d/%d thread %d slot %d: sim %#x vs ref %#x\nprogram:\n%s",
								trial, blockID, block, tid, r, got, want[r], progText(prog))
						}
					}
				}
			}
		}
	}
}

const workRegs = 6 // r0..r5 carry values; r6+ is scratch for addressing

// outSlots is the per-thread dump: the six working registers, then
// two special registers stored directly as values.
const outSlots = workRegs + 2

// randomALUProgram builds a program of predicated ALU work on
// registers r0..r5, with divergent forward branches over short
// stretches of it, ending with a coalesced dump of all six plus two
// special registers to global memory.
func randomALUProgram(rng *rand.Rand) (*isa.Program, uint32) {
	b := kbuild.New("difftest")
	// r0..r5 are the working set, preallocated.
	work := b.Regs(workRegs)
	tid := b.Reg()
	flat := b.Reg()
	addr := b.Reg()
	ntid := b.Reg()
	cta := b.Reg()

	b.S2R(tid, isa.SRTid)
	b.S2R(ntid, isa.SRNtid)
	b.S2R(cta, isa.SRCtaid)
	b.IMad(flat, cta, ntid, tid)
	// Seed the working registers from thread identity.
	for r := 0; r < workRegs; r++ {
		b.IMadImm(work+isa.Reg(r), flat, uint32(r*3+1), tid)
	}

	pick := func() isa.Reg { return work + isa.Reg(rng.Intn(workRegs)) }
	// pair picks one of the double-precision pairs (r0,r1), (r2,r3),
	// (r4,r5).
	pair := func() isa.Reg { return work + isa.Reg(2*rng.Intn(workRegs/2)) }
	sreg := func() isa.Operand { return isa.SR(isa.SReg(rng.Intn(isa.NumSRegs))) }
	guard := func(idx int) {
		b.Guarded(idx, isa.Pred(rng.Intn(isa.NumPreds)), rng.Intn(2) == 0)
	}
	emitOp := func(dst, a, c isa.Reg) {
		imm := uint32(rng.Intn(1 << 12))
		switch rng.Intn(15) {
		case 0:
			b.IAdd(dst, a, c)
		case 1:
			b.IAddImm(dst, a, imm)
		case 2:
			b.ISub(dst, a, c)
		case 3:
			b.IMulImm(dst, a, imm|1)
		case 4:
			b.IMad(dst, a, c, pick())
		case 5:
			b.ShlImm(dst, a, uint32(rng.Intn(8)))
		case 6:
			b.ShrImm(dst, a, uint32(rng.Intn(8)))
		case 7:
			b.AndImm(dst, a, imm)
		case 8:
			b.Emit(isa.Instruction{Op: isa.OpXOR, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
		case 9:
			b.Emit(isa.Instruction{Op: isa.OpIMIN, Guard: isa.PT, Dst: dst, SrcA: isa.R(a), SrcB: isa.R(c)})
		case 10:
			// A special register as an ALU source, in either slot.
			ops := [...]isa.Opcode{isa.OpMOV, isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpXOR, isa.OpIMIN}
			in := isa.Instruction{Op: ops[rng.Intn(len(ops))], Guard: isa.PT, Dst: dst, SrcA: sreg(), SrcB: isa.R(a)}
			if rng.Intn(2) == 0 {
				in.SrcA, in.SrcB = in.SrcB, in.SrcA
			}
			b.Emit(in)
		case 11:
			b.Emit(isa.Instruction{Op: isa.OpIMAD, Guard: isa.PT, Dst: dst, SrcA: sreg(), SrcB: isa.R(a), SrcC: sreg()})
		case 12, 13, 14:
			// Double precision on register pairs. Clearing the top two
			// bits of each source's high word keeps it finite (|x| < 2):
			// Go leaves the payload of a NaN result unspecified, so
			// NaN operands would tie the comparison to code generation.
			x, y, z := pair(), pair(), pair()
			for _, r := range [...]isa.Reg{x, y, z} {
				b.AndImm(r+1, r+1, 0x3fffffff)
			}
			in := isa.Instruction{Op: isa.OpDADD, Guard: isa.PT, Dst: pair(), SrcA: isa.R(x), SrcB: isa.R(y)}
			switch rng.Intn(3) {
			case 1:
				in.Op = isa.OpDMUL
			case 2:
				in.Op, in.SrcC = isa.OpDFMA, isa.R(z)
			}
			b.Emit(in)
		}
		// A quarter of the operations run under a partial mask.
		if rng.Intn(4) == 0 {
			guard(b.Pos() - 1)
		}
	}

	n := 10 + rng.Intn(60)
	for i := 0; i < n; i++ {
		dst, a, c := pick(), pick(), pick()
		emitOp(dst, a, c)
		// A third of the instructions are followed by a fresh
		// compare plus a guarded update, exercising predication.
		if rng.Intn(3) == 0 {
			p := isa.Pred(rng.Intn(isa.NumPreds))
			cmp := isa.CmpOp(rng.Intn(isa.NumCmps))
			b.ISetp(p, cmp, a, c)
			dup := b.Pos()
			b.IAddImm(dst, dst, uint32(rng.Intn(64)))
			b.Guarded(dup, p, rng.Intn(2) == 0)
		}
		// A sixth of the iterations branch over a few operations on a
		// data-dependent predicate: the warp diverges and reconverges
		// at the branch target.
		if rng.Intn(6) == 0 {
			p := isa.Pred(rng.Intn(isa.NumPreds))
			b.ISetp(p, isa.CmpOp(rng.Intn(isa.NumCmps)), pick(), pick())
			br := b.BraIf(p, rng.Intn(2) == 0)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				emitOp(pick(), pick(), pick())
			}
			b.SetTarget(br, b.Pos())
		}
	}

	// Dump: out[(flat*outSlots + r)*4], then two special registers
	// stored as values, the second under a partial mask.
	b.IMulImm(addr, flat, outSlots*4)
	for r := 0; r < workRegs; r++ {
		b.GstOff(addr, work+isa.Reg(r), uint32(r*4))
	}
	for r := workRegs; r < outSlots; r++ {
		b.Emit(isa.Instruction{Op: isa.OpGST, Guard: isa.PT, SrcA: isa.R(addr), SrcB: sreg(), Imm: uint32(r * 4)})
	}
	guard(b.Pos() - 1)
	b.Exit()
	return b.MustProgram(), 0
}

func progText(p *isa.Program) string {
	out := ""
	for i, in := range p.Code {
		out += in.String()
		if i%4 == 3 {
			out += "\n"
		} else {
			out += " | "
		}
	}
	return out
}

// interpret runs the program for one thread with an independent
// (scalar, switch-based) implementation of the semantics.
func interpret(p *isa.Program, blockID, tid, blockDim, gridDim int) []uint32 {
	regs := make([]uint32, p.RegsPerThread)
	preds := make([]bool, isa.NumPreds)
	out := make([]uint32, outSlots)

	val := func(o isa.Operand, imm uint32) uint32 {
		switch o.Kind {
		case isa.KindReg:
			return regs[o.Reg]
		case isa.KindImm:
			return imm
		case isa.KindSReg:
			switch o.SReg {
			case isa.SRTid:
				return uint32(tid)
			case isa.SRCtaid:
				return uint32(blockID)
			case isa.SRNtid:
				return uint32(blockDim)
			case isa.SRNctaid:
				return uint32(gridDim)
			case isa.SRLane:
				return uint32(tid % gpu.WarpSize)
			case isa.SRWarp:
				return uint32(tid / gpu.WarpSize)
			}
		}
		return 0
	}

	// Doubles live in register pairs (lo, hi); a non-register source
	// reads as 0.
	f64 := func(o isa.Operand) float64 {
		if o.Kind != isa.KindReg {
			return 0
		}
		return math.Float64frombits(uint64(regs[o.Reg+1])<<32 | uint64(regs[o.Reg]))
	}
	setF64 := func(r isa.Reg, v float64) {
		bits := math.Float64bits(v)
		regs[r], regs[r+1] = uint32(bits), uint32(bits>>32)
	}

	for pc := 0; pc < len(p.Code); pc++ {
		in := p.Code[pc]
		if in.Guard != isa.PT {
			h := preds[in.Guard]
			if in.GuardNeg {
				h = !h
			}
			if !h {
				continue
			}
		}
		a := val(in.SrcA, in.Imm)
		bb := val(in.SrcB, in.Imm)
		cc := val(in.SrcC, in.Imm)
		switch in.Op {
		case isa.OpS2R, isa.OpMOV:
			regs[in.Dst] = a
		case isa.OpIADD:
			regs[in.Dst] = a + bb
		case isa.OpISUB:
			regs[in.Dst] = a - bb
		case isa.OpIMUL:
			regs[in.Dst] = a * bb
		case isa.OpIMAD:
			regs[in.Dst] = a*bb + cc
		case isa.OpSHL:
			regs[in.Dst] = a << (bb & 31)
		case isa.OpSHR:
			regs[in.Dst] = a >> (bb & 31)
		case isa.OpAND:
			regs[in.Dst] = a & bb
		case isa.OpXOR:
			regs[in.Dst] = a ^ bb
		case isa.OpDADD:
			setF64(in.Dst, f64(in.SrcA)+f64(in.SrcB))
		case isa.OpDMUL:
			setF64(in.Dst, f64(in.SrcA)*f64(in.SrcB))
		case isa.OpDFMA:
			setF64(in.Dst, f64(in.SrcA)*f64(in.SrcB)+f64(in.SrcC))
		case isa.OpIMIN:
			if int32(a) < int32(bb) {
				regs[in.Dst] = a
			} else {
				regs[in.Dst] = bb
			}
		case isa.OpISETP:
			var r bool
			x, y := int32(a), int32(bb)
			switch in.Cmp {
			case isa.CmpLT:
				r = x < y
			case isa.CmpLE:
				r = x <= y
			case isa.CmpGT:
				r = x > y
			case isa.CmpGE:
				r = x >= y
			case isa.CmpEQ:
				r = x == y
			case isa.CmpNE:
				r = x != y
			}
			preds[in.PDst] = r
		case isa.OpGST:
			// The dump: the offset is the output slot.
			out[in.Imm/4] = bb
		case isa.OpBRA:
			pc = int(in.Target) - 1
		case isa.OpEXIT:
			return out
		}
	}
	return out
}
