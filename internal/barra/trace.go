package barra

import "gpuperf/internal/coalesce"

// StepTrace is one executed warp instruction plus the memory-system
// outcome the execution engine derived for it: serialized
// shared-memory transactions after bank conflicts and the global
// transactions formed at every configured segment granularity. The
// worker folds one StepTrace per executed step into the block's stats
// shard (blockStats.step); the replay engine folds its variant steps
// the same way. The struct and everything it points to are scratch
// owned by the worker — valid only until the next step.
type StepTrace struct {
	// Info describes the executed instruction (active mask, per-lane
	// addresses, cost class).
	Info *StepInfo
	// SharedAccesses counts the warp-level shared-memory accesses of
	// this step (an instruction can both read a shared ALU operand and
	// be a shared load/store). SharedTx are the serialized transactions
	// after bank conflicts, SharedTxIdeal the conflict-free ideal (one
	// per active half-warp), SharedBytes the useful bytes moved.
	SharedAccesses int64
	SharedTx       int64
	SharedTxIdeal  int64
	SharedBytes    int64
	// SharedDeg[h] is the bank-conflict degree of half-warp h for a
	// shared load/store step: the serialized transaction count its
	// active lanes required (0 = no active lanes or not a shared
	// load/store). Feeds the conflict-degree histogram.
	SharedDeg [warpHalves]uint8
	// Global has one entry per active half-warp of a global-memory
	// instruction (empty otherwise).
	Global []GlobalHalfWarp
}

// GlobalHalfWarp is one half-warp's global-memory access.
type GlobalHalfWarp struct {
	// Addrs are the active lanes' byte addresses.
	Addrs []uint32
	// Tx[i] are the hardware transactions formed at the i-th
	// granularity of the run's segment list (Segments()); index 0 is
	// always the device's native granularity. Like Addrs, both slice
	// levels are worker-owned scratch refilled on the next step.
	Tx [][]coalesce.Transaction
}
