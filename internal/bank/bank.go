// Package bank simulates shared-memory bank conflicts.
//
// GT200 shared memory spreads successive 4-byte words across 16
// banks; a half-warp whose threads touch different words in the same
// bank serializes into one transaction per distinct word (paper
// §4.2). Barra does not collect conflict information, so the paper
// adds an automated tool that derives the *effective* number of
// shared-memory transactions; this package is that tool, generalized
// to arbitrary bank counts (the paper's §5.2 proposes a prime count
// such as 17) — its future-work item 2, a general bank-conflict
// simulator driven by actual addresses.
package bank

import (
	"fmt"

	"gpuperf/internal/gpu"
)

// Sim computes conflict degrees for one shared-memory geometry.
type Sim struct {
	banks     int
	wordBytes int
}

// New creates a simulator; banks must be positive, wordBytes a
// positive power of two.
func New(banks, wordBytes int) (*Sim, error) {
	if banks <= 0 {
		return nil, fmt.Errorf("bank: non-positive bank count %d", banks)
	}
	if wordBytes <= 0 || wordBytes&(wordBytes-1) != 0 {
		return nil, fmt.Errorf("bank: word size %d not a positive power of two", wordBytes)
	}
	return &Sim{banks: banks, wordBytes: wordBytes}, nil
}

// ForGPU builds the simulator for a device configuration.
func ForGPU(c gpu.Config) (*Sim, error) { return New(c.SharedMemBanks, c.BankWidthBytes) }

// Transactions returns the number of serialized shared-memory
// transactions needed to service the given byte addresses, which
// must belong to one half-warp access (inactive lanes excluded by
// the caller). Threads reading the *same* word broadcast and cost
// nothing extra; threads touching different words in one bank
// serialize. The result is the maximum, over banks, of the distinct
// word count — 1 for conflict-free, k for a k-way conflict, 0 for no
// active lanes.
//
// The half-warp path (≤16 addresses — every call the execution
// engine makes) runs on fixed-size stack arrays and allocates
// nothing; it is safe for concurrent use from many workers.
//
//gpuperf:noalloc
func (s *Sim) Transactions(addrs []uint32) int {
	if len(addrs) == 0 {
		return 0
	}
	if len(addrs) <= gpu.HalfWarp {
		return s.transactionsHalfWarp(addrs)
	}
	return s.transactionsLarge(addrs)
}

// transactionsHalfWarp is the allocation-free conflict count for up
// to 16 lanes. The common conflict-free access exits early: when
// every lane falls in its own bank (a bank bitmask shows no repeat),
// the words are distinct too and one transaction serves them all.
func (s *Sim) transactionsHalfWarp(addrs []uint32) int {
	if s.banks <= 64 {
		var seen uint64
		for _, a := range addrs {
			bit := uint64(1) << (a / uint32(s.wordBytes) % uint32(s.banks))
			if seen&bit != 0 {
				return s.densestBank(addrs)
			}
			seen |= bit
		}
		return 1
	}
	return s.densestBank(addrs)
}

// densestBank is the general half-warp count: dedup the words into a
// fixed array, then take the densest bank by an O(n²) scan — at
// n ≤ 16 that is at most 256 compares on registers, far cheaper than
// building per-bank tables.
func (s *Sim) densestBank(addrs []uint32) int {
	var words [gpu.HalfWarp]uint32
	n := 0
outer:
	for _, a := range addrs {
		w := a / uint32(s.wordBytes)
		for i := 0; i < n; i++ {
			if words[i] == w {
				continue outer
			}
		}
		words[n] = w
		n++
	}
	var bankOf [gpu.HalfWarp]uint32
	for i := 0; i < n; i++ {
		bankOf[i] = words[i] % uint32(s.banks)
	}
	maxWords := 0
	for i := 0; i < n; i++ {
		c := 1
		for j := 0; j < i; j++ {
			if bankOf[j] == bankOf[i] {
				c = 0 // bank already counted at its first word
				break
			}
		}
		if c == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if bankOf[j] == bankOf[i] {
				c++
			}
		}
		if c > maxWords {
			maxWords = c
		}
	}
	return maxWords
}

// transactionsLarge handles arbitrary address counts (synthetic
// sweeps beyond half-warp width) with per-bank tables.
func (s *Sim) transactionsLarge(addrs []uint32) int {
	perBank := make([][]uint32, s.banks) //gpuperf:alloc-ok beyond-half-warp path for synthetic sweeps; the engine always passes ≤16 lanes
	maxWords := 0
	for _, a := range addrs {
		word := a / uint32(s.wordBytes)
		b := int(word % uint32(s.banks))
		dup := false
		for _, w := range perBank[b] {
			if w == word {
				dup = true
				break
			}
		}
		if !dup {
			perBank[b] = append(perBank[b], word) //gpuperf:alloc-ok beyond-half-warp path for synthetic sweeps; the engine always passes ≤16 lanes
			if len(perBank[b]) > maxWords {
				maxWords = len(perBank[b])
			}
		}
	}
	return maxWords
}

// ConflictDegree reports the k in "k-way bank conflict" for the
// access (1 = conflict-free). It is Transactions clamped below at 1
// when any lane is active.
func (s *Sim) ConflictDegree(addrs []uint32) int {
	t := s.Transactions(addrs)
	if t < 1 && len(addrs) > 0 {
		return 1
	}
	return t
}

// StrideConflict returns the conflict degree of a classic
// strided access: lanes i = 0..lanes-1 touching word index i*stride.
// Cyclic reduction's step s has stride 2^s, whose degree doubles
// every step on a 16-bank memory (paper Fig. 5) — and collapses to 1
// when the bank count is prime to the stride.
func (s *Sim) StrideConflict(lanes, stride int) int {
	if lanes <= 0 || stride <= 0 {
		return 0
	}
	addrs := make([]uint32, lanes)
	for i := range addrs {
		addrs[i] = uint32(i * stride * s.wordBytes)
	}
	return s.Transactions(addrs)
}

// PadAddress applies the paper's §5.2 padding remedy: it remaps a
// word index so that one pad word is inserted every banks words
// (index → index + index/banks). With 16 banks this is the "pad 1
// element per 16 elements" technique that removes all of cyclic
// reduction's conflicts.
func PadAddress(wordIndex, banks int) int {
	if banks <= 0 {
		return wordIndex
	}
	return wordIndex + wordIndex/banks
}

// PaddedSize returns the shared-memory words needed to hold n
// logical words under PadAddress padding.
func PaddedSize(n, banks int) int {
	if n <= 0 {
		return 0
	}
	return PadAddress(n-1, banks) + 1
}
